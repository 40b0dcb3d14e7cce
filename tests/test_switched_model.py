import itertools
import re
import warnings

import numpy as np
import pytest

from switchguard import demo
from switchguard.cli import parse_problem
from switchguard import synthesis
from switchguard.switched_model import (ChannelPlant, SwitchedOutputModel, SwitchingAutomaton,
                                        SwitchingFIR, _distinct_rows, _history_bound,
                                        _mode_array, _row_keys, broadcast_taps, build_modes,
                                        history_array, instantiate)
from util import (admissible_sequences, band_entry, dense_blockdiag, dict_instantiate,
                  dict_lift_outputs, generator_histories, history_at, lexsort_distinct_rows,
                  paths, prefixes, row_slice_modes, tuple_random_sequence, unroll)


def histories(automaton, length):
    """history_array's windows as tuples."""
    return list(map(tuple, history_array(automaton, length).tolist()))


def test_build_modes_reference_matrices(switching_setup):
    model = switching_setup[1]
    assert np.array_equal(model.C[0], np.array([[0.0, 1, 0], [1, -1, -2]]))
    assert np.array_equal(model.D[0], np.array([[2.0, 0], [0, 0.01]]))
    assert np.array_equal(model.C[1], np.array([[0.0, 1, 0], [0, 0, 0]]))
    assert np.array_equal(model.D[1], np.array([[2.0, 0], [0, 0]]))


def test_array_dataclasses_compare_by_identity(switching_synthesis):
    """`==` on a model object that holds arrays is a bool, not an array error."""
    def make():
        plant, model, automaton, _, _ = parse_problem(demo.demo_config_dict())
        return {"plant": plant, "model": model, "automaton": automaton,
                "fir": broadcast_taps(switching_synthesis[0].T, automaton)}
    firsts, seconds = make(), make()
    for name in firsts:
        first, second = firsts[name], seconds[name]
        assert (first == first) is True, name
        assert (first == second) is False, name
        assert (first != second) is True, name
    assert (switching_synthesis[0] == switching_synthesis[0]) is True


def test_build_modes_full_mask_only(plant):
    model = build_modes(plant, [{1, 2}])
    assert model.mode_count == 1
    C0, D0 = plant.stacked()
    assert np.array_equal(model.C[0], C0)
    assert np.array_equal(model.D[0], D0)


def test_build_modes_empty_mask_zeroes_everything(plant):
    model = build_modes(plant, [{1, 2}, set()])
    assert np.all(model.C[1] == 0.0)
    assert np.all(model.D[1] == 0.0)


def test_build_modes_requires_full_first_pattern(plant):
    with pytest.raises(ValueError):
        build_modes(plant, [{1}])


def test_build_modes_duplicate_mask_warns(plant):
    with pytest.warns(UserWarning):
        build_modes(plant, [{1, 2}, {1}, {1}])


def test_build_modes_matches_row_slice_oracle():
    """The broadcast mask equals the per-pattern row slices bit for bit, on
    random channel dims and patterns with repeated channel numbers, an empty
    pattern and duplicates, which warn."""
    rng = np.random.default_rng(17)
    for _ in range(40):
        n, m_w = (int(v) for v in rng.integers(1, 4, 2))
        dims = rng.integers(1, 4, int(rng.integers(1, 5))).tolist()
        channels = tuple((rng.uniform(-1, 1, (d, n)), rng.uniform(-1, 1, (d, m_w)))
                         for d in dims)
        plant = ChannelPlant(A=np.eye(n), B=np.zeros((n, m_w)), channels=channels)
        numbers = list(range(1, len(dims) + 1))
        patterns = [numbers + numbers[:1], []]
        for _ in range(int(rng.integers(0, 4))):
            patterns.append(rng.choice(numbers, int(rng.integers(0, 2 * len(dims)))).tolist())
        sets = [frozenset(pat) for pat in patterns]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = build_modes(plant, patterns)
        assert len(caught) == len(sets) - len(set(sets))
        C, D = row_slice_modes(plant, patterns)
        assert model.C.tobytes() == C.tobytes() and model.C.shape == C.shape
        assert model.D.tobytes() == D.tobytes() and model.D.shape == D.shape
        assert (model.mode_count, model.p, model.n, model.m_w) == (len(patterns), sum(dims),
                                                                   n, m_w)


def test_switched_output_model_stacks_are_read_only_copies(switching_setup):
    C, D = np.ones((2, 1, 3)), np.ones((2, 1, 2))
    model = SwitchedOutputModel(C, D)
    C[0, 0, 0] = D[0, 0, 0] = 5.0
    assert model.C[0, 0, 0] == model.D[0, 0, 0] == 1.0
    for stack in (model.C, model.D, switching_setup[1].C, switching_setup[1].D):
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 2.0


@pytest.mark.parametrize("C_shape, D_shape, field", [
    ((2, 1, 3), (3, 1, 2), "D"),  # mode counts differ
    ((2, 1, 3), (2, 2, 2), "D"),  # row counts differ
    ((2, 1, 3), (2, 1), "D"),
    ((1, 3), (1, 2), "C"),
    ((0, 1, 3), (0, 1, 2), "C"),
])
def test_switched_output_model_rejects_mismatched_stacks(C_shape, D_shape, field):
    with pytest.raises(ValueError, match=f"^{field} "):
        SwitchedOutputModel(np.zeros(C_shape), np.zeros(D_shape))


def test_channel_plant_validation():
    with pytest.raises(ValueError):
        ChannelPlant(A=np.eye(2), B=np.zeros((2, 1)), channels=())
    with pytest.raises(ValueError):
        ChannelPlant(A=np.eye(2), B=np.zeros((2, 1)),
                     channels=((np.ones((1, 3)), np.zeros((1, 1))),))


@pytest.mark.parametrize("x0_bound", [np.nan, np.inf, -1.0])
def test_channel_plant_rejects_bad_x0_bound(x0_bound):
    """A NaN or infinite bound used to pass and fail later inside the LP."""
    with pytest.raises(ValueError, match="x0_bound must be finite and nonnegative"):
        ChannelPlant(A=np.eye(2), B=np.zeros((2, 1)),
                     channels=((np.ones((1, 2)), np.zeros((1, 1))),), x0_bound=x0_bound)


def test_mask_idempotence(switching_setup):
    model = switching_setup[1]
    for j in range(model.mode_count):
        keep = (np.sum(np.abs(model.C[j]), axis=1)
                + np.sum(np.abs(model.D[j]), axis=1)) > 0
        # reapplying the row selection changes nothing
        assert np.array_equal(keep[:, None] * model.C[j], model.C[j])
        assert np.array_equal(keep[:, None] * model.D[j], model.D[j])


def test_enumerate_complete_two_modes():
    auto = SwitchingAutomaton(2)
    hists = histories(auto, 2)
    assert hists == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_enumerate_forbidden_transition_bruteforce():
    allowed = np.array([[True, True], [True, False]])
    auto = SwitchingAutomaton(2, allowed=allowed)
    hists = set(histories(auto, 3))
    expected = {h for h in itertools.product((0, 1), repeat=3)
                if all(allowed[a, b] for a, b in zip(h, h[1:]))}
    assert hists == expected
    assert len(hists) == 5


def test_enumerate_length_one():
    auto = SwitchingAutomaton(3)
    hists = histories(auto, 1)
    assert hists == [(0,), (1,), (2,)]


def test_enumerate_padding_covers_startup():
    # the 0 -> 1 step is forbidden, but sequences may start in mode 1, so
    # the startup window (padding, 1) must still be enumerated
    allowed = np.array([[True, False], [True, True]])
    auto = SwitchingAutomaton(2, allowed=allowed, initial={1}, padding_mode=0)
    hists = set(histories(auto, 2))
    assert (0, 1) in hists
    assert hists == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_sliding_windows_subset_of_enumeration():
    rng = np.random.default_rng(0)
    for trial in range(10):
        mode_count = int(rng.integers(2, 4))
        allowed = rng.random((mode_count, mode_count)) < 0.8
        allowed |= np.eye(mode_count, dtype=bool)  # keep it live
        auto = SwitchingAutomaton(mode_count, allowed=allowed)
        L = int(rng.integers(1, 4))
        hists = set(histories(auto, L))
        sigma = auto.random_sequence(12, rng)
        for t in range(12):
            assert history_at(sigma, t, L, auto.padding_mode) in hists


def test_successors_reject_modes_outside_the_automaton():
    """A negative `prev` used to return a real mode's successors through
    negative indexing; every prev outside 0..mode_count-1 raises KeyError."""
    auto = SwitchingAutomaton(2, allowed=[[True, False], [False, True]], initial={1})
    assert [auto.successors(prev) for prev in (None, 0, 1)] == [(1,), (0,), (1,)]
    for prev in (-1, -2, 2, 3):
        with pytest.raises(KeyError):
            auto.successors(prev)


@pytest.mark.parametrize("auto, length", [
    (SwitchingAutomaton(3), 40),
    (SwitchingAutomaton(3, allowed=[[1, 1, 0], [0, 0, 1], [1, 0, 1]], initial=[1, 2],
                        padding_mode=2), 40),
    (SwitchingAutomaton(1), 40),
    (SwitchingAutomaton(3, allowed=[[0, 1, 1], [1, 1, 0], [1, 0, 1]], initial=[0, 2]), 40),
    (SwitchingAutomaton(3), 0),
    (SwitchingAutomaton(2, initial=[]), 40),
], ids=["complete", "restricted", "one-mode", "out-degree-2", "length-0", "empty-initial"])
def test_random_sequence_matches_reference_walk(auto, length):
    """Seeded draws equal the reference walk's, a dead end raises the same
    error, and the generator is left in the same state: on the one-draw
    path (every successor count, the start's too, equal and at least 1;
    one mode draws nothing) and on the step-by-step one."""
    for seed in range(5):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        outcomes = []
        for walk, gen in ((auto.random_sequence, rng),
                          (lambda n, g: tuple_random_sequence(auto, n, g), ref)):
            try:
                outcomes.append(walk(length, gen))
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        assert rng.bit_generator.state == ref.bit_generator.state
    if length and not auto.initial:
        assert outcomes[0] == "automaton dead-ends after prefix ()"


def test_walker_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(40):
        mode_count = int(rng.integers(2, 4))
        allowed = rng.random((mode_count, mode_count)) < 0.6
        initial = set(rng.choice(mode_count, int(rng.integers(1, mode_count)),
                                 replace=False).tolist())
        pad = int(rng.integers(1, mode_count))
        auto = SwitchingAutomaton(mode_count, allowed=allowed, initial=initial,
                                  padding_mode=pad)

        def is_path(s):
            return all(allowed[a, b] for a, b in zip(s, s[1:]))

        for L in range(6):
            every = list(itertools.product(range(mode_count), repeat=L))
            admissible = [s for s in every if not s or (s[0] in initial and is_path(s))]
            assert [s for s in every if auto.is_admissible(s)] == admissible
            # lexicographic order is what exhaustive search's tie-break relies on
            assert admissible_sequences(auto, L) == admissible
        for L in range(1, 5):
            interior = {s for s in itertools.product(range(mode_count), repeat=L)
                        if is_path(s)}
            startup = {(pad,) * j + s for j in range(1, L)
                       for s in itertools.product(range(mode_count), repeat=L - j)
                       if s[0] in initial and is_path(s)}
            assert histories(auto, L) == sorted(interior | startup)


def test_array_walker_matches_generator_walk():
    """Random automata, dead ends and an empty `initial` included."""
    rng = np.random.default_rng(12)
    for _ in range(300):
        mode_count = int(rng.integers(1, 4))
        allowed = rng.random((mode_count, mode_count)) < rng.uniform(0.2, 0.9)
        initial = set(rng.choice(mode_count, int(rng.integers(0, mode_count + 1)),
                                 replace=False).tolist())
        auto = SwitchingAutomaton(mode_count, allowed=allowed, initial=initial,
                                  padding_mode=int(rng.integers(mode_count)))
        for L in range(1, 7):
            expected = generator_histories(auto, L)
            assert histories(auto, L) == expected
            windows = history_array(auto, L)
            assert windows.dtype == np.intp and windows.shape == (len(expected), L)
        for L in range(1, 5):
            first = np.array(sorted(auto.initial), dtype=np.intp).reshape(-1, 1)
            paths = first
            for _ in range(L - 1):
                parent, paths = auto.extend(paths)
            assert list(map(tuple, paths.tolist())) == admissible_sequences(auto, L)


def test_extend_keeps_the_last_modes():
    auto = SwitchingAutomaton(2, allowed=[[True, True], [True, False]])
    parent, steps = auto.extend(np.array([[0, 1], [1, 0]]), keep=2)
    assert parent.tolist() == [0, 1, 1]
    assert steps.tolist() == [[1, 0], [0, 0], [0, 1]]
    parent, steps = auto.extend(np.array([[1]]), keep=1)
    assert parent.tolist() == [0] and steps.tolist() == [[0]]


def test_distinct_rows_matches_unique():
    rng = np.random.default_rng(13)
    for _ in range(100):
        rows = rng.integers(0, 3, (int(rng.integers(1, 40)), int(rng.integers(1, 5))))
        distinct, inverse = _distinct_rows(rows)
        expected, expected_inverse = np.unique(rows, axis=0, return_inverse=True)
        assert np.array_equal(distinct, expected)
        assert np.array_equal(inverse, expected_inverse.reshape(-1))


def _demo_form_keys():
    """The integer keys `assemble_lp` deduplicates the switching demo's
    affine forms by: ids, coefficient bits and constant bits."""
    plant, model, automaton, config, _ = parse_problem(demo.demo_config_dict())
    variables = synthesis.decision_variables(automaton, config, plant.n, model.p)
    windows, taps, tap_ids = synthesis._windows(automaton, config)
    hist_ids = variables.history_ids(taps)[tap_ids]
    blocks = [synthesis._kernel_terms(plant, model, kind, windows, hist_ids, variables)
              for kind in (synthesis._PERFORMANCE, synthesis._RESIDUAL)]
    width = max(var.shape[-1] for kind in blocks for var, _, _ in kind)
    forms = [synthesis._forms(kind, variables.count, width) for kind in blocks]
    var, coeff, const = (np.concatenate(parts) for parts in zip(*forms))
    return synthesis._form_keys(var, coeff, const)


def test_distinct_rows_match_lexsort():
    """Rows packed into int64 keys give the distinct rows and the inverse of
    one lexsort over the columns, byte for byte: narrow random ranges, a
    2-mode array too wide for one key, negative and full-range int64
    columns (each its own key), the demo LP's form keys, one row and none."""
    rng = np.random.default_rng(33)
    info = np.iinfo(np.int64)
    cases = []
    for span in range(1, 6):
        for _ in range(40):
            shape = (int(rng.integers(1, 60)), int(rng.integers(1, 12)))
            cases.append(rng.integers(-2, 3) + rng.integers(0, span, shape))
    two_modes = rng.integers(0, 2, (400, 70))
    cases.append(np.concatenate([two_modes, two_modes[::3]]))
    wide = rng.integers(info.min, info.max, (60, 3), endpoint=True)
    wide[:, 1] = rng.integers(-3, 0, 60)
    wide[::2, 0] = [info.min, info.max] * 15
    cases += [wide, np.concatenate([wide, wide[::-2]]), _demo_form_keys()]
    cases += [np.zeros((0, 4), dtype=np.int64), np.array([[info.min, 0, info.max]])]
    for rows in cases:
        expected = lexsort_distinct_rows(rows)
        found = _distinct_rows(rows)
        assert found[0].shape == expected[0].shape and found[0].dtype == expected[0].dtype
        assert found[0].tobytes() == expected[0].tobytes()
        assert found[1].tobytes() == expected[1].tobytes()
    # 70 one-bit columns fill a 62-bit key and start a second; a column
    # wider than 62 bits is its own key, kept as it is
    assert len(_row_keys(two_modes)) == 2
    assert len(_row_keys(history_array(SwitchingAutomaton(2), 10))) == 1
    keys = _row_keys(wide)
    assert len(keys) == 3 and keys[0].tobytes() == wide[:, 0].tobytes()


def test_history_bound_covers_history_array():
    """The window count the LP budget reads before enumerating is at least
    the number of windows history_array builds, and exactly the interior
    plus startup windows before they are merged."""
    rng = np.random.default_rng(5)
    for _ in range(60):
        modes = int(rng.integers(1, 4))
        automaton = SwitchingAutomaton(modes, rng.random((modes, modes)) < 0.7,
                                       [m for m in range(modes) if rng.random() < 0.6],
                                       int(rng.integers(modes)))
        for length in range(1, 6):
            merged = len(generator_histories(automaton, length))
            unmerged = len(paths(automaton, length, range(modes))) + sum(
                len(admissible_sequences(automaton, length - j)) for j in range(1, length))
            assert _history_bound(automaton, length) == unmerged >= merged
            assert len(history_array(automaton, length)) == merged


def test_prefix_walk_is_lexicographic_preorder():
    rng = np.random.default_rng(11)
    for _ in range(20):
        mode_count = int(rng.integers(2, 4))
        allowed = rng.random((mode_count, mode_count)) < 0.6
        auto = SwitchingAutomaton(mode_count, allowed=allowed,
                                  initial=set(rng.choice(mode_count, 2).tolist()))
        every = [s for L in range(1, 5) for s in itertools.product(range(mode_count), repeat=L)
                 if auto.is_admissible(s)]
        # tuple order puts each prefix right before its extensions
        assert list(prefixes(auto, 4, auto.initial)) == sorted(every)


def test_paths_do_not_recurse_per_mode():
    walk = list(prefixes(SwitchingAutomaton(1), 5000, [0]))
    assert len(walk) == 5000 and walk[-1] == (0,) * 5000
    with pytest.raises(ValueError, match="nonnegative"):
        list(prefixes(SwitchingAutomaton(1), -3, [0]))


def test_instantiate_constant_sigma_is_lti():
    rng = np.random.default_rng(1)
    taps = {((0,), k): rng.uniform(-1, 1, (2, 3)) for k in range(3)}
    fir = SwitchingFIR(1, 3, 3, 2, taps)
    op = instantiate(fir, (0,) * 6, 6)
    for t in range(6):
        for k in range(min(t, 2) + 1):
            assert np.array_equal(band_entry(op, t, k), taps[((0,), k)])


def test_instantiate_matches_direct_convolution():
    """Single sequences and a batch of them gather the taps the per-time
    loop of the dict oracle reads, bit for bit."""
    rng = np.random.default_rng(2)
    auto = SwitchingAutomaton(2)
    for _ in range(20):
        M = int(rng.integers(1, 3))
        N = int(rng.integers(1, 4))
        pad = int(rng.integers(0, 2))
        taps = {(h, k): rng.uniform(-1, 1, (2, 3))
                for h in histories(auto, M) for k in range(N)}
        fir = SwitchingFIR(M, N, 3, 2, taps)
        H = int(rng.integers(1, 9))
        sigmas = [auto.random_sequence(H, rng) for _ in range(4)]
        batch = unroll(instantiate(fir, sigmas, H, pad))
        for b, sigma in enumerate(sigmas):
            expected = dict_instantiate(fir, sigma, H, pad).unroll().tobytes()
            assert unroll(instantiate(fir, sigma, H, pad)).tobytes() == expected
            assert batch[b].tobytes() == expected


def test_instantiate_alternating_sigma_selects_current_mode_taps():
    rng = np.random.default_rng(6)
    taps = {((j,), k): rng.uniform(-1, 1, (3, 2)) for j in (0, 1) for k in range(5)}
    fir = SwitchingFIR(1, 5, 2, 3, taps)
    sigma = tuple((0, 1)[t % 2] for t in range(10))
    op = instantiate(fir, sigma, 10)
    for t in range(10):
        for k in range(min(t, 4) + 1):
            assert np.array_equal(band_entry(op, t, k), taps[((sigma[t],), k)])


def test_switching_fir_rejects_a_missing_lag():
    taps = {((0,), 0): np.eye(2), ((0,), 2): np.eye(2), ((1,), 0): np.eye(2)}
    with pytest.raises(ValueError, match=r"history \(0,\) is missing lag 1"):
        SwitchingFIR(1, 3, 2, 2, taps)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_switching_fir_rejects_non_finite_taps(bad):
    """A NaN tap never beats the running peak of the attack search, which
    then skipped every sequence through its window: on the demo plant, N=2
    taps zero but for a NaN lag-0 block of history (1,) made exhaustive and
    greedy H=4 report ((0, 0, 0, 0), 9.0).  The first bad key is named."""
    taps = {((j,), k): np.zeros((3, 2)) for j in (1, 0) for k in (1, 0)}
    taps[((1,), 1)][0, 0] = bad
    taps[((1,), 0)][2, 1] = bad
    with pytest.raises(ValueError, match=re.escape("coeff ((1,), 0) has non-finite entries")):
        SwitchingFIR(1, 2, 2, 3, taps)


def test_switching_fir_keeps_one_read_only_tap_table():
    rng = np.random.default_rng(7)
    taps = {((j,), k): rng.uniform(-1, 1, (3, 2)) for j in (1, 0) for k in (2, 0, 1)}
    fir = SwitchingFIR(1, 3, 2, 3, taps)
    assert fir.histories() == [(0,), (1,)]
    assert fir.taps.shape == (2, 3, 3, 2) and not fir.taps.flags.writeable
    for (hist, k), mat in taps.items():
        h = fir.history_ids(hist)
        assert np.array_equal(fir.taps[h, k], mat)
        assert np.shares_memory(fir.coeffs[(hist, k)], fir.taps)
        assert not np.shares_memory(mat, fir.taps)
    with pytest.raises(ValueError):
        fir.coeffs[((0,), 0)][0, 0] = 1.0


def test_tap_rejects_unknown_history_and_lag():
    fir = SwitchingFIR(1, 2, 2, 2, {((0,), 0): np.eye(2), ((0,), 1): 2 * np.eye(2)})
    for hist in ((1,), (0, 0)):
        with pytest.raises(KeyError):
            fir.history_ids(hist)


def test_instantiate_missing_history_is_hard_error():
    taps = {((0,), 0): np.eye(2)}
    fir = SwitchingFIR(1, 1, 2, 2, taps)
    with pytest.raises(KeyError):
        instantiate(fir, (0, 1, 0), 3)


def test_instantiate_causal_in_sigma():
    rng = np.random.default_rng(3)
    auto = SwitchingAutomaton(2)
    taps = {(h, k): rng.uniform(-1, 1, (2, 2))
            for h in histories(auto, 2) for k in range(3)}
    fir = SwitchingFIR(2, 3, 2, 2, taps)
    sigma_a = (0, 1, 0, 1, 0, 0)
    sigma_b = (0, 1, 0, 1, 1, 1)  # differs only at t >= 4
    op_a = instantiate(fir, sigma_a, 6)
    op_b = instantiate(fir, sigma_b, 6)
    for t in range(4):
        for k in range(t + 1):
            assert np.array_equal(band_entry(op_a, t, k), band_entry(op_b, t, k))


# lift_outputs exists as the dict oracle's reference copy, dict_lift_outputs
def test_lift_outputs_nominal_lti(switching_setup):
    model = switching_setup[1]
    Cbar, Dbar = dict_lift_outputs(model, (0,) * 4, 4)
    assert np.array_equal(Cbar.unroll(), dense_blockdiag([model.C[0]] * 4))
    assert np.array_equal(Dbar.unroll(), dense_blockdiag([model.D[0]] * 4))


def test_lift_outputs_attack_drops_second_row(switching_setup):
    model = switching_setup[1]
    Cbar, _ = dict_lift_outputs(model, (1,) * 5, 5)
    for t in range(5):
        assert np.all(Cbar.entry(t, 0)[1, :] == 0.0)


def test_lift_outputs_random_blockdiag_oracle():
    rng = np.random.default_rng(4)
    modes = [(rng.uniform(-1, 1, (2, 3)), rng.uniform(-1, 1, (2, 2))) for _ in range(3)]
    model = SwitchedOutputModel(np.array([C for C, _ in modes]), np.array([D for _, D in modes]))
    sigma = tuple(int(rng.integers(0, 3)) for _ in range(6))
    Cbar, Dbar = dict_lift_outputs(model, sigma, 6)
    assert np.array_equal(Cbar.unroll(), dense_blockdiag([model.C[j] for j in sigma]))
    assert np.array_equal(Dbar.unroll(), dense_blockdiag([model.D[j] for j in sigma]))


def test_lift_outputs_mode_out_of_range(switching_setup):
    """The mode check lift_outputs made, `_mode_array`'s, which factor_operators reads."""
    model = switching_setup[1]
    with pytest.raises(ValueError, match=r"^mode 2 at time 1 out of range$"):
        _mode_array(model, (0, 2), 2)


def test_broadcast_taps_copies_source():
    rng = np.random.default_rng(5)
    taps = {((0,), k): rng.uniform(-1, 1, (3, 2)) for k in range(2)}
    fir = SwitchingFIR(1, 2, 2, 3, taps)
    auto = SwitchingAutomaton(2)
    blind = broadcast_taps(fir, auto)
    for hist in ((0,), (1,)):
        for k in range(2):
            assert np.array_equal(blind.taps[blind.history_ids(hist), k], taps[((0,), k)])



def test_history_ids_match_tuple_dict_oracle():
    """history_ids against a tuple-keyed dict over every history_array window,
    for complete, restricted and padding != 0 automata, with batch shapes."""
    rng = np.random.default_rng(14)
    automata = [SwitchingAutomaton(2), SwitchingAutomaton(3, padding_mode=2),
                SwitchingAutomaton(2, allowed=[[True, True], [True, False]]),
                SwitchingAutomaton(3, allowed=[[True, False, True], [True, True, False],
                                               [False, True, True]],
                                   initial={1, 2}, padding_mode=1)]
    for auto in automata:
        for M in (1, 2, 3):
            windows = history_array(auto, M)
            fir = SwitchingFIR(M, 2, 1, 1, {(h, k): rng.uniform(-1, 1, (1, 1))
                                            for h in histories(auto, M) for k in range(2)})
            oracle = {hist: row for row, hist in enumerate(fir.histories())}
            expected = np.array([oracle[w] for w in map(tuple, windows.tolist())])
            assert np.array_equal(fir.history_ids(windows), expected)
            assert [fir.history_ids(w) for w in map(tuple, windows.tolist())] == expected.tolist()
            assert np.array_equal(fir.history_ids(windows[::-1, None, :]), expected[::-1, None])
            assert fir.history_ids(windows[:0]).shape == (0,)
            sigmas = np.array([auto.random_sequence(7, rng) for _ in range(3)])
            padded = np.concatenate([np.full((3, M - 1), auto.padding_mode), sigmas], axis=1)
            batch = np.lib.stride_tricks.sliding_window_view(padded, M, axis=-1)
            ids = fir.history_ids(batch)
            assert ids.shape == (3, 7)
            for b, sigma in enumerate(sigmas.tolist()):
                for t in range(7):
                    assert ids[b, t] == oracle[history_at(sigma, t, M, auto.padding_mode)]


def test_history_ids_reject_windows_without_taps():
    """An unknown window, a mode >= mode_count and a negative mode raise
    KeyError naming the first such window; a negative mode never wraps
    around to the last row."""
    auto = SwitchingAutomaton(2, allowed=[[True, True], [True, False]])
    fir = SwitchingFIR(2, 1, 1, 1, {(h, 0): np.eye(1) for h in histories(auto, 2)})
    assert fir.histories() == [(0, 0), (0, 1), (1, 0)]
    for window in ((1, 1), (0, 2), (2, 0), (0, -1), (1, -1), (-1, 0), (-1, -1), (0,), (0, 0, 0)):
        with pytest.raises(KeyError, match=re.escape(str(window))):
            fir.history_ids(window)
        if len(window) == 2:
            with pytest.raises(KeyError, match=re.escape(str(window))):
                fir.history_ids(np.array([[0, 0], window, [1, 1]]))
    with pytest.raises(KeyError):
        fir.history_ids(np.array([0, 0, 0]))
    single = SwitchingFIR(1, 1, 1, 1, {((0,), 0): np.eye(1), ((1,), 0): 2 * np.eye(1)})
    for window in ((-1,), (2,), (-2,)):
        with pytest.raises(KeyError):
            single.history_ids(window)
        with pytest.raises(KeyError):
            single.history_ids(np.array([window]))
    with pytest.raises(KeyError):
        instantiate(single, (0, -1, 1), 3)
    with pytest.raises(ValueError, match="nonnegative modes"):
        SwitchingFIR(1, 1, 1, 1, {((-1,), 0): np.eye(1)})

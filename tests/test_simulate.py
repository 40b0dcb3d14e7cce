import dataclasses
import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchguard import simulate
from switchguard.operator_core import Signal, apply
from switchguard.simulate import (Scenario, _ErrorKernel, attack_search, make_trace,
                                  run_fir_estimator, run_glo, simulate_plant, worst_case_inputs)
from switchguard.switched_model import (ChannelPlant, SwitchedOutputModel, SwitchingAutomaton,
                                        SwitchingFIR, broadcast_taps, build_modes, instantiate)
from switchguard.synthesis import (SynthesisConfig, SynthesisResult, certify, factor_operators,
                                   synthesize)
from util import (admissible_sequences, compose_chain_error_operator, error_operator,
                  factor_rows, loop_scan, per_sequence_attack_search, prefixes, random_signal,
                  reference_worst_case_inputs, resolvent_of_state, unroll, walk_search)

REFERENCE_INITIAL_STATE = np.array([0.1, 0.2, -0.1])


def random_problem(rng, n=2, m_w=2, p=2):
    A = rng.uniform(-1.2, 1.2, (n, n))
    B = rng.uniform(-1, 1, (n, m_w))
    channels = tuple((rng.uniform(-1, 1, (1, n)), rng.uniform(-1, 1, (1, m_w)))
                     for _ in range(p))
    plant = ChannelPlant(A=A, B=B, channels=channels, x0_bound=1.0)
    model = build_modes(plant, [set(range(1, p + 1))])
    return plant, model


def test_simulate_plant_zero_inputs(switching_setup):
    plant, model, _, _ = switching_setup
    scen = Scenario(sigma=(0,) * 6, w=Signal(np.zeros((6, 2))), x0=np.zeros(3), horizon=6)
    x, y = simulate_plant(plant, model, scen)
    assert x.norm() == 0.0 and y.norm() == 0.0


@pytest.mark.parametrize("mode", [-1, 2])
def test_simulate_plant_rejects_modes_out_of_range(mode, switching_setup):
    """Mode -1 would read the last mode's matrices, mode mode_count none."""
    plant, model, _, _ = switching_setup
    assert model.mode_count == 2
    scen = Scenario(sigma=(0, mode, 1), w=Signal(np.zeros((3, 2))), x0=np.zeros(3), horizon=3)
    with pytest.raises(ValueError, match=rf"^sigma mode {mode} at time 1 out of range"):
        simulate_plant(plant, model, scen)


def test_simulate_plant_hand_computed_first_steps(switching_setup):
    plant, model, _, _ = switching_setup
    x0 = REFERENCE_INITIAL_STATE
    scen = Scenario(sigma=(0,) * 4, w=Signal(np.zeros((4, 2))), x0=x0, horizon=4)
    x, y = simulate_plant(plant, model, scen)
    assert np.allclose(y.samples[0], [0.2, 0.1], atol=1e-12)
    assert np.allclose(x.samples[1], plant.A @ x0, atol=1e-12)
    assert np.allclose(x.samples[2], plant.A @ plant.A @ x0, atol=1e-12)


def test_simulate_plant_matches_operator_form():
    rng = np.random.default_rng(0)
    for _ in range(10):
        plant, model = random_problem(rng)
        H = 8
        w = random_signal(rng, H, plant.m_w)
        x0 = rng.uniform(-1, 1, plant.n)
        scen = Scenario(sigma=(0,) * H, w=w, x0=x0, horizon=H)
        x, y = simulate_plant(plant, model, scen)
        # x = (I - shift A)^{-1} (shift B w + embedded x0), as dense products
        x0_seq = np.zeros((H, plant.n))
        x0_seq[0] = x0
        forced = np.kron(np.eye(H, k=-1), plant.B) @ w.samples.reshape(-1) + x0_seq.reshape(-1)
        x_op = unroll(resolvent_of_state(plant.A, H)) @ forced
        assert np.allclose(x.samples.reshape(-1), x_op, atol=1e-9)
        y_op = (np.kron(np.eye(H), model.C[0]) @ x_op
                + np.kron(np.eye(H), model.D[0]) @ w.samples.reshape(-1))
        assert np.allclose(y.samples.reshape(-1), y_op, atol=1e-9)


def test_simulate_plant_x0_injection_time(switching_setup):
    plant, model, _, _ = switching_setup
    x0 = np.array([0.3, -0.2, 0.1])
    scen = Scenario(sigma=(0,) * 6, w=Signal(np.zeros((6, 2))), x0=x0,
                    horizon=6, x0_time=2)
    x, _ = simulate_plant(plant, model, scen)
    assert np.all(x.samples[:2] == 0.0)
    assert np.allclose(x.samples[2], x0, atol=0)
    assert np.allclose(x.samples[3], plant.A @ x0, atol=1e-12)


def test_fir_estimator_identity_tap():
    rng = np.random.default_rng(1)
    T = SwitchingFIR(1, 1, 2, 2, {((0,), 0): np.eye(2)})
    y = random_signal(rng, 5, 2)
    out = run_fir_estimator(T, y, (0,) * 5)
    assert np.array_equal(out.samples, y.samples)


def test_fir_estimator_matches_instantiate(switching_synthesis, switching_setup):
    result, _ = switching_synthesis
    plant, model, automaton, _ = switching_setup
    rng = np.random.default_rng(2)
    H = 12
    sigma = automaton.random_sequence(H, rng)
    y = random_signal(rng, H, model.p)
    direct = run_fir_estimator(result.T, y, sigma)
    via_op = apply(instantiate(result.T, sigma, H), y)
    assert np.allclose(direct.samples, via_op.samples, atol=1e-12)


def test_fir_estimator_attack_uses_first_channel_only(switching_synthesis, switching_setup):
    result, _ = switching_synthesis
    plant, model, _, _ = switching_setup
    rng = np.random.default_rng(3)
    H = 10
    sigma = (1,) * H
    y = random_signal(rng, H, model.p)
    xh = run_fir_estimator(result.T, y, sigma)
    manual = np.zeros((H, 3))
    for t in range(H):
        for k in range(min(t, 4) + 1):
            tap = result.T.taps[result.T.history_ids((1,)), k]
            manual[t] += tap[:, 0] * y.samples[t - k, 0] + tap[:, 1] * y.samples[t - k, 1]
    assert np.allclose(xh.samples, manual, atol=1e-12)
    # under the drop, taps on the second channel multiply a zero signal:
    _, y_att = simulate_plant(plant, model,
                              Scenario(sigma=sigma, w=random_signal(rng, H, 2),
                                       x0=rng.uniform(-1, 1, 3), horizon=H))
    assert np.all(y_att.samples[:, 1] == 0.0)


def test_glo_reduces_to_classical_observer():
    rng = np.random.default_rng(4)
    plant, model = random_problem(rng, n=2, m_w=1, p=2)
    Z0 = rng.uniform(-0.3, 0.3, (2, 2))
    Q = SwitchingFIR(1, 1, 2, 2, {((0,), 0): np.zeros((2, 2))})
    Z = SwitchingFIR(1, 1, 2, 2, {((0,), 0): Z0})
    H = 10
    w = random_signal(rng, H, 1)
    scen = Scenario(sigma=(0,) * H, w=w, x0=rng.uniform(-1, 1, 2), horizon=H)
    _, y = simulate_plant(plant, model, scen)
    xh = run_glo(Q, Z, plant, model, y, scen.sigma)
    # classical static-gain recursion with the lag-0 loop solved each step
    C = model.C[0]
    expected = np.zeros((H, 2))
    for t in range(H):
        rhs = (plant.A @ expected[t - 1] if t >= 1 else np.zeros(2)) - Z0 @ y.samples[t]
        expected[t] = np.linalg.solve(np.eye(2) - Z0 @ C, rhs)
    assert np.allclose(xh.samples, expected, atol=1e-9)


def test_glo_matches_fir_for_exact_factors(switching_synthesis, switching_setup):
    result, _ = switching_synthesis
    plant, model, automaton, _ = switching_setup
    rng = np.random.default_rng(5)
    for _ in range(10):
        H = 15
        sigma = automaton.random_sequence(H, rng)
        w = random_signal(rng, H, 2)
        scen = Scenario(sigma=sigma, w=w, x0=rng.uniform(-1, 1, 3), horizon=H)
        _, y = simulate_plant(plant, model, scen)
        xh_fir = run_fir_estimator(result.T, y, sigma)
        xh_glo = run_glo(result.Q, result.Z, plant, model, y, sigma)
        assert np.allclose(xh_fir.samples, xh_glo.samples, atol=1e-9)


def test_glo_singular_solve_reports_history():
    plant, model = random_problem(np.random.default_rng(6))
    # Z0 C - Q0 = I makes the lag-0 solve matrix exactly singular
    Q = SwitchingFIR(1, 1, 2, 2, {((0,), 0): -np.eye(2)})
    Z = SwitchingFIR(1, 1, 2, 2, {((0,), 0): np.zeros((2, 2))})
    y = Signal(np.zeros((3, 2)))
    with pytest.raises(np.linalg.LinAlgError, match=r"\(0,\)"):
        run_glo(Q, Z, plant, model, y, (0, 0, 0))


def test_glo_lag0_check_is_scale_free():
    rng = np.random.default_rng(7)
    plant, model = random_problem(rng, n=3, m_w=1, p=2)
    Z0 = rng.uniform(-1, 1, (3, 2))
    for solve_mat, singular in ((1e-5 * np.eye(3), False),
                                (np.arange(1.0, 10.0).reshape(3, 3), True)):
        # the lag-0 solve matrix is I - (Z0 C - Q0) = solve_mat
        Q = SwitchingFIR(1, 1, 3, 3, {((0,), 0): solve_mat - np.eye(3) + Z0 @ model.C[0]})
        Z = SwitchingFIR(1, 1, 2, 3, {((0,), 0): Z0})
        y = Signal(rng.uniform(-1, 1, (1, 2)))
        if singular:
            with pytest.raises(np.linalg.LinAlgError):
                run_glo(Q, Z, plant, model, y, (0,))
        else:
            xh = run_glo(Q, Z, plant, model, y, (0,))
            # forming I - (Z0 C - Q0) cancels O(1) terms: about 1e-11 relative error
            assert np.allclose(xh.samples[0], np.linalg.solve(solve_mat, -Z0 @ y.samples[0]),
                               rtol=1e-8, atol=0)


def test_relaxed_traces_stay_below_certified_bound(nominal_setup):
    plant, model, automaton, _ = nominal_setup
    cfg = SynthesisConfig(memory=1, fir_length=2, mode="relaxed", eps_bar=0.5)
    result = synthesize(plant, model, automaton, cfg)
    rng = np.random.default_rng(7)
    H = 15
    for _ in range(30):
        w = random_signal(rng, H, 2)
        x0 = rng.uniform(-1, 1, 3)
        scen = Scenario(sigma=(0,) * H, w=w, x0=x0, horizon=H)
        trace = make_trace(plant, model, result, scen)
        level = max(w.norm(), float(np.max(np.abs(x0))))
        assert trace.sup_error <= result.certified_bound * level * (1 + 1e-6)


def test_worst_case_zero_noise_channels():
    plant = ChannelPlant(A=np.array([[0.5]]), B=np.zeros((1, 1)),
                         channels=((np.array([[1.0]]), np.zeros((1, 1))),),
                         x0_bound=0.0)
    model = build_modes(plant, [{1}])
    T = SwitchingFIR(1, 1, 1, 1, {((0,), 0): np.array([[1.0]])})
    scen, value = worst_case_inputs(plant, model, T, (0,) * 8, 8)
    assert value == 0.0
    trace = make_trace(plant, model, T, scen)
    assert trace.sup_error == 0.0


def test_worst_case_witness_self_consistency_random():
    rng = np.random.default_rng(8)
    for _ in range(10):
        plant, model = random_problem(rng)
        taps = {((0,), k): rng.uniform(-0.5, 0.5, (plant.n, model.p)) for k in range(3)}
        T = SwitchingFIR(1, 3, model.p, plant.n, taps)
        H = 10
        scen, value = worst_case_inputs(plant, model, T, (0,) * H, H)
        trace = make_trace(plant, model, T, scen)
        assert np.isclose(trace.sup_error, value, atol=1e-9)


def test_worst_case_attains_gamma_on_nominal(nominal_synthesis, nominal_setup):
    result, _ = nominal_synthesis
    plant, model, _, _ = nominal_setup
    scen, value = worst_case_inputs(plant, model, result, (0,) * 12, 12)
    assert np.isclose(value, result.gamma_bar, atol=1e-6)
    trace = make_trace(plant, model, result, scen)
    assert np.isclose(trace.sup_error, result.gamma_bar, atol=1e-6)


def test_attack_search_single_mode(nominal_synthesis, nominal_setup):
    result, _ = nominal_synthesis
    plant, model, automaton, _ = nominal_setup
    sigma, value = attack_search(plant, model, result, automaton, 10)
    assert sigma == (0,) * 10
    assert np.isclose(value, result.gamma_bar, atol=1e-6)


def test_attack_exhaustive_dominates_greedy(switching_synthesis, switching_setup):
    result, _ = switching_synthesis
    plant, model, automaton, _ = switching_setup
    sig_ex, val_ex = attack_search(plant, model, result, automaton, 8, "exhaustive")
    sig_gr, val_gr = attack_search(plant, model, result, automaton, 8, "greedy")
    assert val_ex >= val_gr - 1e-12
    assert val_ex <= result.gamma_bar + 1e-9
    assert automaton.is_admissible(sig_ex) and automaton.is_admissible(sig_gr)


def test_attack_exhaustive_cap():
    """Relaxed factors are searched by the prefix walk, which enumerates 2^25 sequences."""
    plant, model = random_problem(np.random.default_rng(9))
    model2 = build_modes(plant, [{1, 2}, {1}])
    automaton = SwitchingAutomaton(2)

    def zero(in_dim):
        return SwitchingFIR(1, 1, in_dim, plant.n,
                            {((j,), 0): np.zeros((plant.n, in_dim)) for j in (0, 1)})

    relaxed = SynthesisResult(gamma_bar=1.0, eps_achieved=0.5, certified_bound=2.0,
                              Q=zero(plant.n), Z=zero(model2.p), T=zero(model2.p),
                              status="optimal", mode="relaxed", lag0_margin=1.0)
    with pytest.raises(ValueError, match="2\\^20"):
        attack_search(plant, model2, relaxed, automaton, 25, "exhaustive")


def test_relaxed_cap_counts_admissible_prefixes(search_designs, switching_setup, monkeypatch):
    """With no two attacked steps in a row, 144 of the 2^10 sequences of
    10 modes are admissible: a cap of 200 lets the search run and find the
    walk's answer, and a cap of 143 stops it at the 10-mode layer."""
    plant, model, _, _ = switching_setup
    design = search_designs["relaxed"]
    automaton = SwitchingAutomaton(2, allowed=[[1, 1], [1, 0]])
    assert len(admissible_sequences(automaton, 10)) == 144
    kernel = _ErrorKernel(plant, model, design, automaton.padding_mode, 10)
    sigma, value = walk_search(kernel, automaton, 10)
    monkeypatch.setattr(simulate, "_CAP", 200)
    found = attack_search(plant, model, design, automaton, 10)
    assert (found[0], found[1].hex()) == (sigma, value.hex())
    monkeypatch.setattr(simulate, "_CAP", 143)
    with pytest.raises(ValueError, match="144 admissible prefixes of 10 modes"):
        attack_search(plant, model, design, automaton, 10)


def test_relaxed_rows_with_vanishing_resolvent_lags():
    """A = 0, zero Q and a lag-0 Z leave the resolvent only its lag-0 block,
    so block row t keeps the min(t, N) + 1 lags of the performance row: the
    length `worst_case_inputs` writes w over, which unrolled operators
    cannot show."""
    plant, _ = random_problem(np.random.default_rng(12))
    plant = dataclasses.replace(plant, A=np.zeros((plant.n, plant.n)))
    model = build_modes(plant, [{1, 2}, {1}])
    automaton = SwitchingAutomaton(2)
    rng = np.random.default_rng(13)
    N, hists = 3, [(0,), (1,)]
    z_taps = {(h, k): (rng.uniform(-1, 1, (plant.n, model.p)) if k == 0
                       else np.zeros((plant.n, model.p))) for h in hists for k in range(N)}
    Q = SwitchingFIR(1, N, plant.n, plant.n,
                     {(h, k): np.zeros((plant.n, plant.n)) for h in hists for k in range(N)})
    Z = SwitchingFIR(1, N, model.p, plant.n, z_taps)
    T = SwitchingFIR(1, N, model.p, plant.n, {key: -tap for key, tap in z_taps.items()})
    design = SynthesisResult(gamma_bar=1.0, eps_achieved=0.5, certified_bound=2.0,
                             Q=Q, Z=Z, T=T, status="optimal", mode="relaxed",
                             lag0_margin=1.0)
    H = 6
    kernel = _ErrorKernel(plant, model, design, automaton.padding_mode, H)
    for sigma in admissible_sequences(automaton, H):
        assert [len(row) for row in kernel.rows(sigma)] == [1, 2, 3, 4, 4, 4]
        E_ref = compose_chain_error_operator(plant, model, design, sigma, H)
        assert np.array_equal(unroll(error_operator(plant, model, design, sigma, H)),
                              E_ref.unroll())
    for strategy, H in (("exhaustive", 6), ("greedy", 6), ("greedy", 12)):
        assert attack_search(plant, model, design, automaton, H, strategy) == \
            per_sequence_attack_search(plant, model, design, automaton, H, strategy)


def test_error_operator_matches_factor_path(switching_synthesis, switching_setup):
    # exact factors: the plain-estimator formula and the factor formula agree
    result, _ = switching_synthesis
    plant, model, automaton, _ = switching_setup
    rng = np.random.default_rng(10)
    H = 10
    sigma = automaton.random_sequence(H, rng)
    E_fact = error_operator(plant, model, result, sigma, H)
    E_est = error_operator(plant, model, result.T, sigma, H)
    assert np.allclose(unroll(E_fact), unroll(E_est), atol=1e-8)


def test_scenario_validation(switching_setup):
    plant, _, automaton, _ = switching_setup
    scen = Scenario(sigma=(0, 0), w=Signal(np.zeros((2, 2))), x0=np.zeros(3), horizon=2)
    scen.validate(plant, automaton)
    bad = Scenario(sigma=(0, 0), w=Signal(np.zeros((2, 2))), x0=2.5 * np.ones(3), horizon=2)
    with pytest.raises(ValueError, match="bound"):
        bad.validate(plant)
    for entry in (np.nan, np.inf, -np.inf):
        bad = Scenario(sigma=(0, 0), w=Signal(np.zeros((2, 2))), x0=[0.0, entry, 0.0], horizon=2)
        with pytest.raises(ValueError, match="^x0 entries must be finite"):
            bad.validate(plant)
    # the bound's slack is relative: at a bound of 1e-20 the bound itself
    # passes, and 5e-13 (inside an absolute 1e-12 slack) does not
    tiny = dataclasses.replace(plant, x0_bound=1e-20)
    for entry, ok in ((1e-20, True), (-1e-20, True), (1.1e-20, False), (5e-13, False)):
        scen = Scenario(sigma=(0, 0), w=Signal(np.zeros((2, 2))), x0=[0.0, entry, 0.0], horizon=2)
        if ok:
            scen.validate(tiny, automaton)
        else:
            with pytest.raises(ValueError, match="^x0 exceeds"):
                scen.validate(tiny, automaton)
    with pytest.raises(ValueError):
        Scenario(sigma=(0,), w=Signal(np.zeros((2, 2))), x0=np.zeros(3), horizon=2)


@pytest.fixture(scope="module")
def search_designs(switching_synthesis, nominal_synthesis, switching_setup):
    """Exact, relaxed (resolvent branch) and blind designs for the demo model,
    the exact design's N=5 taps run as a plain FIR (sums of up to five
    products), the demo's memory-2 N=4 synthesis, and random memory-3 N=2 FIR
    taps and exact and relaxed factors, whose tap history reaches further
    back than their lags."""
    plant, model, automaton, config = switching_setup
    relaxed = synthesize(plant, model, automaton,
                         dataclasses.replace(config, mode="relaxed", eps_bar=0.1))
    assert relaxed.eps_achieved > 1e-9
    memory2 = synthesize(plant, model, automaton,
                         dataclasses.replace(config, memory=2, fir_length=4))
    assert memory2.eps_achieved <= 1e-9
    # the oldest mode of the tap history scales the taps, so a search that
    # keyed rows on fewer modes than the history would misvalue sequences
    rng = np.random.default_rng(11)
    long_memory = SwitchingFIR(3, 2, model.p, plant.n, {
        (hist, k): (1 + 2 * hist[0]) * rng.uniform(-1, 1, (plant.n, model.p))
        for hist in itertools.product(range(2), repeat=3) for k in range(2)})

    def long_memory_taps(out_dim, in_dim):
        return {(hist, k): (1 + 2 * hist[0]) * rng.uniform(-0.5, 0.5, (out_dim, in_dim))
                for hist in itertools.product(range(2), repeat=3) for k in range(2)}

    # random factors, not a solution of the LP: the demo LP is infeasible at
    # M=3 N=2, and the kernel reads eps_achieved 0 as exact rows
    z_taps = long_memory_taps(plant.n, model.p)
    long_memory_exact = SynthesisResult(
        gamma_bar=1.0, eps_achieved=0.0, certified_bound=1.0,
        Q=SwitchingFIR(3, 2, plant.n, plant.n, long_memory_taps(plant.n, plant.n)),
        Z=SwitchingFIR(3, 2, model.p, plant.n, z_taps),
        T=SwitchingFIR(3, 2, model.p, plant.n, {key: -tap for key, tap in z_taps.items()}),
        status="optimal", mode="exact", lag0_margin=1.0)
    z_taps = long_memory_taps(plant.n, model.p)
    long_memory_relaxed = SynthesisResult(
        gamma_bar=1.0, eps_achieved=0.5, certified_bound=2.0,
        Q=SwitchingFIR(3, 2, plant.n, plant.n, long_memory_taps(plant.n, plant.n)),
        Z=SwitchingFIR(3, 2, model.p, plant.n, z_taps),
        T=SwitchingFIR(3, 2, model.p, plant.n, {key: -tap for key, tap in z_taps.items()}),
        status="optimal", mode="relaxed", lag0_margin=1.0)
    return {"exact": switching_synthesis[0], "relaxed": relaxed,
            "blind": nominal_synthesis[0].T, "fir": switching_synthesis[0].T,
            "memory2": memory2, "fir_m3n2": long_memory, "exact_m3n2": long_memory_exact,
            "relaxed_m3n2": long_memory_relaxed}


# The modes a row's window part reads: max(tap memory, FIR length); a relaxed
# row reads the prefix only through the rows before it.
SEARCH_WINDOWS = {"exact": 5, "blind": 2, "fir": 5, "memory2": 4, "fir_m3n2": 3,
                  "exact_m3n2": 3, "relaxed": 5, "relaxed_m3n2": 3}


def _padded_windows(prefixes, window, pad):
    """The window of every prefix's last state, its last `window` modes
    padded in front with `pad`: the key of the lag table its row reads."""
    return {((pad,) * window + tuple(p))[-window:] for p in prefixes}


def _states(prefixes, window, exact):
    """The (t, last `window` modes) state of every prefix's last mode, with t
    capped at `window` for an exact design, whose rows from there on read
    the window alone."""
    return {(min(len(p) - 1, window) if exact else len(p) - 1,
             p[max(0, len(p) - window):]) for p in prefixes}


def _search_automata(complete):
    """The demo automaton plus live two-mode automata with `initial` a strict
    subset and padding mode 1, drawn as in test_walker_matches_brute_force."""
    found = [complete]
    rng = np.random.default_rng(7)
    while len(found) < 4:
        allowed = rng.random((2, 2)) < 0.6
        if allowed.any(axis=1).all():
            found.append(SwitchingAutomaton(2, allowed=allowed,
                                            initial={int(rng.integers(2))}, padding_mode=1))
    return found


def _design_for(designs, name, automaton):
    if name == "blind":
        return broadcast_taps(designs["blind"], automaton, source_history=(0,))
    return designs[name]


@pytest.mark.parametrize("name", ["exact", "relaxed", "blind", "fir", "exact_m3n2",
                                  "relaxed_m3n2"])
def test_row_kernel_matches_compose_chain(search_designs, switching_setup, name):
    plant, model, complete, _ = switching_setup
    H = 8
    for automaton in _search_automata(complete):
        design = _design_for(search_designs, name, automaton)
        pad = automaton.padding_mode
        for sigma in admissible_sequences(automaton, H):
            E_ref = compose_chain_error_operator(plant, model, design, sigma, H, pad)
            assert np.array_equal(unroll(error_operator(plant, model, design, sigma, H, pad)),
                                  E_ref.unroll())
            scen, value = worst_case_inputs(plant, model, design, sigma, H, pad)
            scen_ref, value_ref = reference_worst_case_inputs(plant, E_ref, sigma)
            assert value == value_ref
            assert (scen.sigma, scen.x0_time) == (scen_ref.sigma, scen_ref.x0_time)
            assert np.array_equal(scen.w.samples, scen_ref.w.samples)
            assert np.array_equal(scen.x0, scen_ref.x0)


@pytest.mark.parametrize("name", ["exact", "relaxed", "blind", "fir", "exact_m3n2",
                                  "relaxed_m3n2"])
def test_prefix_tree_search_matches_per_sequence_search(search_designs, switching_setup,
                                                        name):
    plant, model, complete, _ = switching_setup
    for automaton in _search_automata(complete):
        design = _design_for(search_designs, name, automaton)
        for strategy, H in (("exhaustive", 8), ("greedy", 8), ("greedy", 30)):
            found = attack_search(plant, model, design, automaton, H, strategy)
            assert found == per_sequence_attack_search(plant, model, design, automaton, H,
                                                       strategy)
        kernel = _ErrorKernel(plant, model, design, automaton.padding_mode, 8)
        assert walk_search(kernel, automaton, 8) == \
            per_sequence_attack_search(plant, model, design, automaton, 8)


@pytest.mark.parametrize("name, horizons", [("relaxed", range(1, 14)),
                                            ("relaxed_m3n2", range(1, 11))])
def test_batched_relaxed_search_matches_walk(search_designs, switching_setup, name, horizons,
                                            monkeypatch):
    """sigma and value.hex() of the relaxed search equal the depth-first
    walk's at batches of 1, 2, 3 and the default number of prefixes, also
    where mode 1 is a dead end, where every path dies after two modes and
    where no mode may start."""
    plant, model, complete, _ = switching_setup
    design = search_designs[name]
    automata = [complete] if name == "relaxed" else _search_automata(complete) + [
        SwitchingAutomaton(2, allowed=[[True, True], [False, False]]),
        SwitchingAutomaton(2, allowed=[[False, True], [False, False]], initial={0}),
        SwitchingAutomaton(2, initial=())]
    for automaton in automata:
        for H in horizons:
            kernel = _ErrorKernel(plant, model, design, automaton.padding_mode, H)
            sigma, value = walk_search(kernel, automaton, H)
            for batch in (1, 2, 3, simulate._BATCH):
                with monkeypatch.context() as patch:
                    patch.setattr(simulate, "_BATCH", batch)
                    found = attack_search(plant, model, design, automaton, H)
                assert (found[0], found[1].hex()) == (sigma, value.hex())


@pytest.mark.parametrize("name", ["memory2", "fir_m3n2", "exact", "blind", "exact_m3n2",
                                  "relaxed_m3n2"])
def test_window_cached_search_matches_per_sequence_search(search_designs, switching_setup,
                                                          name):
    """Three steps past the window, tables built for one prefix are read by others."""
    plant, model, complete, _ = switching_setup
    H = SEARCH_WINDOWS[name] + 3
    for automaton in _search_automata(complete):
        design = _design_for(search_designs, name, automaton)
        assert attack_search(plant, model, design, automaton, H) == \
            per_sequence_attack_search(plant, model, design, automaton, H)


def test_relaxed_demo_attacks_are_pinned(search_designs, switching_setup):
    """The relaxed demo design's attacks, which no benchmark gate covers."""
    plant, model, automaton, _ = switching_setup
    relaxed = search_designs["relaxed"]
    assert attack_search(plant, model, relaxed, automaton, 10) == \
        ((0, 0, 0, 0, 1, 1, 0, 0, 1, 1), 25.541406250000037)
    assert attack_search(plant, model, relaxed, automaton, 60, "greedy") == \
        ((0, 0) + (1,) * 8 + (0,) * 50, 25.54140625)
    _, value = worst_case_inputs(plant, model, relaxed, (0, 1) * 100, 200,
                                 automaton.padding_mode)
    assert value.hex() == "0x1.98a999999998cp+4"


def test_greedy_relaxed_attack_keeps_only_the_rows_it_reads(search_designs, switching_setup):
    """Greedy on the relaxed demo design at H=256 keeps the resolvent rows of
    the last N times only: the attack is pinned, and the traced peak stays
    below the 5.5 MB that keeping every resolvent row takes."""
    plant, model, automaton, _ = switching_setup
    tracemalloc.start()
    try:
        sigma, value = attack_search(plant, model, search_designs["relaxed"], automaton, 256,
                                     "greedy")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sigma == (0, 0) + (1,) * 8 + (0,) * 246
    assert value.hex() == "0x1.98a999999999ap+4"
    assert peak < 2e6


def test_relaxed_singular_lag0_block_is_reported_at_its_time(switching_setup, monkeypatch):
    """Z_0 = e_1 e_0^T at history (1,) and Q = 0 make I - E's lag-0 block
    I - Z_0 C^1 singular wherever mode 1 is delivered: every search and
    witness raises at the first such time it reads.  The exhaustive search
    reads both one-mode prefixes in its first batch, and with one prefix per
    batch walks depth first to (0, 0, 0, 0, 1)."""
    plant, model, automaton, _ = switching_setup
    hists, N = [(0,), (1,)], 2
    z_taps = {(h, k): np.zeros((plant.n, model.p)) for h in hists for k in range(N)}
    z_taps[(1,), 0][1, 0] = 1.0
    z_taps[(0,), 1][0, 1] = 0.3
    design = SynthesisResult(
        gamma_bar=1.0, eps_achieved=0.5, certified_bound=2.0,
        Q=SwitchingFIR(1, N, plant.n, plant.n,
                       {(h, k): np.zeros((plant.n, plant.n)) for h in hists for k in range(N)}),
        Z=SwitchingFIR(1, N, model.p, plant.n, z_taps),
        T=SwitchingFIR(1, N, model.p, plant.n, {key: -tap for key, tap in z_taps.items()}),
        status="optimal", mode="relaxed", lag0_margin=1.0)
    pad = automaton.padding_mode

    def exhaustive_by_one():
        monkeypatch.setattr(simulate, "_BATCH", 1)
        return attack_search(plant, model, design, automaton, 5)

    for search, t in ((lambda: attack_search(plant, model, design, automaton, 5), 0),
                      (exhaustive_by_one, 4),
                      (lambda: attack_search(plant, model, design, automaton, 5, "greedy"), 0),
                      (lambda: error_operator(plant, model, design, (0, 0, 1, 0), 4, pad), 2),
                      (lambda: worst_case_inputs(plant, model, design, (0, 0, 0, 1), 4, pad), 3)):
        with pytest.raises(np.linalg.LinAlgError, match=f"^lag-0 block at time {t} is singular$"):
            search()


def _record_kernel(monkeypatch):
    """Patch `_ErrorKernel` to record the padded windows whose tables it
    builds, the (t, padded window) of every relaxed row it builds, one per
    prefix of a batch, and every row's values a search reads: (kernel, t,
    window, values)."""
    record = SimpleNamespace(tables=[], rows=[], reads=[])
    build, relaxed_rows, values = (_ErrorKernel._build, _ErrorKernel.relaxed_rows,
                                   _ErrorKernel.values)

    def built(kernel, t, windows):
        record.tables.extend(windows)
        return build(kernel, t, windows)

    def rowed(kernel, tables, t, past):
        for table in tables:
            [window] = [key for key, found in kernel.tables.items() if found is table]
            record.rows.append((t, window))
        return relaxed_rows(kernel, tables, t, past)

    def read(kernel, t, windows):
        found = values(kernel, t, windows)
        record.reads.extend((kernel, t, window, row_values)
                            for window, row_values in zip(windows, found))
        return found

    for name, fn in (("_build", built), ("relaxed_rows", rowed), ("values", read)):
        monkeypatch.setattr(_ErrorKernel, name, fn)
    return record


def _clear(record):
    for found in vars(record).values():
        del found[:]


def _row_alone(kernel, t, modes):
    """Row t of an exact or FIR design along a sequence ending in `modes`,
    built by itself at t from that one sequence, outside every table."""
    length = max(t + 1, kernel.window)
    sigma = np.array([(kernel.pad,) * (length - len(modes)) + tuple(modes)], dtype=np.intp)
    if kernel.kind == "fir":
        return kernel._fir_row(sigma, t)[0]
    return -1.0 * factor_rows(kernel.plant, kernel.model, kernel.Q, kernel.Z, sigma, t)[1][0]


def _assert_reads_match_rows(reads):
    """Every value read is, bit for bit, that of the row built alone."""
    for kernel, t, modes, values in reads:
        assert repr(values) == repr(kernel.row_values(_row_alone(kernel, t, modes)).tolist())


def _assert_built_once(record, prefixes, window, pad):
    """The lag table of each padded window of the prefixes' last states is
    built once, and no other table is built."""
    assert len(set(record.tables)) == len(record.tables)
    assert set(record.tables) == _padded_windows(prefixes, window, pad)


@pytest.mark.parametrize("name", ["memory2", "fir_m3n2", "exact", "blind", "fir", "exact_m3n2",
                                  "relaxed"])
def test_exhaustive_search_builds_each_window_row_once(search_designs, switching_setup,
                                                       name, monkeypatch):
    """The state search builds each window's table once, reads the values
    of one row per state (an exact design's layers past the window repeat)
    and only values of rows built alone; the relaxed search builds each
    window's table once and one row per node, from the table of the node's
    padded window, each layer's nodes in lexicographic order."""
    plant, model, complete, _ = switching_setup
    window = SEARCH_WINDOWS[name]
    record = _record_kernel(monkeypatch)
    H = window + 2
    for automaton in _search_automata(complete):
        design = _design_for(search_designs, name, automaton)
        _clear(record)
        attack_search(plant, model, design, automaton, H)
        nodes = list(prefixes(automaton, H, automaton.initial))
        _assert_built_once(record, nodes, window, automaton.padding_mode)
        if name == "relaxed":
            pad = automaton.padding_mode
            for t in range(H):
                assert [found for s, found in record.rows if s == t] == \
                    [_padded_windows([p], window, pad).pop() for p in nodes if len(p) == t + 1]
            assert len(record.rows) == len(nodes)
            assert record.reads == []
            continue
        exact = isinstance(design, SynthesisResult)
        assert {(min(t, window) if exact else t, modes)
                for _, t, modes, _ in record.reads} == _states(nodes, window, exact)
        _assert_reads_match_rows(record.reads)
        if automaton is complete:
            assert len(record.tables) < len(nodes)


@pytest.mark.parametrize("name", ["exact", "memory2", "fir_m3n2", "blind", "fir", "exact_m3n2",
                                  "relaxed_m3n2"])
def test_greedy_and_walk_build_each_window_row_once(search_designs, switching_setup, name,
                                                    monkeypatch):
    """Greedy search and the prefix walk read the kernel's tables: each
    window's table is built at most once, only for the prefixes they visit,
    and each value read is that of the row built alone."""
    plant, model, complete, _ = switching_setup
    window = SEARCH_WINDOWS[name]
    record = _record_kernel(monkeypatch)
    for automaton in _search_automata(complete):
        design = _design_for(search_designs, name, automaton)
        H = window + 3
        _clear(record)
        kernel = _ErrorKernel(plant, model, design, automaton.padding_mode, H)
        walked = walk_search(kernel, automaton, H)
        walk_record = SimpleNamespace(**{key: found[:] for key, found in vars(record).items()})
        assert walked == attack_search(plant, model, design, automaton, H)
        nodes = list(prefixes(automaton, H, automaton.initial))
        _assert_built_once(walk_record, nodes, window, automaton.padding_mode)
        _assert_reads_match_rows(walk_record.reads)
        for H in (window + 3, 30):
            _clear(record)
            sigma, _ = attack_search(plant, model, design, automaton, H, "greedy")
            candidates = [sigma[:t] + (b,) for t in range(H)
                          for b in automaton.successors(sigma[t - 1] if t else None)]
            _assert_built_once(record, candidates, window, automaton.padding_mode)
            _assert_reads_match_rows(record.reads)
            if H == 30:
                assert len(record.tables) < len(candidates)


@pytest.mark.parametrize("horizon", [0, -3])
def test_attack_search_rejects_nonpositive_horizon(nominal_synthesis, nominal_setup, horizon):
    """So do `error_operator` and `worst_case_inputs`."""
    result, _ = nominal_synthesis
    plant, model, automaton, _ = nominal_setup
    for strategy in ("exhaustive", "greedy"):
        with pytest.raises(ValueError, match="horizon"):
            attack_search(plant, model, result, automaton, horizon, strategy)
    for build in (error_operator, worst_case_inputs):
        with pytest.raises(ValueError, match="^horizon must be positive$"):
            build(plant, model, result, (0,) * 4, horizon)


def test_scan_matches_loop_scan_on_stress_searches(stress_state, perfbench_workloads,
                                                   monkeypatch):
    """Every value the four `stress` searches read is, per output row, the
    per-lag loop's value over the row built alone, and every greedy fold
    gives the loop's peak over the row of the values it folds."""
    plant, model, automaton = stress_state.problem
    record = _record_kernel(monkeypatch)
    fold, folds = simulate._fold, []  # per fold: (values, peak before, peak after)
    monkeypatch.setattr(simulate, "_fold", lambda values, peak: folds.append(
        (values, peak, fold(values, peak))) or folds[-1][2])
    built, folded = {}, 0  # per search, the tables it built
    for name, design, strategy, horizon in perfbench_workloads.ATTACKS:
        _clear(record)
        del folds[:]
        found = attack_search(plant, model, stress_state.designs[design], automaton, horizon,
                              strategy)
        assert perfbench_workloads.check_attack(stress_state.expected[name], None, found) == []
        built[name] = len(record.tables)
        for kernel, t, modes, values in record.reads:
            row = _row_alone(kernel, t, modes)
            for i, value in enumerate(values):
                output_row = [(k, mat[i:i + 1]) for k, mat in enumerate(row)]
                scan = loop_scan(output_row, 0, (-1.0, 0, 0, 0), 1, kernel.m_w, kernel.bound)
                assert scan[:3] == (value, 0, 0)
        # greedy folds each candidate's values right after the step reads them
        assert len(folds) == (len(record.reads) if strategy == "greedy" else 0)
        for (kernel, t, modes, read), (values, peak, after) in zip(record.reads, folds):
            assert values == read
            row = list(enumerate(_row_alone(kernel, t, modes)))
            assert after == loop_scan(row, t, (peak, 0, 0, 0), kernel.n, kernel.m_w,
                                      kernel.bound)[0]
        folded += len(folds)
    # two candidates per greedy step; the state search folds no row
    assert folded == 2 * 60 + 2 * 30
    # the H=10 state searches read one row's values per reachable state, 94
    # of the resilient design (window 5; its layers repeat from t = 6 on) and
    # 38 of the blind FIR (window 2), from one table per padded window: all
    # 32 and 4 windows; greedy builds the tables of its candidates' windows,
    # the resilient design's two (all zeros, then a last 1) and the blind
    # FIR's four
    nodes = list(prefixes(automaton, 10, automaton.initial))
    assert len(_states(nodes, 5, True)) + len(_states(nodes, 2, False)) == 94 + 38
    assert built == {"resilient_exhaustive_h10": 32, "blind_exhaustive_h10": 4,
                     "resilient_greedy_h60": 2, "blind_greedy_h30": 4}


def test_stress_attacks_are_pinned(stress_state, perfbench_workloads):
    """sigma and value.hex() of the four `stress` searches, bit for bit: the
    benchmark's gate checks the value to 1e-12 relative only."""
    plant, model, automaton = stress_state.problem
    found = {name: attack_search(plant, model, stress_state.designs[design], automaton,
                                 horizon, strategy)
             for name, design, strategy, horizon in perfbench_workloads.ATTACKS}
    assert {name: ("".join(map(str, sigma)), value.hex())
            for name, (sigma, value) in found.items()} == {
        "resilient_exhaustive_h10": ("0" * 10, "0x1.8ffffffffffe6p+4"),
        "blind_exhaustive_h10": ("0000000010", "0x1.9840f5c28f5c3p+9"),
        "resilient_greedy_h60": ("0" * 60, "0x1.8ffffffffffe6p+4"),
        "blind_greedy_h30": ("110010101001010010101001010010", "0x1.b5e4dc81eb854p+24")}


@pytest.mark.parametrize("name", ["exact", "memory2", "exact_m3n2"])
def test_rows_of_exact_design_build_each_window_row_once(search_designs, switching_setup, name,
                                                         monkeypatch):
    """`rows`, which `error_operator` and `worst_case_inputs` read, takes an
    exact design's rows from the tables the searches read: along an H=60
    sequence each window's table is built once, and every row is bit for
    bit the row built alone at its own time."""
    plant, model, automaton, _ = switching_setup
    design, window = search_designs[name], SEARCH_WINDOWS[name]
    record = _record_kernel(monkeypatch)
    H = 60
    sigma = automaton.random_sequence(H, np.random.default_rng(14))
    kernel = _ErrorKernel(plant, model, design, automaton.padding_mode, H)
    rows = kernel.rows(sigma)
    prefixes = [sigma[:t + 1] for t in range(H)]
    _assert_built_once(record, prefixes, window, automaton.padding_mode)
    assert len(record.tables) < H
    for t, row in enumerate(rows):
        assert np.array_equal(row, _row_alone(kernel, t, sigma[max(0, t + 1 - window):t + 1]))


def _outcome(search):
    """repr of search()'s result, or the type and message of its exception."""
    try:
        return repr(search())
    except Exception as exc:  # noqa: BLE001 - the outcome under test
        return type(exc), str(exc)


@pytest.mark.parametrize("name", ["blind", "fir", "fir_m3n2"])
def test_overflowing_fir_tables_match_rows_built_alone(search_designs, switching_setup, name,
                                                      monkeypatch):
    """An unstable A whose powers overflow within the horizon fills the FIR
    tables with infinities and NaNs: the tables and every row built alone
    give the same values at every t, rows and search outcomes, value or
    exception."""
    plant, model, complete, _ = switching_setup
    plant = dataclasses.replace(plant, A=1e40 * plant.A)
    H, searches = 12, (("exhaustive", 12), ("greedy", 12), ("greedy", 30))
    for automaton in _search_automata(complete)[:2]:
        design = _design_for(search_designs, name, automaton)
        sigma = automaton.random_sequence(H, np.random.default_rng(3))
        with np.errstate(over="ignore", invalid="ignore"):
            kernel = _ErrorKernel(plant, model, design, automaton.padding_mode, H)
            [(lags, _)] = kernel._tables(H - 1, [sigma[-kernel.window:]])
            assert np.isinf(lags).any() and np.isnan(lags).any()
            for t in range(H):
                window = sigma[max(0, t + 1 - kernel.window):t + 1]
                assert repr(kernel.values(t, [window])) == \
                    repr([kernel.row_values(_row_alone(kernel, t, window)).tolist()])
            tabled = [_outcome(lambda: attack_search(plant, model, design, automaton, h, s))
                      for s, h in searches]
            witness = worst_case_inputs(plant, model, design, sigma, H, automaton.padding_mode)
            operator = error_operator(plant, model, design, sigma, H, automaton.padding_mode)
            with monkeypatch.context() as patch:
                patch.setattr(_ErrorKernel, "values", lambda kernel, t, windows: [
                    kernel.row_values(_row_alone(kernel, t, w)).tolist() for w in windows])
                patch.setattr(_ErrorKernel, "rows", lambda kernel, sigma: [
                    _row_alone(kernel, t, sigma[max(0, t + 1 - kernel.window):t + 1])
                    for t in range(kernel.horizon)])
                alone = [_outcome(lambda: attack_search(plant, model, design, automaton, h, s))
                         for s, h in searches]
                witness_alone = worst_case_inputs(plant, model, design, sigma, H,
                                                  automaton.padding_mode)
                operator_alone = error_operator(plant, model, design, sigma, H,
                                                automaton.padding_mode)
        assert tabled == alone
        assert repr(witness[1]) == repr(witness_alone[1])
        assert np.array_equal(witness[0].w.samples, witness_alone[0].w.samples, equal_nan=True)
        assert np.array_equal(operator.band, operator_alone.band, equal_nan=True)


@pytest.mark.parametrize("name", ["exact", "relaxed", "exact_m3n2", "relaxed_m3n2"])
@pytest.mark.parametrize("strategy", ["exhaustive", "greedy"])
def test_attack_search_builds_the_pair_table_once(search_designs, switching_setup, name,
                                                  strategy, monkeypatch):
    """One search builds its kernel's (tap history, lag mode) table once, at
    time `window`, whatever the horizon; every window's rows gather from it."""
    plant, model, automaton, _ = switching_setup
    pair_rows, calls = simulate._pair_rows, []

    def counted(*args):
        calls.append(args[-1])
        return pair_rows(*args)

    monkeypatch.setattr(simulate, "_pair_rows", counted)
    window = SEARCH_WINDOWS[name]
    for horizon in (1, window, window + 3, 40 if strategy == "greedy" else window + 4):
        calls.clear()
        attack_search(plant, model, search_designs[name], automaton, horizon, strategy)
        assert calls == [window]


@pytest.mark.parametrize("pad", [-1, 2])
def test_padding_mode_outside_the_modes_is_rejected(switching_synthesis, switching_setup, pad):
    """A padding mode the model lacks would gather another pair's lags from
    the (tap history, lag mode) table; the operator builders reject it."""
    plant, model, _, _ = switching_setup
    result = switching_synthesis[0]
    message = f"^padding_mode {pad} outside 0..1$"
    for build in (lambda: error_operator(plant, model, result, (0, 1, 0), 3, pad),
                  lambda: worst_case_inputs(plant, model, result, (0, 1, 0), 3, pad),
                  lambda: factor_operators(plant, result.Q, result.Z, model, (0, 1, 0), 3, pad)):
        with pytest.raises(ValueError, match=message):
            build()


def _state_search_and_walk(plant, model, design, automaton, horizon):
    """The outcome of the exhaustive search of an exact or FIR design, which
    is the state search, and of the prefix walk on a fresh kernel."""
    kernel = _ErrorKernel(plant, model, design, automaton.padding_mode, horizon)
    assert kernel.kind != "relaxed"
    return (_outcome(lambda: attack_search(plant, model, design, automaton, horizon)),
            _outcome(lambda: walk_search(kernel, automaton, horizon)))


@pytest.mark.parametrize("name", ["exact", "blind", "fir", "memory2", "fir_m3n2", "exact_m3n2"])
def test_state_search_matches_walk(search_designs, switching_setup, name):
    """Bit for bit, before, at and three steps past the window, also where
    mode 1 is a dead end and where every path dies after two modes."""
    plant, model, complete, _ = switching_setup
    dead_ends = [SwitchingAutomaton(2, allowed=[[True, True], [False, False]]),
                 SwitchingAutomaton(2, allowed=[[False, True], [False, False]], initial={0})]
    for automaton in _search_automata(complete) + dead_ends:
        design = _design_for(search_designs, name, automaton)
        for H in range(1, SEARCH_WINDOWS[name] + 4):
            by_states, by_walk = _state_search_and_walk(plant, model, design, automaton, H)
            assert by_states == by_walk


def test_state_search_matches_walk_on_stress_designs(stress_state):
    plant, model, automaton = stress_state.problem
    for design in stress_state.designs.values():
        for H in range(1, 15):
            by_states, by_walk = _state_search_and_walk(plant, model, design, automaton, H)
            assert by_states == by_walk


@pytest.mark.parametrize("name", ["blind", "fir", "fir_m3n2"])
def test_state_search_matches_walk_on_overflowing_fir_tables(search_designs, switching_setup,
                                                             name):
    """With A scaled by 1e40 the rows hold infinities and NaNs: the state
    search leaves NaNs out as the walk's fold does, value or exception."""
    plant, model, complete, _ = switching_setup
    plant = dataclasses.replace(plant, A=1e40 * plant.A)
    for automaton in _search_automata(complete)[:2]:
        design = _design_for(search_designs, name, automaton)
        for H in range(1, 13):
            with np.errstate(over="ignore", invalid="ignore"):
                by_states, by_walk = _state_search_and_walk(plant, model, design, automaton, H)
            assert by_states == by_walk


@pytest.mark.parametrize("low, high", [(0.5, 0.5 + 5e-16), (8.0, math.nextafter(8.0, math.inf))],
                         ids=["0.5", "8.0-ulp"])
def test_near_tie_goes_to_the_larger_value(low, high):
    """Two row values an ulp or two apart are not a tie: the first sequence
    through the larger one wins in the state search, the walk and the
    per-sequence search."""
    plant = ChannelPlant(A=np.zeros((1, 1)), B=np.zeros((1, 1)),
                         channels=((np.zeros((1, 1)), np.ones((1, 1))),), x0_bound=0.0)
    model = SwitchedOutputModel(np.zeros((2, 1, 1)), np.ones((2, 1, 1)))
    # an absolute tie margin of 1e-15 would call these a tie
    assert low < high and not high > low + 1e-15
    # the row of mode j holds the single entry T_j D_j = T_j
    T = SwitchingFIR(1, 1, 1, 1, {((0,), 0): np.array([[low]]), ((1,), 0): np.array([[high]])})
    automaton = SwitchingAutomaton(2)
    kernel = _ErrorKernel(plant, model, T, automaton.padding_mode, 3)
    found = attack_search(plant, model, T, automaton, 3)
    assert found == ((0, 0, 1), high)
    assert found == walk_search(kernel, automaton, 3)
    assert found == per_sequence_attack_search(plant, model, T, automaton, 3)


def test_long_horizon_state_search(switching_synthesis, switching_setup, nominal_synthesis,
                                   monkeypatch):
    """Horizons far past the walk's 2^20 cap.  The exact design's value stays
    below its certified bound; the blind design has none under switching.
    The reachable states stop changing at t = window, so the search extends
    its layers at most window + 2 times."""
    plant, model, automaton, _ = switching_setup
    exact = switching_synthesis[0]
    blind = broadcast_taps(nominal_synthesis[0].T, automaton)
    extend, calls = SwitchingAutomaton.extend, []

    def counted(self, paths, keep=None):
        calls.append(keep)
        return extend(self, paths, keep)

    monkeypatch.setattr(SwitchingAutomaton, "extend", counted)
    values = []
    for design, H in ((exact, 1000), (blind, 200)):
        calls.clear()
        sigma, value = attack_search(plant, model, design, automaton, H)
        window = _ErrorKernel(plant, model, design, automaton.padding_mode, H).window
        assert 0 < len(calls) <= window + 2
        assert len(sigma) == H and automaton.is_admissible(sigma)
        _, witnessed = worst_case_inputs(plant, model, design, sigma, H,
                                         automaton.padding_mode)
        assert repr(witnessed) == repr(value)
        values.append(value)
    assert values[0] <= exact.certified_bound < values[1]
    # the walk enumerates sequences, so its cap stops it here
    kernel = _ErrorKernel(plant, model, exact, automaton.padding_mode, 1000)
    with pytest.raises(ValueError, match="2\\^20"):
        walk_search(kernel, automaton, 1000)


def test_state_search_cap(switching_synthesis, switching_setup, monkeypatch):
    plant, model, automaton, _ = switching_setup
    monkeypatch.setattr(simulate, "_CAP", 221)
    with pytest.raises(ValueError, match=r"\(t, window\) states"):
        attack_search(plant, model, switching_synthesis[0], automaton, 10)
    monkeypatch.setattr(simulate, "_CAP", 222)
    assert attack_search(plant, model, switching_synthesis[0], automaton, 10)[0] == (0,) * 10


@settings(max_examples=8, deadline=None)
@given(x0_bound=st.floats(0.0, 10.0), horizon=st.integers(1, 8))
def test_attacks_stay_below_certified_bound_over_random_x0_bound(nominal_setup, x0_bound,
                                                                 horizon):
    plant, model, automaton, config = nominal_setup
    plant = dataclasses.replace(plant, x0_bound=x0_bound)
    result = synthesize(plant, model, automaton, config)
    bound = result.certified_bound * (1 + 1e-9)
    for strategy in ("exhaustive", "greedy"):
        assert attack_search(plant, model, result, automaton, horizon, strategy)[1] <= bound


@pytest.mark.parametrize("mode", ["exact", "relaxed"])
@pytest.mark.parametrize("x0_bound", [0.0, 0.5, 10.0])
def test_witnesses_stay_below_certified_bound_at_any_x0_bound(switching_setup, mode, x0_bound):
    """The certified bound covers initial conditions up to plant.x0_bound: the
    exhaustive attack value and the simulated worst case stay below it."""
    plant, model, automaton, config = switching_setup
    plant = dataclasses.replace(plant, x0_bound=x0_bound)
    if mode == "relaxed":
        config = dataclasses.replace(config, mode="relaxed", eps_bar=0.1)
    result = synthesize(plant, model, automaton, config)
    assert (result.eps_achieved > 1e-9) == (mode == "relaxed")
    bound = result.certified_bound * (1 + 1e-9)
    sigma, value = attack_search(plant, model, result, automaton, 10)
    assert value <= bound
    scenario, predicted = worst_case_inputs(plant, model, result, sigma, 10,
                                            automaton.padding_mode)
    assert predicted == value
    assert float(np.max(np.abs(scenario.x0))) == x0_bound
    assert make_trace(plant, model, result, scenario, automaton.padding_mode).sup_error <= bound
    report = certify(plant, model, automaton, config, result)
    assert report["max_sampled_performance_norm"] <= report["gamma_rows"] * (1 + 1e-9)

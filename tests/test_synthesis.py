import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from switchguard import demo, synthesis
from switchguard.cli import parse_problem
from switchguard.lp_solver import EQ, format_lp
from switchguard.operator_core import induced_norm
from switchguard.simulate import attack_search
from switchguard.switched_model import (ChannelPlant, SwitchedOutputModel,
                                        SwitchingAutomaton, SwitchingFIR, build_modes,
                                        history_array)
from switchguard.synthesis import (SynthesisConfig, SynthesisInfeasibleError, _sampled_norms,
                                   assemble_lp, certify, decision_variables, factor_operators,
                                   row_gains, synthesize)
from util import (admissible_sequences, assemble_symbolic_lp, band_entry, build_performance_rows,
                  build_residual_rows, dict_induced_norm, dict_performance_operator,
                  dict_residual_operator, distinct_window_factor_operators, evaluate_rows,
                  factor_rows, history_at, kernel_entries, pack, parametrization_residual,
                  sampled_norms_loop, symbolic_variables, unroll, window_factor_rows,
                  window_row_gains)


@pytest.fixture(scope="module")
def relaxed_nominal(nominal_setup):
    plant, model, automaton, _ = nominal_setup
    cfg = SynthesisConfig(memory=1, fir_length=2, mode="relaxed", eps_bar=0.3)
    return synthesize(plant, model, automaton, cfg), cfg


def tiny_plant(d_val: float) -> tuple[ChannelPlant, SwitchedOutputModel, SwitchingAutomaton]:
    plant = ChannelPlant(A=np.array([[0.5]]), B=np.array([[1.0]]),
                         channels=((np.array([[1.0]]), np.array([[d_val]])),),
                         x0_bound=1.0)
    model = build_modes(plant, [{1}])
    return plant, model, SwitchingAutomaton(1)


def grid_search_gamma(d_val: float) -> float:
    """Brute-force sweep of the one-parameter family solving the residual
    equalities for the scalar test plant (A=0.5, C=1, B=1, N=2)."""
    best = np.inf
    for q0 in np.linspace(-2.0, 0.0, 8001):
        z0 = q0
        z1 = -0.5 * (1.0 + q0)
        w0 = z0 * d_val
        w1 = 1.0 + z1 * d_val + q0
        gamma = abs(w0) + abs(w1) + abs(1.0 + q0)
        best = min(best, gamma)
    return best


def test_residual_rows_zero_decision_is_shifted_A(nominal_setup):
    plant, model, automaton, _ = nominal_setup
    cfg = SynthesisConfig(memory=1, fir_length=1)
    variables = decision_variables(automaton, cfg, plant.n, model.p)
    _, entries = kernel_entries(plant, model, automaton, cfg, variables, "residual",
                                np.zeros(variables.count))
    values = sum(np.abs(value) for value in entries.values())
    expected = np.max(np.sum(np.abs(plant.A), axis=1))
    assert np.isclose(np.max(values), expected, atol=1e-12)


def test_residual_row_structure_small():
    plant, model, automaton = tiny_plant(0.0)
    cfg = SynthesisConfig(memory=1, fir_length=1)
    variables = decision_variables(automaton, cfg, plant.n, model.p)
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, variables.count)
    windows, entries = kernel_entries(plant, model, automaton, cfg, variables, "residual", x)
    assert len(windows) * plant.n == 1
    z0 = x[variables.z_var(0, 0, 0, 0)]
    q0 = x[variables.q_var(0, 0, 0, 0)]
    by_lag = {lag: value[0, 0] for (lag, _), value in entries.items()}
    # lag 0: Z0 C - Q0 ; lag 1: A + Q0 A
    assert np.isclose(by_lag[0], z0 * 1.0 - q0, atol=1e-12)
    assert np.isclose(by_lag[1], 0.5 + q0 * 0.5, atol=1e-12)


def test_switching_row_and_lag_counts(switching_setup):
    plant, model, automaton, config = switching_setup
    variables = decision_variables(automaton, config, plant.n, model.p)
    windows, entries = kernel_entries(plant, model, automaton, config, variables, "residual",
                                      np.zeros(variables.count))
    assert len(set(windows)) == 32
    assert len(windows) * plant.n == 32 * 3
    lags = {lag for lag, _ in entries}
    assert lags == set(range(6))


def test_performance_rows_zero_decision():
    rng = np.random.default_rng(1)
    A = rng.uniform(-1, 1, (2, 2))
    B = rng.uniform(-1, 1, (2, 3))
    plant = ChannelPlant(A=A, B=B, channels=((rng.uniform(-1, 1, (1, 2)),
                                              rng.uniform(-1, 1, (1, 3))),))
    model = build_modes(plant, [{1}])
    automaton = SwitchingAutomaton(1)
    cfg = SynthesisConfig(memory=1, fir_length=2)
    variables = decision_variables(automaton, cfg, plant.n, model.p)
    _, entries = kernel_entries(plant, model, automaton, cfg, variables, "performance",
                                np.zeros(variables.count))
    values = sum(np.abs(value) for value in entries.values())
    for row_index in range(plant.n):
        expected = np.sum(np.abs(B[row_index])) + 1.0
        assert np.allclose(values[:, row_index], expected, atol=1e-12)


def test_reference_taps_reproduce_nominal_cost(nominal_setup):
    plant, model, automaton, config = nominal_setup
    A = plant.A
    C0 = model.C[0]
    Z0 = -demo.REFERENCE_NOMINAL_TAPS[0]
    Z1 = -demo.REFERENCE_NOMINAL_TAPS[1]
    Q0 = Z0 @ C0
    Q1 = A + Z1 @ C0 + Q0 @ A  # residual closure; nonzero only through rounding
    Q = SwitchingFIR(1, 2, 3, 3, {((0,), 0): Q0, ((0,), 1): Q1})
    Z = SwitchingFIR(1, 2, 2, 3, {((0,), 0): Z0, ((0,), 1): Z1})
    res, perf = row_gains(plant, model, automaton, config, Q, Z)
    assert abs(np.max(perf) - demo.REFERENCE_NOMINAL_COST) < 0.05
    assert np.max(res) < 0.02  # published taps are rounded to ~2 decimals


def test_rows_match_operator_kernels(switching_setup):
    plant, model, automaton, config = switching_setup
    variables = decision_variables(automaton, config, plant.n, model.p)
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, variables.count)
    windows, res = kernel_entries(plant, model, automaton, config, variables, "residual", x)
    _, perf = kernel_entries(plant, model, automaton, config, variables, "performance", x)
    window_index = {hist: w for w, hist in enumerate(windows)}
    Q, Z = variables.unpack(x)
    H = 12
    L = config.window
    for _ in range(5):
        sigma = automaton.random_sequence(H, rng)
        E, Phi = factor_operators(plant, Q, Z, model, sigma, H, automaton.padding_mode)
        for t in (L, H - 1):
            w = window_index[history_at(sigma, t, L, automaton.padding_mode)]
            for i in range(plant.n):
                for (lag, col), value in res.items():
                    assert np.isclose(value[w, i], band_entry(E, t, lag)[i, col], atol=1e-12)
                for (lag, col), value in perf.items():
                    assert np.isclose(value[w, i], band_entry(Phi, t, lag)[i, col], atol=1e-12)


def test_assemble_exact_has_pure_equalities(switching_setup):
    plant, model, automaton, config = switching_setup
    variables = decision_variables(automaton, config, plant.n, model.p)
    lp = assemble_lp(plant, model, automaton, config, variables)
    eq_rows = [c for c in lp.constraints if c[1] == EQ]
    assert eq_rows, "exact mode must carry residual equalities"
    # every equality touches only decision variables (no slack columns)
    for coeffs, _, _ in eq_rows:
        assert not np.any(coeffs[variables.count:])
    relaxed = SynthesisConfig(memory=config.memory, fir_length=config.fir_length,
                              mode="relaxed", eps_bar=0.2)
    lp2 = assemble_lp(plant, model, automaton, relaxed, variables)
    assert all(c[1] != EQ for c in lp2.constraints)


def test_decision_variable_count_audit(switching_setup):
    plant, model, automaton, config = switching_setup
    variables = decision_variables(automaton, config, plant.n, model.p)
    # 2 histories x 5 lags x (3x2 + 3x3) entries
    assert variables.count == 150
    assert symbolic_variables(automaton, config, plant.n, model.p).count == 150


@pytest.mark.parametrize("memory, fir_length, patterns", [
    (1, 5, [[1, 2], [1]]),
    (2, 4, [[1, 2], [1]]),
    (2, 3, [[1, 2], [2], [1]]),
])
def test_variable_ids_match_oracle(memory, fir_length, patterns):
    cfg = demo.demo_config_dict()
    cfg["attack"]["patterns"] = patterns
    cfg["synthesis"].update(M=memory, N=fir_length)
    plant, model, automaton, config, _ = parse_problem(cfg)
    variables = decision_variables(automaton, config, plant.n, model.p)
    oracle = symbolic_variables(automaton, config, plant.n, model.p)
    assert list(map(tuple, variables.histories.tolist())) == oracle.histories
    assert variables.count == oracle.count
    for a, hist in enumerate(oracle.histories):
        for lag in range(fir_length):
            for r in range(plant.n):
                for c in range(plant.n):
                    assert variables.q_var(a, lag, r, c) == oracle.var("Q", hist, lag, r, c)
                for c in range(model.p):
                    assert variables.z_var(a, lag, r, c) == oracle.var("Z", hist, lag, r, c)
    # unpack then pack gives back every bit, signed zeros included
    x = np.random.default_rng(7).uniform(-1.0, 1.0, variables.count)
    x[::5] = 0.0
    x[::7] = -0.0
    Q, Z = variables.unpack(x)
    assert variables.pack(Q, Z).tobytes() == x.tobytes()
    assert pack(oracle, Q, Z).tobytes() == x.tobytes()


def test_tiny_deadbeat_matches_grid_search():
    for d_val, expected in ((0.0, 0.0), (0.5, 0.5)):
        plant, model, automaton = tiny_plant(d_val)
        cfg = SynthesisConfig(memory=1, fir_length=2)
        result = synthesize(plant, model, automaton, cfg)
        oracle = grid_search_gamma(d_val)
        assert np.isclose(oracle, expected, atol=1e-3)
        assert np.isclose(result.gamma_bar, oracle, atol=1e-3)
        assert result.eps_achieved < 1e-9


def test_nominal_synthesis_value(nominal_synthesis):
    result, _ = nominal_synthesis
    assert abs(result.gamma_bar - 5.0275) <= 0.01 * 5.0275
    assert result.eps_achieved <= 1e-7
    assert result.certified_bound == result.gamma_bar


def test_infeasible_reports_guidance():
    plant = ChannelPlant(A=np.array([[2.0]]), B=np.array([[1.0]]),
                         channels=((np.array([[0.0]]), np.array([[0.0]])),))
    model = build_modes(plant, [{1}])
    automaton = SwitchingAutomaton(1)
    with pytest.raises(SynthesisInfeasibleError, match="fir_length|eps_bar|relaxed"):
        synthesize(plant, model, automaton, SynthesisConfig(memory=1, fir_length=1))


def test_recover_factors_exact_lag0(switching_synthesis, switching_setup):
    result, _ = switching_synthesis
    _, model, _, _ = switching_setup
    Q, Z = result.Q, result.Z
    assert result.lag0_margin > 0.0
    assert result.lag0_margin > 0.99
    for hist in Z.histories():
        block = (Z.taps[Z.history_ids(hist), 0] @ model.C[hist[-1]]
                 - Q.taps[Q.history_ids(hist), 0])
        assert np.max(np.abs(block)) <= 1e-9


def test_recover_factors_relaxed_margin(relaxed_nominal, nominal_setup):
    result, cfg = relaxed_nominal
    _, model, _, _ = nominal_setup
    Q, Z = result.Q, result.Z
    assert result.eps_achieved <= cfg.eps_bar + 1e-7
    for hist in Z.histories():
        block = (Z.taps[Z.history_ids(hist), 0] @ model.C[hist[-1]]
                 - Q.taps[Q.history_ids(hist), 0])
        assert np.max(np.sum(np.abs(block), axis=1)) <= cfg.eps_bar + 1e-7
    assert result.lag0_margin >= 1.0 - cfg.eps_bar - 1e-7


def test_parametrization_residual_trivial_case(nominal_setup):
    plant, model, automaton, _ = nominal_setup
    # T = 0 and Q = -I (X = 0): only the -I term survives, gain 1
    T = SwitchingFIR(1, 1, 2, 3, {((0,), 0): np.zeros((3, 2))})
    Q = SwitchingFIR(1, 1, 3, 3, {((0,), 0): -np.eye(3)})
    value = parametrization_residual(T, Q, plant, model, (0,) * 10, 10)
    assert np.isclose(value, 1.0, atol=1e-12)


def test_parametrization_residual_exact(switching_synthesis, switching_setup):
    result, _ = switching_synthesis
    plant, model, automaton, _ = switching_setup
    rng = np.random.default_rng(3)
    for _ in range(5):
        sigma = automaton.random_sequence(20, rng)
        value = parametrization_residual(result.T, result.Q, plant, model, sigma, 20)
        assert value <= 1e-7


def test_parametrization_residual_relaxed(relaxed_nominal, nominal_setup):
    result, cfg = relaxed_nominal
    plant, model, _, _ = nominal_setup
    value = parametrization_residual(result.T, result.Q, plant, model, (0,) * 25, 25)
    assert value <= cfg.eps_bar + 1e-7


def test_residual_operator_norm_exact(switching_synthesis, switching_setup):
    result, _ = switching_synthesis
    plant, model, automaton, _ = switching_setup
    rng = np.random.default_rng(4)
    for _ in range(5):
        sigma = automaton.random_sequence(15, rng)
        E = factor_operators(plant, result.Q, result.Z, model, sigma, 15)[0]
        assert induced_norm(E) <= 1e-7


def test_mode_collapse_matches_nominal(nominal_setup, nominal_synthesis):
    plant, model, _, config = nominal_setup
    nominal, _ = nominal_synthesis
    twin = SwitchedOutputModel(model.C[[0, 0]], model.D[[0, 0]])
    result = synthesize(plant, twin, SwitchingAutomaton(2), config)
    assert np.isclose(result.gamma_bar, nominal.gamma_bar, atol=1e-6)


def test_bound_ordering(switching_synthesis, relaxed_nominal):
    exact_result, _ = switching_synthesis
    relaxed_result, _ = relaxed_nominal
    assert exact_result.certified_bound == exact_result.gamma_bar
    assert relaxed_result.certified_bound >= relaxed_result.gamma_bar


def test_sweep_relaxation_monotone(nominal_setup):
    plant, model, automaton, config = nominal_setup
    # every point is feasible: an infeasible one raises SynthesisInfeasibleError
    gammas = [synthesize(plant, model, automaton,
                         dataclasses.replace(config, mode="relaxed", eps_bar=eps)).gamma_bar
              for eps in (0.0, 0.2, 0.4)]
    assert all(a >= b - 1e-9 for a, b in zip(gammas, gammas[1:]))


def test_memory_two_synthesis(switching_setup):
    plant, model, automaton, _ = switching_setup
    base = synthesize(plant, model, automaton, SynthesisConfig(memory=1, fir_length=3))
    wide = synthesize(plant, model, automaton, SynthesisConfig(memory=2, fir_length=3))
    # longer tap memory enlarges the feasible set
    assert wide.gamma_bar <= base.gamma_bar + 1e-6
    assert wide.eps_achieved <= 1e-9
    assert all(len(h) == 2 for h in wide.Q.histories())


def test_restricted_automaton_lowers_cost(switching_setup, switching_synthesis):
    plant, model, _, config = switching_setup
    complete_result, _ = switching_synthesis
    no_repeat = SwitchingAutomaton(2, allowed=np.array([[True, True], [True, False]]))
    result = synthesize(plant, model, no_repeat, config)
    assert result.gamma_bar <= complete_result.gamma_bar + 1e-9
    assert result.eps_achieved <= 1e-9
    rng = np.random.default_rng(5)
    for _ in range(3):
        sigma = no_repeat.random_sequence(20, rng)
        value = parametrization_residual(result.T, result.Q, plant, model, sigma, 20)
        assert value <= 1e-7


def test_certify_report(nominal_setup, nominal_synthesis):
    plant, model, automaton, config = nominal_setup
    result, _ = nominal_synthesis
    report = certify(plant, model, automaton, config, result, seed=0)
    assert np.isclose(report["gamma_rows"], result.gamma_bar, atol=1e-8)
    assert report["eps_rows"] <= 1e-7
    assert report["max_sampled_residual_norm"] <= 1e-7
    assert report["max_sampled_performance_norm"] <= result.gamma_bar + 1e-7
    assert report["sampled_sigmas"] == config.verify_samples


def assert_row_gains_match_oracle(plant, model, automaton, config, Q, Z):
    """row_gains equals the symbolic rows evaluated at the packed taps, bit for bit.

    Returns the oracle's (residual, performance) gains.
    """
    variables = symbolic_variables(automaton, config, plant.n, model.p)
    x = pack(variables, Q, Z)
    expected = (
        evaluate_rows(build_residual_rows(plant, model, automaton, config, variables), x),
        evaluate_rows(build_performance_rows(plant, model, automaton, config, variables), x))
    for gains, oracle in zip(row_gains(plant, model, automaton, config, Q, Z), expected):
        assert np.array_equal(gains, oracle)
    return expected


@st.composite
def row_gain_cases(draw):
    """A random plant, mode model, automaton and taps, with no LP solve.

    Automata may have `initial` a strict subset and a nonzero padding mode;
    fir_length may be shorter than memory.  Three-mode cases keep the window
    length at most 4 so the symbolic oracle stays fast.
    """
    n = draw(st.integers(1, 3))
    m_w = draw(st.integers(1, 2))
    dims = draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
    memory = draw(st.integers(1, 3))
    fir_length = draw(st.integers(1, 6))
    mode_count = draw(st.integers(1, 3 if max(memory, fir_length) <= 4 else 2))
    allowed = draw(st.lists(st.booleans(), min_size=mode_count ** 2,
                            max_size=mode_count ** 2))
    initial = draw(st.sets(st.integers(0, mode_count - 1), min_size=1))
    padding_mode = draw(st.integers(0, mode_count - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def sparse(shape):
        # exact zeros of both signs exercise the terms the symbolic rows leave out
        values = rng.uniform(-2.0, 2.0, shape)
        draw_zero = rng.random(shape)
        values[draw_zero < 0.2] = 0.0
        values[draw_zero > 0.9] = -0.0
        return values

    plant = ChannelPlant(A=sparse((n, n)), B=sparse((n, m_w)),
                         channels=tuple((sparse((d, n)), sparse((d, m_w))) for d in dims))
    C0, D0 = plant.stacked()
    keep = np.concatenate([np.ones((1, plant.p), dtype=bool),
                           rng.random((mode_count - 1, plant.p)) < 0.6])[:, :, None]
    model = SwitchedOutputModel(keep * C0, keep * D0)
    automaton = SwitchingAutomaton(mode_count,
                                   allowed=np.reshape(allowed, (mode_count, mode_count)),
                                   initial=initial, padding_mode=padding_mode)
    config = SynthesisConfig(memory=memory, fir_length=fir_length)
    hists = list(map(tuple, history_array(automaton, memory).tolist()))
    Q = SwitchingFIR(memory, fir_length, n, n,
                     {(h, k): sparse((n, n)) for h in hists for k in range(fir_length)})
    Z = SwitchingFIR(memory, fir_length, plant.p, n,
                     {(h, k): sparse((n, plant.p)) for h in hists for k in range(fir_length)})
    return plant, model, automaton, config, Q, Z


@settings(max_examples=60, deadline=None)
@given(row_gain_cases())
def test_row_gains_match_oracle_random(case):
    assert_row_gains_match_oracle(*case)


def assert_row_gains_match_window_oracle(plant, model, automaton, config, Q, Z):
    """row_gains, evaluated once per (tap history, lag mode), equals the terms
    evaluated once per window, byte for byte: signed zeros included."""
    for gains, oracle in zip(row_gains(plant, model, automaton, config, Q, Z),
                             window_row_gains(plant, model, automaton, config, Q, Z)):
        assert gains.tobytes() == oracle.tobytes()


@settings(max_examples=60, deadline=None)
@given(row_gain_cases())
def test_row_gains_match_window_oracle_random(case):
    assert_row_gains_match_window_oracle(*case)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(row_gain_cases())
def test_assemble_lp_matches_oracle_random(case):
    """The array-built LP is the symbolic oracle's LP, bit for bit, in both modes."""
    plant, model, automaton, exact, _, _ = case
    for config in (exact, dataclasses.replace(exact, mode="relaxed", eps_bar=0.25)):
        lp = assemble_lp(plant, model, automaton, config,
                         decision_variables(automaton, config, plant.n, model.p))
        oracle_vars = symbolic_variables(automaton, config, plant.n, model.p)
        oracle = assemble_symbolic_lp(
            build_residual_rows(plant, model, automaton, config, oracle_vars),
            build_performance_rows(plant, model, automaton, config, oracle_vars),
            config, oracle_vars)
        assert format_lp(lp) == format_lp(oracle)
        assert lp.variable_count == oracle.variable_count
        assert lp.objective.tobytes() == oracle.objective.tobytes()
        assert lp.bounds == oracle.bounds
        assert len(lp.constraints) == len(oracle.constraints)
        for (coeffs, rel, rhs), (o_coeffs, o_rel, o_rhs) in zip(lp.constraints,
                                                                oracle.constraints):
            assert coeffs.tobytes() == o_coeffs.tobytes()
            assert rel == o_rel
            assert np.float64(rhs).tobytes() == np.float64(o_rhs).tobytes()


# sha256 of the text `synth --dump-lp` writes for each perfbench demo case.
DEMO_LP_SHA256 = {
    "nominal M=1 N=2": "ad0dc3845d5890bb6c6418cec76cc4d3c0889f03255c20b24b8659aceed9440e",
    "switching M=1 N=5": "20930261ca3faf2d3ca3a5c81adeb0a33355b20acf41df3edca56be65823f843",
    "switching M=2 N=4": "b76659ad0501e3edfefe5434449c25631e127dd3d4c24f2172be15cea996928a",
    "relaxed M=1 N=5": "3a06777ea1ae4287b55d2669bc1525480e3ac23ca738560da5a67c5a0309a5dc",
    "relaxed M=1 N=4": "84be83b241d18b89b1268e7a3dd5e36831e921e670de8551c97b7d5045e0a878",
}


def test_demo_lp_dumps_are_pinned(perfbench_workloads):
    for case in perfbench_workloads.DEMO_EXACT + perfbench_workloads.DEMO_RELAXED:
        plant, model, automaton, config, _ = parse_problem(case.config())
        lp = assemble_lp(plant, model, automaton, config,
                         decision_variables(automaton, config, plant.n, model.p))
        text = format_lp(lp, name="estimator synthesis")
        assert hashlib.sha256(text.encode()).hexdigest() == DEMO_LP_SHA256[case.name], case.name


# (nominal, M, N, mode, eps_bar) of the benchmark's five demo designs; the
# relaxed M=1 N=5 design is also the relaxed one of the attack-search tests.
DEMO_DESIGNS = [
    (True, 1, 2, "exact", 0.0),
    (False, 1, 5, "exact", 0.0),
    (False, 2, 4, "exact", 0.0),
    (False, 1, 5, "relaxed", 0.1),
    (False, 1, 4, "relaxed", 0.1),
]


@pytest.fixture(scope="module")
def demo_design():
    """(plant, model, automaton, config, result) of a DEMO_DESIGNS entry, each
    synthesized once per module."""
    built = {}

    def get(*design):
        if design not in built:
            nominal, memory, fir_length, mode, eps_bar = design
            cfg = demo.nominal_config_dict() if nominal else demo.demo_config_dict()
            cfg["synthesis"].update(M=memory, N=fir_length, mode=mode, eps_bar=eps_bar)
            plant, model, automaton, config, _ = parse_problem(cfg)
            built[design] = (plant, model, automaton, config,
                             synthesize(plant, model, automaton, config))
        return built[design]
    return get


@pytest.mark.parametrize("nominal, memory, fir_length, mode, eps_bar", DEMO_DESIGNS)
def test_row_gains_match_oracle_demo_designs(demo_design, nominal, memory, fir_length, mode,
                                             eps_bar):
    plant, model, automaton, config, result = demo_design(nominal, memory, fir_length, mode,
                                                          eps_bar)
    residual, _ = assert_row_gains_match_oracle(plant, model, automaton, config,
                                                result.Q, result.Z)
    assert result.eps_achieved == float(np.max(residual))


@pytest.mark.parametrize("nominal, memory, fir_length, mode, eps_bar", DEMO_DESIGNS)
def test_row_gains_match_window_oracle_demo_designs(demo_design, nominal, memory, fir_length,
                                                    mode, eps_bar):
    plant, model, automaton, config, result = demo_design(nominal, memory, fir_length, mode,
                                                          eps_bar)
    assert_row_gains_match_window_oracle(plant, model, automaton, config, result.Q, result.Z)


def test_row_gains_match_window_oracle_stress(stress_state):
    """The `stress` workload's certify design: the frozen N=5 design padded to N=10."""
    plant, model, automaton = stress_state.problem
    assert_row_gains_match_window_oracle(plant, model, automaton, stress_state.padded_config,
                                         stress_state.padded.Q, stress_state.padded.Z)


def test_row_gains_match_window_oracle_x0_bound(switching_setup):
    """Random M=2 N=3 taps at x0_bound 7.5 on an automaton without two attacked steps in a row."""
    plant, model, _, _ = switching_setup
    scaled = dataclasses.replace(plant, x0_bound=7.5)
    automaton = SwitchingAutomaton(2, allowed=[[1, 1], [1, 0]])
    config = SynthesisConfig(memory=2, fir_length=3)
    variables = decision_variables(automaton, config, plant.n, model.p)
    Q, Z = variables.unpack(np.random.default_rng(16).uniform(-1, 1, variables.count))
    assert_row_gains_match_window_oracle(scaled, model, automaton, config, Q, Z)


def assert_sampled_norms_match_oracle(plant, model, automaton, config, result):
    """certify's batched sampled norms equal the dict oracle's per-sequence loop."""
    residual, performance = sampled_norms_loop(plant, model, automaton, config, result, seed=3)
    report = certify(plant, model, automaton, config, result, seed=3)
    assert report["max_sampled_residual_norm"] == max([0.0] + residual)
    assert report["max_sampled_performance_norm"] == max([0.0] + performance)
    rng = np.random.default_rng(3)
    H = config.verify_horizon
    sigmas = [automaton.random_sequence(H, rng) for _ in range(config.verify_samples)]
    for which, oracle in ((0, residual), (1, performance)):
        op = factor_operators(plant, result.Q, result.Z, model, sigmas, H,
                              automaton.padding_mode)[which]
        assert op.batch_shape == (config.verify_samples,)
        assert induced_norm(op).tolist() == oracle


@pytest.mark.parametrize("nominal, memory, fir_length, mode, eps_bar", DEMO_DESIGNS)
def test_certify_norms_match_dict_oracle_demo_designs(demo_design, nominal, memory, fir_length,
                                                      mode, eps_bar):
    assert_sampled_norms_match_oracle(*demo_design(nominal, memory, fir_length, mode, eps_bar))


def test_certify_norms_match_dict_oracle_stress(stress_state):
    """The `stress` workload's certify state: the frozen N=5 design padded to N=10."""
    plant, model, automaton = stress_state.problem
    assert_sampled_norms_match_oracle(plant, model, automaton, stress_state.padded_config,
                                      stress_state.padded)


# float.hex of certify's report on the `stress` state at seed 1
STRESS_CERTIFY = {
    "gamma_rows": "0x1.040000000000bp+5",
    "eps_rows": "0x1.ac7e6dcf89083p-41",
    "max_sampled_residual_norm": "0x1.ac793f7ce5243p-41",
    "max_sampled_performance_norm": "0x1.040000000000bp+5",
}


def test_stress_certify_is_pinned(stress_state):
    """certify on the padded N=10 `stress` design, bit for bit: the row gains
    over its 1024 windows and the norms along its 20 drawn sequences."""
    plant, model, automaton = stress_state.problem
    report = certify(plant, model, automaton, stress_state.padded_config, stress_state.padded,
                     seed=1)
    assert {key: report[key].hex() for key in STRESS_CERTIFY} == STRESS_CERTIFY


@pytest.mark.parametrize("chunk", [1, 7 * 30 + 1, synthesis.CHUNK])
def test_sampled_norms_in_chunks_equal_one_band(switching_synthesis, switching_setup,
                                                monkeypatch, chunk):
    """`_sampled_norms` gives the norms of one band over every sequence, bit
    for bit, whether its chunks hold one sequence, seven (the last one
    ragged) or all forty."""
    plant, model, automaton, _ = switching_setup
    result = switching_synthesis[0]
    rng = np.random.default_rng(5)
    sigmas = [automaton.random_sequence(30, rng) for _ in range(40)]
    E, Phi = factor_operators(plant, result.Q, result.Z, model, sigmas, 30,
                              automaton.padding_mode)
    monkeypatch.setattr(synthesis, "CHUNK", chunk)
    found = _sampled_norms(plant, model, result.Q, result.Z, sigmas, 30, automaton.padding_mode)
    assert [norms.tobytes() for norms in found] == [induced_norm(E).tobytes(),
                                                    induced_norm(Phi).tobytes()]


def test_sampled_norms_peak_is_bounded_by_the_chunk(switching_synthesis, switching_setup):
    """512 sequences of 128 steps, four chunks: the norms are the one band's
    and the traced peak is at most 60% of that band's (40 MB against 88 MB)."""
    plant, model, automaton, _ = switching_setup
    result = switching_synthesis[0]
    rng = np.random.default_rng(6)
    sigmas = [automaton.random_sequence(128, rng) for _ in range(512)]

    def one_band():
        E, Phi = factor_operators(plant, result.Q, result.Z, model, sigmas, 128,
                                  automaton.padding_mode)
        return induced_norm(E), induced_norm(Phi)

    found, peaks = [], []
    for build in (one_band, lambda: _sampled_norms(plant, model, result.Q, result.Z, sigmas,
                                                   128, automaton.padding_mode)):
        tracemalloc.start()
        try:
            found.append([norms.tobytes() for norms in build()])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert found[0] == found[1]
    assert peaks[1] < 0.6 * peaks[0]


def assert_factor_operators_match_oracle(plant, model, automaton, Q, Z, sigmas, horizon):
    """factor_operators along one sequence and along the batch `sigmas` equals
    the dict algebra's residual and performance operators of each sequence:
    equal unrolled matrices and equal induced norms."""
    pad = automaton.padding_mode
    oracles = [(dict_residual_operator(plant, Q, Z, model, sigma, horizon, pad),
                dict_performance_operator(plant, Q, Z, model, sigma, horizon, pad))
               for sigma in sigmas]
    single = factor_operators(plant, Q, Z, model, sigmas[0], horizon, pad)
    batch = factor_operators(plant, Q, Z, model, sigmas, horizon, pad)
    for op, ops, oracle in zip(single, batch, zip(*oracles)):
        assert op.batch_shape == () and ops.batch_shape == (len(sigmas),)
        assert np.array_equal(unroll(op), oracle[0].unroll())
        assert induced_norm(op) == dict_induced_norm(oracle[0])
        for dense, expected in zip(unroll(ops), oracle):
            assert np.array_equal(dense, expected.unroll())
        assert induced_norm(ops).tolist() == list(map(dict_induced_norm, oracle))


@st.composite
def factor_operator_cases(draw):
    """A row_gain_cases draw with a plant bound from {1, 0.375, 6}, a
    horizon in 1..W+3 (the rows before W read padded windows) and one to
    three admissible sequences."""
    plant, model, automaton, config, Q, Z = draw(row_gain_cases())
    plant = dataclasses.replace(plant, x0_bound=draw(st.sampled_from([1.0, 0.375, 6.0])))
    horizon = draw(st.integers(1, config.window + 3))
    found = admissible_sequences(automaton, horizon)
    assume(found)
    picks = draw(st.lists(st.integers(0, len(found) - 1), min_size=1, max_size=3))
    return plant, model, automaton, Q, Z, [found[i] for i in picks], horizon


@settings(max_examples=60, deadline=None)
@given(factor_operator_cases())
def test_factor_operators_match_dict_oracle_random(case):
    assert_factor_operators_match_oracle(*case)


@pytest.mark.parametrize("memory, fir_length", [(2, 1), (3, 2)])
def test_factor_operators_match_dict_oracle_memory_above_length(switching_setup, memory,
                                                                 fir_length):
    """Random taps on the demo problem with M > N, so the tap history reaches
    further back than the lags, at a bound of 2.5 and every horizon 1..M+3."""
    plant, model, automaton, _ = switching_setup
    plant = dataclasses.replace(plant, x0_bound=2.5)
    config = SynthesisConfig(memory=memory, fir_length=fir_length)
    variables = decision_variables(automaton, config, plant.n, model.p)
    rng = np.random.default_rng(memory)
    Q, Z = variables.unpack(rng.uniform(-1, 1, variables.count))
    for horizon in range(1, memory + 4):
        sigmas = [automaton.random_sequence(horizon, rng) for _ in range(3)]
        assert_factor_operators_match_oracle(plant, model, automaton, Q, Z, sigmas, horizon)


def assert_factor_rows_match_window_oracle(plant, model, automaton, Q, Z):
    """`factor_rows`, gathered from the (tap history, lag mode) table, equals
    the rows built per window byte for byte, signed zeros included: at every
    t in 0..W, for one admissible window, for all of them and for a batch of
    two such stacks."""
    W = max(Q.memory, Q.fir_length)
    windows = history_array(automaton, W)
    for t in range(W + 1):
        for modes in (windows[0], windows, np.stack([windows, windows[::-1]])):
            for found, oracle in zip(factor_rows(plant, model, Q, Z, modes, t),
                                     window_factor_rows(plant, model, Q, Z, modes, t)):
                assert found.shape == oracle.shape
                assert found.tobytes() == oracle.tobytes()


@settings(max_examples=40, deadline=None)
@given(row_gain_cases())
def test_factor_rows_match_window_oracle_random(case):
    plant, model, automaton, _, Q, Z = case
    assert_factor_rows_match_window_oracle(plant, model, automaton, Q, Z)


@pytest.mark.parametrize("memory, fir_length", [(2, 1), (3, 2), (1, 3)])
def test_factor_rows_match_window_oracle_three_modes(switching_setup, memory, fir_length):
    """A three-mode automaton (mode 2 drops the first channel and must be
    followed by the nominal mode, padding mode 1), with the tap history
    reaching further back than the lags and not."""
    plant = switching_setup[0]
    model = build_modes(plant, [[1, 2], [1], [2]])
    automaton = SwitchingAutomaton(3, allowed=[[True, True, True], [True, True, True],
                                               [True, False, False]], padding_mode=1)
    config = SynthesisConfig(memory=memory, fir_length=fir_length)
    variables = decision_variables(automaton, config, plant.n, model.p)
    rng = np.random.default_rng(10 * memory + fir_length)
    Q, Z = variables.unpack(rng.uniform(-1, 1, variables.count))
    assert_factor_rows_match_window_oracle(plant, model, automaton, Q, Z)


def assert_factor_operators_match_distinct_windows(plant, model, automaton, Q, Z, sigmas,
                                                   horizon):
    """factor_operators equals the rows built once per distinct padded window
    and gathered per sequence, byte for byte."""
    found = factor_operators(plant, Q, Z, model, sigmas, horizon, automaton.padding_mode)
    oracle = distinct_window_factor_operators(plant, Q, Z, model, sigmas, horizon,
                                              automaton.padding_mode)
    for op, band in zip(found, oracle):
        assert op.band.shape == band.shape
        assert op.band.tobytes() == band.tobytes()


@settings(max_examples=40, deadline=None)
@given(factor_operator_cases())
def test_factor_operators_match_distinct_windows_random(case):
    assert_factor_operators_match_distinct_windows(*case)


def test_factor_operators_match_distinct_windows_stress(stress_state):
    """The sequences `certify` samples in the `stress` workload, on the
    frozen N=5 design padded to N=10 (1024 windows)."""
    plant, model, automaton = stress_state.problem
    config = stress_state.padded_config
    rng = np.random.default_rng(stress_state.seed)
    sigmas = [automaton.random_sequence(config.verify_horizon, rng)
              for _ in range(config.verify_samples)]
    assert_factor_operators_match_distinct_windows(plant, model, automaton, stress_state.padded.Q,
                                                   stress_state.padded.Z, sigmas,
                                                   config.verify_horizon)


def test_row_gains_match_oracle_zero_padded(switching_synthesis, switching_setup):
    """The N=5 switching design zero-padded to N=10: 1024 windows."""
    result, _ = switching_synthesis
    plant, model, automaton, config = switching_setup
    padded = dataclasses.replace(config, fir_length=10)

    def pad(fir):
        coeffs = dict(fir.coeffs)
        for hist in fir.histories():
            for lag in range(fir.fir_length, 10):
                coeffs[(hist, lag)] = np.zeros((fir.out_dim, fir.in_dim))
        return dataclasses.replace(fir, fir_length=10, coeffs=coeffs)

    assert_row_gains_match_oracle(plant, model, automaton, padded,
                                  pad(result.Q), pad(result.Z))


@pytest.mark.parametrize("x0_bound", [0.0, 0.5, 10.0])
def test_x0_bound_scales_the_initial_condition_block(switching_setup, x0_bound):
    """The LP, the row gains and the performance operator weigh the I + Q
    block by plant.x0_bound; the LP and gains equal the symbolic oracle's."""
    plant, model, automaton, _ = switching_setup
    scaled = dataclasses.replace(plant, x0_bound=x0_bound)
    exact = SynthesisConfig(memory=1, fir_length=2)
    for config in (exact, dataclasses.replace(exact, mode="relaxed", eps_bar=0.25)):
        variables = decision_variables(automaton, config, plant.n, model.p)
        oracle_vars = symbolic_variables(automaton, config, plant.n, model.p)
        oracle = assemble_symbolic_lp(
            build_residual_rows(scaled, model, automaton, config, oracle_vars),
            build_performance_rows(scaled, model, automaton, config, oracle_vars),
            config, oracle_vars)
        assert format_lp(assemble_lp(scaled, model, automaton, config, variables)) == \
            format_lp(oracle)
    rng = np.random.default_rng(14)
    Q, Z = variables.unpack(rng.uniform(-1, 1, variables.count))
    assert_row_gains_match_oracle(scaled, model, automaton, exact, Q, Z)
    sigmas = [automaton.random_sequence(8, rng) for _ in range(3)]
    unit = factor_operators(plant, Q, Z, model, sigmas, 8)[1].band
    band = factor_operators(scaled, Q, Z, model, sigmas, 8)[1].band
    m_w = plant.m_w
    assert np.array_equal(band[..., :m_w], unit[..., :m_w])
    assert np.array_equal(band[..., m_w:], x0_bound * unit[..., m_w:])


@pytest.mark.parametrize("setup, x0_bound", [("nominal_setup", 1.4516908135285954e-10),
                                             ("nominal_setup", 1e-8),
                                             ("nominal_setup", 2.0 ** -24),
                                             ("nominal_setup", 7.5712802970510085),
                                             ("nominal_setup", 8.154075771907006),
                                             ("nominal_setup", 9.473097339470852),
                                             ("switching_setup", 0.01),
                                             ("switching_setup", 2.0 ** -24)])
def test_x0_bound_the_tableau_fails_on_is_certified(setup, x0_bound, request):
    """On these bounds the tableau simplex loses accuracy in phase 1 (it
    raised LpNumericalError); the re-solve succeeds and the bound still
    covers every attack."""
    plant, model, automaton, config = request.getfixturevalue(setup)
    plant = dataclasses.replace(plant, x0_bound=x0_bound)
    result = synthesize(plant, model, automaton, config)
    for strategy in ("exhaustive", "greedy"):
        value = attack_search(plant, model, result, automaton, 6, strategy)[1]
        assert value <= result.certified_bound * (1 + 1e-9)

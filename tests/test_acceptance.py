"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines as they execute.
"""
import numpy as np

from switchguard.lp_solver import LE, LinearProgram, solve
from switchguard.operator_core import apply, induced_norm
from switchguard.simulate import (Scenario, attack_search, make_trace,
                                  worst_case_inputs)
from switchguard.switched_model import broadcast_taps
from switchguard.synthesis import SynthesisConfig, SynthesisInfeasibleError, synthesize
from util import (DictOperator, dict_add, dict_compose, max_abs_row_sum,
                  parametrization_residual, random_box_lp, random_operator, random_signal,
                  resolvent_of_state, unroll, vertex_minimum)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_nominal_reproduction(nominal_synthesis):
    result, elapsed = nominal_synthesis
    ok = abs(result.gamma_bar - 5.0275) <= 0.01 * 5.0275 and elapsed < 10.0
    _report(1, ok, f"nominal gamma_bar={result.gamma_bar:.6f} (target 5.0275 +-1%), "
                   f"runtime {elapsed:.2f}s < 10s")


def test_criterion_2_switching_reproduction(switching_synthesis, switching_setup):
    result, elapsed = switching_synthesis
    plant, model, automaton, config = switching_setup
    relaxed_cfg = SynthesisConfig(memory=config.memory, fir_length=config.fir_length,
                                  mode="relaxed", eps_bar=0.1)
    relaxed = synthesize(plant, model, automaton, relaxed_cfg)
    ok = result.gamma_bar <= 32.83 and elapsed < 300.0
    _report(2, ok, f"switching gamma_bar={result.gamma_bar:.6f} <= 32.83 (exact attempt), "
                   f"relaxed attempt eps_bar=0.1: gamma_bar={relaxed.gamma_bar:.4f} "
                   f"certified={relaxed.certified_bound:.4f}; runtime {elapsed:.1f}s < 300s")


def test_criterion_3_parametrization_identity(nominal_synthesis, nominal_setup,
                                              switching_synthesis, switching_setup):
    rng = np.random.default_rng(100)
    worst = 0.0
    for (result, _), (plant, model, automaton, _) in (
            (nominal_synthesis, nominal_setup), (switching_synthesis, switching_setup)):
        for _ in range(20):
            sigma = automaton.random_sequence(30, rng)
            worst = max(worst, parametrization_residual(result.T, result.Q, plant,
                                                        model, sigma, 30))
    ok = worst <= 1e-7
    _report(3, ok, f"max parametrization residual over 20 sigma x 2 results, "
                   f"horizon 30: {worst:.3e} <= 1e-7")


def test_criterion_4_operator_oracle_suite():
    rng = np.random.default_rng(101)
    H = 8
    worst = 0.0
    for _ in range(100):
        R = random_operator(rng, H, 3, 2)
        S = random_operator(rng, H, 4, 3)
        product = dict_compose(DictOperator.of(R), DictOperator.of(S))
        worst = max(worst, float(np.max(np.abs(product.unroll() - unroll(R) @ unroll(S)))))
    for _ in range(100):
        R = random_operator(rng, H, 3, 2)
        S = random_operator(rng, H, 3, 2)
        total = dict_add(DictOperator.of(R), DictOperator.of(S))
        worst = max(worst, float(np.max(np.abs(total.unroll() - (unroll(R) + unroll(S))))))
    for _ in range(100):
        R = random_operator(rng, H, 3, 2)
        u = random_signal(rng, H, 3)
        worst = max(worst, float(np.max(np.abs(
            apply(R, u).samples.reshape(-1) - unroll(R) @ u.samples.reshape(-1)))))
    for _ in range(100):
        R = random_operator(rng, H, 2, 3)
        dense = unroll(R)
        expected = max(max_abs_row_sum(dense[t * 3:(t + 1) * 3]) for t in range(H))
        worst = max(worst, abs(induced_norm(R) - expected))
    for _ in range(100):
        n = int(rng.integers(1, 4))
        A = rng.uniform(-1.5, 1.5, (n, n))
        res = resolvent_of_state(A, H)
        left = np.eye(n * H) - np.kron(np.eye(H, k=-1), A)  # I - shift(A)
        worst = max(worst, float(np.max(np.abs(unroll(res) - np.linalg.inv(left)))))
    ok = worst <= 1e-9
    _report(4, ok, f"500 oracle comparisons (compose/add/apply/norm/resolvent), "
                   f"max deviation {worst:.3e} <= 1e-9")


def test_criterion_5_observer_equivalence(switching_synthesis, switching_setup):
    from switchguard.simulate import run_fir_estimator, run_glo, simulate_plant
    result, _ = switching_synthesis
    plant, model, automaton, _ = switching_setup
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(20):
        H = 15
        sigma = automaton.random_sequence(H, rng)
        scen = Scenario(sigma=sigma, w=random_signal(rng, H, 2),
                        x0=rng.uniform(-1, 1, 3), horizon=H)
        _, y = simulate_plant(plant, model, scen)
        fir = run_fir_estimator(result.T, y, sigma)
        glo = run_glo(result.Q, result.Z, plant, model, y, sigma)
        worst = max(worst, float(np.max(np.abs(fir.samples - glo.samples))))
    ok = worst <= 1e-9
    _report(5, ok, f"observer vs FIR estimator on 20 random scenarios: "
                   f"max deviation {worst:.3e} <= 1e-9")


def test_criterion_6_bound_soundness(switching_synthesis, switching_setup,
                                     nominal_synthesis, nominal_setup):
    result, _ = switching_synthesis
    plant, model, automaton, _ = switching_setup
    rng = np.random.default_rng(103)
    worst_ratio = 0.0
    for _ in range(200):
        H = 20
        sigma = automaton.random_sequence(H, rng)
        w = random_signal(rng, H, 2)
        x0 = rng.uniform(-1, 1, 3)
        scen = Scenario(sigma=sigma, w=w, x0=x0, horizon=H)
        trace = make_trace(plant, model, result, scen)
        level = max(w.norm(), float(np.max(np.abs(x0))), 1e-12)
        worst_ratio = max(worst_ratio, trace.sup_error / (result.certified_bound * level))
    nominal, _ = nominal_synthesis
    n_plant, n_model, _, _ = nominal_setup
    scen_n, value_n = worst_case_inputs(n_plant, n_model, nominal, (0,) * 12, 12)
    attained_n = make_trace(n_plant, n_model, nominal, scen_n).sup_error
    sigma_s = automaton.random_sequence(12, rng)
    scen_s, value_s = worst_case_inputs(plant, model, result, sigma_s, 12)
    attained_s = make_trace(plant, model, result, scen_s).sup_error
    witness_err = max(abs(attained_n - value_n), abs(attained_s - value_s))
    ok = worst_ratio <= 1.0 + 1e-6 and witness_err <= 1e-6
    _report(6, ok, f"200 scenarios: max error/certified ratio {worst_ratio:.6f} <= 1+1e-6; "
                   f"witness attainment gap {witness_err:.3e} <= 1e-6")


def test_criterion_7_attack_search(switching_synthesis, switching_setup,
                                   nominal_synthesis):
    result, _ = switching_synthesis
    plant, model, automaton, _ = switching_setup
    _, resilient_value = attack_search(plant, model, result, automaton, 12, "exhaustive")
    nominal, _ = nominal_synthesis
    blind = broadcast_taps(nominal.T, automaton)
    growth = [attack_search(plant, model, blind, automaton, H, "exhaustive")[1]
              for H in (6, 9, 12)]
    ok = (resilient_value <= result.gamma_bar + 1e-9
          and growth[0] < growth[1] < growth[2]
          and growth[2] > 4.0 * growth[0])
    _report(7, ok, f"resilient exhaustive value {resilient_value:.3f} <= "
                   f"gamma_bar {result.gamma_bar:.3f}; nominal-only values grow "
                   f"{growth[0]:.1f} -> {growth[1]:.1f} -> {growth[2]:.1f}")


def test_criterion_8_lp_oracle_and_determinism():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 9))
        c, A, b, lo, hi, G, h = random_box_lp(rng, n, m)
        status, oracle = vertex_minimum(c, G, h)
        # the box is written as rows of G x <= h over free x
        sol = solve(LinearProgram(n, c, constraints=[(G[i], LE, h[i]) for i in range(len(h))]))
        assert status == "optimal" and sol.status == "optimal"
        worst = max(worst, abs(sol.objective - oracle))
    c, A, b, lo, hi, G, h = random_box_lp(rng, 5, 6)

    def fresh():
        rows = [(G[i].copy(), LE, float(h[i])) for i in range(len(h))]
        return solve(LinearProgram(5, c.copy(), constraints=rows))

    deterministic = fresh().values.tobytes() == fresh().values.tobytes()
    ok = worst <= 1e-6 and deterministic
    _report(8, ok, f"100 LPs vs vertex enumeration: max gap {worst:.3e} <= 1e-6; "
                   f"byte-identical re-solve: {deterministic}")


def test_criterion_9_monotonicity_sweep(switching_setup, nominal_setup):
    def gamma_at(setup, N):
        plant, model, automaton, config = setup
        cfg = SynthesisConfig(memory=config.memory, fir_length=N, mode="exact")
        try:
            return synthesize(plant, model, automaton, cfg).gamma_bar
        except SynthesisInfeasibleError:
            return np.inf

    nominal_sweep = [gamma_at(nominal_setup, N) for N in (2, 3, 4, 5)]
    switching_sweep = [gamma_at(switching_setup, N) for N in (2, 3, 4, 5)]
    mono = all(a >= b - 1e-9 for a, b in zip(nominal_sweep, nominal_sweep[1:]))
    mono_sw = all(a >= b - 1e-9 for a, b in zip(switching_sweep, switching_sweep[1:]))
    ok = mono and mono_sw and np.isfinite(switching_sweep[-1])
    fmt = lambda xs: ", ".join("inf" if not np.isfinite(v) else f"{v:.4f}" for v in xs)
    _report(9, ok, f"gamma(N) nominal: [{fmt(nominal_sweep)}]; "
                   f"switching: [{fmt(switching_sweep)}] (both non-increasing)")

"""Time-domain harness: plant simulation, estimators, worst-case inputs, attack search.

Scenarios carry the attack sequence, the disturbance, and an initial
condition injected at a chosen time (the embedded-initial-condition
convention: the state gets an additive kick of x0 at time x0_time, zero
state before).  Worst-case construction reads the error operator's kernel
directly: disturbances excite a full lag window with sign patterns, the
initial condition excites exactly one lag, maximized over injection times.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operator_core as oc
from .operator_core import Signal, TruncatedOperator
from .switched_model import (ChannelPlant, SwitchedOutputModel, SwitchingAutomaton,
                             SwitchingFIR, history_at, instantiate, lift_outputs)
from .synthesis import SynthesisResult, performance_operator, residual_operator

__all__ = [
    "Scenario",
    "Trace",
    "simulate_plant",
    "run_fir_estimator",
    "run_glo",
    "run_estimator",
    "error_operator",
    "worst_case_inputs",
    "attack_search",
    "make_trace",
]


@dataclass(frozen=True)
class Scenario:
    """Attack sequence, disturbance, and initial condition for one run."""

    sigma: tuple
    w: Signal
    x0: np.ndarray
    horizon: int
    x0_time: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sigma", tuple(int(m) for m in self.sigma))
        x0 = np.asarray(self.x0, dtype=float).reshape(-1)
        x0 = x0.copy()
        x0.flags.writeable = False
        object.__setattr__(self, "x0", x0)
        if len(self.sigma) != self.horizon or self.w.horizon != self.horizon:
            raise ValueError("sigma and w lengths must equal the horizon")
        if not (0 <= self.x0_time < self.horizon):
            raise ValueError("x0_time must lie inside the horizon")

    def validate(self, plant: ChannelPlant, automaton: SwitchingAutomaton | None = None) -> None:
        if self.x0.shape != (plant.n,):
            raise ValueError(f"scenario.x0 has shape {self.x0.shape}, expected ({plant.n},)")
        if self.w.dim != plant.m_w:
            raise ValueError(f"scenario.w has dim {self.w.dim}, expected {plant.m_w}")
        if float(np.max(np.abs(self.x0), initial=0.0)) > plant.x0_bound + 1e-12:
            raise ValueError("scenario.x0 exceeds the plant's initial-condition bound")
        if automaton is not None and not automaton.is_admissible(self.sigma):
            raise ValueError("scenario.sigma is not an admissible sequence of the automaton")


@dataclass(frozen=True)
class Trace:
    """State, received measurements, estimate and error of one scenario run."""

    x: Signal
    y_a: Signal
    x_hat: Signal
    e: Signal
    sup_error: float


def simulate_plant(plant: ChannelPlant, model: SwitchedOutputModel,
                   scenario: Scenario) -> tuple[Signal, Signal]:
    """x(t+1) = A x(t) + B w(t) with the x0 kick at x0_time;
    y_a(t) = C^{sigma(t)} x(t) + D^{sigma(t)} w(t)."""
    H = scenario.horizon
    n = plant.n
    w = scenario.w.samples
    x = np.zeros((H, n))
    for t in range(H):
        if t == 0:
            x[0] = scenario.x0 if scenario.x0_time == 0 else 0.0
        else:
            x[t] = plant.A @ x[t - 1] + plant.B @ w[t - 1]
            if t == scenario.x0_time:
                x[t] = x[t] + scenario.x0
    y = np.zeros((H, model.p))
    for t in range(H):
        j = scenario.sigma[t]
        y[t] = model.C(j) @ x[t] + model.D(j) @ w[t]
    return Signal(x), Signal(y)


def run_fir_estimator(T: SwitchingFIR, y_a: Signal, sigma,
                      padding_mode: int = 0) -> Signal:
    """Convolve the received measurements with the window-selected taps."""
    return oc.apply(instantiate(T, sigma, y_a.horizon, padding_mode), y_a)


def run_glo(Q: SwitchingFIR, Z: SwitchingFIR, plant: ChannelPlant,
            model: SwitchedOutputModel, y_a: Signal, sigma,
            padding_mode: int = 0) -> Signal:
    """Observer recursion with operator gain factored as (I + Q)^{-1} Z.

    Runs (I + Q) xhat = (I + Q) shift(A) xhat + Z (Cbar xhat - y_a) step
    by step; the lag-0 algebraic loop is closed by a linear solve whose
    matrix is I - (Z_0 C^{sigma(t)} - Q_0).  For zero-residual factors the
    output coincides with the FIR estimator T = -Z.
    """
    H = y_a.horizon
    n, N = plant.n, Q.fir_length
    A = plant.A
    xh = np.zeros((H, n))
    y = y_a.samples
    for t in range(H):
        hist = history_at(sigma, t, Q.memory, padding_mode)
        j = int(sigma[t])
        solve_mat = np.eye(n) - (Z.tap(hist, 0) @ model.C(j) - Q.tap(hist, 0))
        rhs = np.zeros(n)
        for k in range(1, min(t, N - 1) + 1):
            mode_k = int(sigma[t - k])
            rhs += (Z.tap(hist, k) @ model.C(mode_k) - Q.tap(hist, k)) @ xh[t - k]
        if t >= 1:
            rhs += A @ xh[t - 1]
        for k in range(1, min(t, N) + 1):
            rhs += Q.tap(hist, k - 1) @ (A @ xh[t - k])
        for k in range(min(t, N - 1) + 1):
            rhs -= Z.tap(hist, k) @ y[t - k]
        if oc.is_singular(solve_mat):
            raise np.linalg.LinAlgError(
                f"singular lag-0 solve for history {hist} at time {t}")
        xh[t] = np.linalg.solve(solve_mat, rhs)
    return Signal(xh)


def run_estimator(estimator, plant: ChannelPlant, model: SwitchedOutputModel,
                  y_a: Signal, sigma, padding_mode: int = 0) -> Signal:
    """Dispatch: FIR taps run directly, synthesis results run the observer."""
    if isinstance(estimator, SwitchingFIR):
        return run_fir_estimator(estimator, y_a, sigma, padding_mode)
    if isinstance(estimator, SynthesisResult):
        return run_glo(estimator.Q, estimator.Z, plant, model, y_a, sigma, padding_mode)
    raise TypeError(f"unsupported estimator type {type(estimator).__name__}")


def error_operator(plant: ChannelPlant, model: SwitchedOutputModel, estimator,
                   sigma, horizon: int, padding_mode: int = 0) -> TruncatedOperator:
    """Map from stacked (w, embedded x0 sequence) to the estimation error.

    For plain FIR taps T: (T Cbar - I)(I - shift(A))^{-1}[shift(B), I] + [T Dbar, 0].
    For synthesized factors: -(I - residual)^{-1} [performance blocks]; the
    resolvent factor is skipped when the residual vanished.
    """
    if isinstance(estimator, SynthesisResult):
        Phi = performance_operator(plant, estimator.Q, estimator.Z, model,
                                   sigma, horizon, padding_mode)
        if estimator.eps_achieved <= 1e-9:
            return oc.scale(Phi, -1.0)
        E = residual_operator(plant, estimator.Q, estimator.Z, model,
                              sigma, horizon, padding_mode)
        eye = oc.identity(plant.n, horizon)
        resolvent = oc.invert(oc.add(eye, oc.scale(E, -1.0)))
        return oc.scale(oc.compose(resolvent, Phi), -1.0)
    if isinstance(estimator, SwitchingFIR):
        n = plant.n
        T_op = instantiate(estimator, sigma, horizon, padding_mode)
        Cbar, Dbar = lift_outputs(model, sigma, horizon)
        R = oc.resolvent_of_state(plant.A, horizon)
        lam_b = oc.compose(oc.delay(1, n, horizon), oc.make_diagonal(plant.B, horizon))
        tc_minus_i = oc.add(oc.compose(T_op, Cbar), oc.scale(oc.identity(n, horizon), -1.0))
        prefix = oc.compose(tc_minus_i, R)
        w_block = oc.add(oc.compose(prefix, lam_b), oc.compose(T_op, Dbar))
        return oc.hstack(w_block, prefix)
    raise TypeError(f"unsupported estimator type {type(estimator).__name__}")


def worst_case_inputs(plant: ChannelPlant, model: SwitchedOutputModel, estimator,
                      sigma, horizon: int, padding_mode: int = 0
                      ) -> tuple[Scenario, float]:
    """Sign-pattern inputs achieving the peak realizable error along sigma.

    The disturbance excites every lag of the worst output row; the initial
    condition, which can hit only a single lag, is injected at the time
    that maximizes its one-lag contribution (scaled to the plant's bound).
    Simulating the returned scenario reproduces the returned value.
    """
    sigma = tuple(sigma)[:horizon]
    E = error_operator(plant, model, estimator, sigma, horizon, padding_mode)
    m_w, n = plant.m_w, plant.n
    bound = plant.x0_bound
    best = (-1.0, 0, 0, 0)  # value, t, row, x0 lag
    for t in range(horizon):
        w_sum = np.zeros(E.out_dim)
        x0_best = np.zeros(E.out_dim)
        x0_lag = np.zeros(E.out_dim, dtype=int)
        for k, mat in E.row(t):
            w_sum += np.sum(np.abs(mat[:, :m_w]), axis=1)
            x0_rows = np.sum(np.abs(mat[:, m_w:]), axis=1)
            better = x0_rows > x0_best
            x0_best[better] = x0_rows[better]
            x0_lag[better] = k
        values = w_sum + bound * x0_best
        for i in range(E.out_dim):
            if values[i] > best[0] + 1e-15:
                best = (float(values[i]), t, i, int(x0_lag[i]))
    value, t_star, i_star, k0 = best
    w = np.zeros((horizon, m_w))
    for k, mat in E.row(t_star):
        w[t_star - k] = np.sign(mat[i_star, :m_w])
    x0 = bound * np.sign(E.entry(t_star, k0)[i_star, m_w:])
    scenario = Scenario(sigma=sigma, w=Signal(w), x0=x0, horizon=horizon,
                        x0_time=t_star - k0)
    return scenario, max(value, 0.0)


def attack_search(plant: ChannelPlant, model: SwitchedOutputModel, estimator,
                  automaton: SwitchingAutomaton, horizon: int,
                  strategy: str = "exhaustive") -> tuple[tuple, float]:
    """Search admissible attack sequences for the largest realizable error.

    exhaustive: evaluates every admissible sequence (guarded by a size cap)
    and is a true maximizer.  greedy: extends one step at a time, keeping
    the mode whose prefix admits the worst inputs; deterministic and cheap,
    but only a lower bound on the exhaustive value.
    """
    pad = automaton.padding_mode
    if strategy == "exhaustive":
        if automaton.mode_count ** horizon > 2 ** 20:
            raise ValueError(
                f"exhaustive search over {automaton.mode_count}^{horizon} sequences "
                "exceeds the 2^20 cap; use strategy='greedy'")
        best_sigma, best_value = None, -1.0
        for sigma in automaton.admissible_sequences(horizon):
            _, value = worst_case_inputs(plant, model, estimator, sigma, horizon, pad)
            if value > best_value + 1e-15:
                best_sigma, best_value = sigma, value
        return best_sigma, best_value
    if strategy == "greedy":
        prefix: tuple[int, ...] = ()
        for t in range(horizon):
            choices = automaton.successors(prefix[-1] if prefix else None)
            if not choices:
                raise ValueError(f"automaton dead-ends after prefix {prefix}")
            pick, pick_value = choices[0], -1.0
            for b in choices:
                _, value = worst_case_inputs(plant, model, estimator, prefix + (b,), t + 1, pad)
                if value > pick_value + 1e-15:
                    pick, pick_value = b, value
            prefix += (pick,)
        _, value = worst_case_inputs(plant, model, estimator, prefix, horizon, pad)
        return prefix, value
    raise ValueError(f"unknown strategy '{strategy}'")


def make_trace(plant: ChannelPlant, model: SwitchedOutputModel, estimator,
               scenario: Scenario, padding_mode: int = 0) -> Trace:
    """Simulate the plant, run the estimator, and collect the error trace."""
    x, y_a = simulate_plant(plant, model, scenario)
    x_hat = run_estimator(estimator, plant, model, y_a, scenario.sigma, padding_mode)
    e = Signal(x_hat.samples - x.samples)
    return Trace(x=x, y_a=y_a, x_hat=x_hat, e=e, sup_error=e.norm())

"""Shared helpers for the test suite: random objects and brute-force oracles."""
from __future__ import annotations

import itertools

import numpy as np

from switchguard import operator_core as oc
from switchguard.lp_solver import PIVOT_TOL, LpNumericalError
from switchguard.operator_core import Signal, TruncatedOperator
from switchguard.simulate import Scenario
from switchguard.switched_model import SwitchingFIR, instantiate, lift_outputs
from switchguard.synthesis import (DecisionVariables, SynthesisResult, performance_operator,
                                   residual_operator)


def random_operator(rng: np.random.Generator, horizon: int, in_dim: int, out_dim: int,
                    density: float = 0.7) -> TruncatedOperator:
    kernel = {}
    for t in range(horizon):
        for k in range(t + 1):
            if rng.random() < density:
                kernel[(t, k)] = rng.uniform(-1.0, 1.0, (out_dim, in_dim))
    return TruncatedOperator(horizon, in_dim, out_dim, kernel)


def random_signal(rng: np.random.Generator, horizon: int, dim: int) -> Signal:
    return Signal(rng.uniform(-1.0, 1.0, (horizon, dim)))


def dense_blockdiag(blocks) -> np.ndarray:
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def max_abs_row_sum(mat: np.ndarray) -> float:
    return float(np.max(np.sum(np.abs(mat), axis=1)))


def vertex_minimum(c: np.ndarray, G: np.ndarray, h: np.ndarray):
    """Brute-force LP oracle: min c.x over {x : G x <= h} via vertex enumeration.

    Assumes the feasible set is bounded (box rows included in G), so a
    nonempty set has an optimal vertex.  Returns (status, value).
    """
    n = len(c)
    best = None
    for idx in itertools.combinations(range(len(h)), n):
        M = G[list(idx)]
        d = h[list(idx)]
        try:
            x = np.linalg.solve(M, d)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        if np.all(G @ x <= h + 1e-9):
            v = float(c @ x)
            if best is None or v < best:
                best = v
    if best is None:
        return "infeasible", None
    return "optimal", best


def random_box_lp(rng: np.random.Generator, n: int, m: int):
    """Random feasible LP over a box: returns (c, A, b, lo, hi, G, h).

    G/h fold the box bounds into inequality rows for the oracle.
    """
    c = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    lo = rng.uniform(-3.0, -1.0, size=n)
    hi = rng.uniform(1.0, 3.0, size=n)
    x_feas = rng.uniform(lo, hi)
    b = A @ x_feas + rng.uniform(0.1, 1.0, size=m)
    G = np.vstack([A, np.eye(n), -np.eye(n)])
    h = np.concatenate([b, hi, -lo])
    return c, A, b, lo, hi, G, h


def dense_pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Reference simplex pivot: the rank-1 update over the whole tableau."""
    piv = T[row, col]
    if abs(piv) < PIVOT_TOL:
        raise LpNumericalError(f"pivot breakdown: |{piv:.3e}| below tolerance")
    T[row] /= piv
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    basis[row] = col


def loop_initial_basis(A: np.ndarray) -> np.ndarray:
    """Reference basis scan: per row, the first unused unit column, else -1."""
    m, ncols = A.shape
    basis = np.full(m, -1, dtype=int)
    used = set()
    for i in range(m):
        for j in range(ncols):
            col = A[:, j]
            if j not in used and col[i] == 1.0 and np.count_nonzero(col) == 1:
                basis[i] = j
                used.add(j)
                break
    return basis


def random_sparse_lp(rng: np.random.Generator, n: int, m: int, density: float = 0.25):
    """Random feasible LP with sparse small-integer rows and mixed bounds.

    Returns (c, rows, bounds): rows are (coeffs, relation, rhs) with
    relation '<=' or '='; bounds mix free, one-sided and boxed variables.
    Integer coefficients and rhs values on the feasible point make
    degenerate vertices and unit columns common.
    """
    x_feas = rng.integers(-2, 3, size=n).astype(float)
    bounds = []
    for j in range(n):
        kind = rng.integers(4)
        lo = x_feas[j] - float(rng.integers(0, 3))
        hi = x_feas[j] + float(rng.integers(0, 3))
        bounds.append([(None, None), (lo, None), (None, hi), (lo, hi)][kind])
    rows = []
    for _ in range(m):
        coeffs = np.where(rng.random(n) < density,
                          rng.choice([-2.0, -1.0, 1.0, 1.0, 3.0], size=n), 0.0)
        rel = "=" if rng.random() < 0.3 else "<="
        rhs = float(coeffs @ x_feas) + (0.0 if rel == "=" else float(rng.integers(0, 3)))
        rows.append((coeffs, rel, rhs))
    # rows closing every open side keep the optimum bounded
    for j, (lo, hi) in enumerate(bounds):
        for open_side, sign in ((lo is None, -1.0), (hi is None, 1.0)):
            if open_side:
                box = np.zeros(n)
                box[j] = sign
                rows.append((box, "<=", sign * x_feas[j] + 4.0))
    c = rng.normal(size=n)
    return c, rows, bounds


def compose_chain_error_operator(plant, model, estimator, sigma, horizon: int,
                                 padding_mode: int = 0) -> TruncatedOperator:
    """Reference error operator: the whole-horizon operator-algebra product chain."""
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


def reference_worst_case_inputs(plant, E: TruncatedOperator, sigma):
    """Reference worst-case inputs read off a whole-horizon error operator E along sigma."""
    horizon = E.horizon
    m_w = plant.m_w
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


def per_sequence_attack_search(plant, model, estimator, automaton, horizon: int,
                               strategy: str = "exhaustive"):
    """Reference attack search: one whole-horizon worst case per sequence or candidate."""
    def value_of(sigma):
        E = compose_chain_error_operator(plant, model, estimator, sigma, len(sigma),
                                         automaton.padding_mode)
        return reference_worst_case_inputs(plant, E, sigma)[1]

    if strategy == "exhaustive":
        best_sigma, best_value = None, -1.0
        for sigma in automaton.admissible_sequences(horizon):
            value = value_of(sigma)
            if value > best_value + 1e-15:
                best_sigma, best_value = sigma, value
        return best_sigma, best_value
    prefix = ()
    for _ in range(horizon):
        choices = automaton.successors(prefix[-1] if prefix else None)
        pick, pick_value = choices[0], -1.0
        for b in choices:
            value = value_of(prefix + (b,))
            if value > pick_value + 1e-15:
                pick, pick_value = b, value
        prefix += (pick,)
    return prefix, value_of(prefix)


def pack(variables: DecisionVariables, Q: SwitchingFIR, Z: SwitchingFIR) -> np.ndarray:
    """Decision vector holding the taps of (Q, Z); the inverse of variables.unpack."""
    x = np.zeros(variables.count)
    for hist in variables.histories:
        for lag in range(variables.fir_length):
            qm = Q.tap(hist, lag)
            zm = Z.tap(hist, lag)
            for r in range(variables.n):
                for c in range(variables.n):
                    x[variables.var("Q", hist, lag, r, c)] = qm[r, c]
                for c in range(variables.p):
                    x[variables.var("Z", hist, lag, r, c)] = zm[r, c]
    return x


def form_value(form, x: np.ndarray) -> float:
    """Reference value of a LinearForm at x: const + (((0 + a1*x1) + a2*x2) + ...).

    Summed by an explicit loop, left to right, so the bits do not depend on
    how the interpreter's sum() adds floats.
    """
    total = 0.0
    for v, a in form.coeffs.items():
        total = total + a * x[v]
    return form.const + total


def row_gain(row, x: np.ndarray) -> float:
    """Reference gain of a ConstraintRow: its absolute entries summed left to right."""
    total = 0.0
    for _, _, form in row.entries:
        total = total + abs(form_value(form, x))
    return total


def evaluate_rows(rows, x: np.ndarray) -> np.ndarray:
    """Reference absolute row sums of symbolic constraint rows at a decision point."""
    return np.array([row_gain(row, x) for row in rows])

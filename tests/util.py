"""Shared helpers for the test suite: random objects and brute-force oracles."""
from __future__ import annotations

import itertools

import numpy as np

from switchguard.lp_solver import PIVOT_TOL, LpNumericalError
from switchguard.operator_core import Signal, TruncatedOperator


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

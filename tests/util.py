"""Shared helpers for the test suite: random objects and brute-force oracles."""
from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from switchguard.lp_solver import EQ, LE, PIVOT_TOL, LinearProgram, LpNumericalError
from switchguard.operator_core import Signal, TruncatedOperator, is_singular
from switchguard.simulate import Scenario, _ErrorKernel, _fold
from switchguard.switched_model import (ChannelPlant, SwitchedOutputModel, SwitchingAutomaton,
                                        SwitchingFIR, _distinct_rows, _mode_array,
                                        _trailing_windows)
from switchguard.synthesis import (MODE_RELAXED, DecisionVariables, SynthesisConfig,
                                   SynthesisResult, _check_dims, _kernel_terms, _pair_index,
                                   _pair_rows, _windows)


def band_operator(horizon: int, in_dim: int, out_dim: int, kernel: dict) -> TruncatedOperator:
    """The band operator of a causal kernel dict (t, k) -> matrix, absent
    entries zero; the band is as wide as the largest stored lag."""
    band = np.zeros((horizon, 1 + max((k for _, k in kernel), default=0), out_dim, in_dim))
    for (t, k), mat in kernel.items():
        band[t, k] = mat
    return TruncatedOperator(band)


def band_entry(op: TruncatedOperator, t: int, k: int) -> np.ndarray:
    """Kernel entry (t, k) of a band operator; zero outside the band."""
    if 0 <= k <= t < op.horizon and k < op.lags:
        return op.band[..., t, k, :, :]
    return np.zeros(op.batch_shape + (op.out_dim, op.in_dim))


def band_kernel(op: TruncatedOperator) -> dict[tuple[int, int], np.ndarray]:
    """Every causal entry inside the band, keyed by (t, k)."""
    return {(t, k): op.band[..., t, k, :, :]
            for t in range(op.horizon) for k in range(min(t + 1, op.lags))}


def unroll(op: TruncatedOperator) -> np.ndarray:
    """Dense (out_dim*horizon, in_dim*horizon) block lower-triangular matrix."""
    p, m, H = op.out_dim, op.in_dim, op.horizon
    dense = np.zeros(op.batch_shape + (H, H, p, m))
    for k in range(op.lags):
        t = np.arange(k, H)
        dense[..., t, t - k, :, :] = op.band[..., k:, k, :, :]
    return dense.swapaxes(-3, -2).reshape(op.batch_shape + (H * p, H * m))


def parametrization_residual(T: SwitchingFIR, Q: SwitchingFIR, plant: ChannelPlant,
                             model: SwitchedOutputModel, sigma, horizon: int,
                             padding_mode: int = 0) -> float:
    """Gain of T Cbar + X (shift(A) - I) - I with X = -I - Q.

    Vanishes exactly when (T, -Q - I) parametrize a zero-residual stable
    estimator; bounded by the relaxation level otherwise.  Formed in the
    dict oracle's algebra.
    """
    n = plant.n
    lam_a = dict_compose(dict_delay(1, n, horizon), dict_make_diagonal(plant.A, horizon))
    Cbar, _ = dict_lift_outputs(model, sigma, horizon)
    T_op = dict_instantiate(T, sigma, horizon, padding_mode)
    Q_op = dict_instantiate(Q, sigma, horizon, padding_mode)
    eye = dict_delay(0, n, horizon)
    X_op = dict_scale(dict_add(eye, Q_op), -1.0)
    lam_a_minus_i = dict_add(lam_a, dict_scale(eye, -1.0))
    total = dict_add(dict_add(dict_compose(T_op, Cbar), dict_compose(X_op, lam_a_minus_i)),
                     dict_scale(eye, -1.0))
    return dict_induced_norm(total)


def random_operator(rng: np.random.Generator, horizon: int, in_dim: int, out_dim: int,
                    density: float = 0.7) -> TruncatedOperator:
    kernel = {}
    for t in range(horizon):
        for k in range(t + 1):
            if rng.random() < density:
                kernel[(t, k)] = rng.uniform(-1.0, 1.0, (out_dim, in_dim))
    return band_operator(horizon, in_dim, out_dim, kernel)


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


def np_sum_abs_row_sums(band: np.ndarray) -> np.ndarray:
    """Reference `operator_core._abs_row_sums`: `np.sum` of each lag's
    |entries| over the inputs, the lags' sums added in ascending order."""
    total = np.sum(np.abs(band[..., 0, :, :]), axis=-1)
    for k in range(1, band.shape[-3]):
        total += np.sum(np.abs(band[..., k, :, :]), axis=-1)
    return total


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


def dense_pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int,
                column: np.ndarray) -> None:
    """Reference simplex pivot: the rank-1 update over the whole tableau.
    Reads its multipliers from T; column (the solver's copy) is unused."""
    piv = T[row, col]
    if abs(piv) < PIVOT_TOL:
        raise LpNumericalError(f"pivot breakdown: |{piv:.3e}| below tolerance")
    T[row] /= piv
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    basis[row] = col


def ix_pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int,
             column: np.ndarray) -> None:
    """Reference restricted pivot: one np.ix_ gather, outer product and
    scatter over the touched rows and columns (any memory layout).  Reads
    its rows and multipliers from T; column is unused."""
    piv = T[row, col]
    if abs(piv) < PIVOT_TOL:
        raise LpNumericalError(f"pivot breakdown: |{piv:.3e}| below tolerance")
    T[row] /= piv
    pivot_row = T[row]
    cols = np.flatnonzero(pivot_row)
    rows = np.flatnonzero(T[:, col])
    rows = rows[rows != row]
    T[np.ix_(rows, cols)] -= np.outer(T[rows, col], pivot_row[cols])
    basis[row] = col


def full_ratio_row(rhs: np.ndarray, basis: np.ndarray, column: np.ndarray) -> int:
    """Reference ratio test over every basic value rhs and entry of the
    entering column: ineligible rows get ratio inf; ties broken by smallest
    basic variable index (Bland), -1 if none."""
    m = rhs.size
    col = column[:m]
    eligible = col > PIVOT_TOL
    if not np.any(eligible):
        return -1
    ratios = np.full(m, np.inf)
    ratios[eligible] = rhs[eligible] / col[eligible]
    best = float(np.min(ratios))
    ties = np.flatnonzero(ratios <= best + PIVOT_TOL)
    return int(ties[np.argmin(basis[ties])])


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


def dense_standardize(lp: LinearProgram):
    """Reference standardization: min c.u s.t. A u = b, u >= 0 with a dense A.

    Returns (A, b, c, recover) where recover(u) yields the original vector.
    A nonnegative variable is its own column; a free one splits into the
    difference of two.
    """
    n = lp.variable_count
    first = np.zeros(n, dtype=int)  # column of each original variable
    free = []                       # free variables; their negative part is first + 1
    ncols = 0
    for j, (lo, _) in enumerate(lp.bounds):
        first[j] = ncols
        ncols += 1
        if lo is None:
            free.append(j)
            ncols += 1
    free = np.array(free, dtype=int)
    second = first[free] + 1

    def place(a: np.ndarray, out: np.ndarray) -> None:
        # adding 0.0 turns a -0.0, given or made by the negation, into +0.0
        out[first] = a + 0.0
        out[second] = -a[free] + 0.0

    m = len(lp.constraints)
    le_rows = [i for i, (_, rel, _) in enumerate(lp.constraints) if rel == LE]
    nslack = len(le_rows)
    A = np.zeros((m, ncols + nslack))
    b = np.zeros(m)
    for i, (coeffs, _, rhs) in enumerate(lp.constraints):
        place(coeffs, A[i])
        b[i] = rhs
    A[le_rows, ncols + np.arange(nslack)] = 1.0
    c = np.zeros(ncols + nslack)
    place(lp.objective, c)

    def recover(u: np.ndarray) -> np.ndarray:
        x = u[first] + 0.0
        x[free] -= u[second]
        return x

    return A, b, c, recover


def dense_tableau(lp: LinearProgram):
    """Reference phase-1 tableau with lp_solver._tableau's signature: a
    dense A from dense_standardize, its negative-rhs rows negated in one
    step, the basis of loop_initial_basis, and A copied into
    [A | art | b] above a zero objective row."""
    A, b, c, recover = dense_standardize(lp)
    m, ncols = A.shape
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0
    basis = loop_initial_basis(A)
    missing = np.flatnonzero(basis < 0)
    T = np.zeros((m + 1, ncols + missing.size + 1))
    T[:m, :ncols] = A
    T[:m, -1] = b
    art_cols = ncols + np.arange(missing.size)
    T[missing, art_cols] = 1.0
    basis[missing] = art_cols
    return T, basis, ncols, c, recover


def vstack_drop_rows(T: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Reference row drop: a new tableau of the kept rows and the objective row."""
    return np.vstack([T[keep], T[-1:]])


def bound_rows(bounds: list) -> tuple[list, list]:
    """Bounds (lo, hi), None for an open side, in the two kinds the solver
    takes.  A variable whose lo is 0 is nonnegative, any other is free, and
    each remaining finite side becomes the row x_j <= hi or -x_j <= -lo.
    Returns (kinds, rows); the rows describe the same set as the bounds."""
    kinds, rows = [], []
    for j, (lo, hi) in enumerate(bounds):
        nonnegative = lo == 0.0
        kinds.append((0.0, None) if nonnegative else (None, None))
        for side, sign in ((None if nonnegative else lo, -1.0), (hi, 1.0)):
            if side is not None:
                row = np.zeros(len(bounds))
                row[j] = sign
                rows.append((row, LE, sign * side))
    return kinds, rows


def random_standard_form_lp(rng: np.random.Generator) -> LinearProgram:
    """Small random LP for the tableau build, often infeasible or unbounded.

    Variables are free, lower-bounded, upper-only, boxed or (now and then)
    an empty box, written as rows by `bound_rows`; rows mix '=' and '<='
    with right-hand sides of either sign; some equality rows appear twice
    (redundant), and some free or nonnegative variables have one nonzero,
    +-1, in one row, so that their column can be a unit column of an
    equality row.
    """
    n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    units = int(rng.integers(0, 3))  # unit variables n.., at zero
    x_feas = rng.integers(-2, 3, size=n).astype(float)
    bounds = []
    for j in range(n):
        lo = x_feas[j] - float(rng.integers(0, 3))
        hi = x_feas[j] + float(rng.integers(0, 3))
        kinds = [(None, None), (lo, None), (None, hi), (lo, hi)]
        if rng.random() < 0.1:
            kinds = [(hi + 1.0, lo)]  # empty box
        bounds.append(kinds[int(rng.integers(len(kinds)))])
    for _ in range(units):
        bounds.append([(None, None), (0.0, None), (None, 0.0), (0.0, 1.0)][int(rng.integers(4))])
    rows = []
    for _ in range(m):
        coeffs = np.zeros(n + units)
        coeffs[:n] = np.where(rng.random(n) < 0.5,
                              rng.choice([-2.0, -1.0, -0.5, 1.0, 1.0, 3.0], size=n), 0.0)
        rel = EQ if rng.random() < 0.5 else LE
        rhs = float(coeffs[:n] @ x_feas) + (0.0 if rel == EQ else float(rng.integers(-1, 3)))
        rows.append((coeffs, rel, rhs))
    for i in rng.permutation(m)[:int(rng.integers(0, 3))]:
        if rows[i][1] == EQ:
            rows.append((rows[i][0].copy(), EQ, rows[i][2]))
    for k in range(units):
        rows[int(rng.integers(len(rows)))][0][n + k] = rng.choice([-1.0, 1.0])
    c = np.concatenate([rng.normal(size=n), np.zeros(units)])
    kinds, box = bound_rows(bounds)
    return LinearProgram(n + units, c, constraints=rows + box, bounds=kinds)


def random_sparse_lp(rng: np.random.Generator, n: int, m: int, density: float = 0.25):
    """Random feasible LP with sparse small-integer rows and mixed bounds.

    Returns (c, rows, bounds): rows are (coeffs, relation, rhs) with
    relation '<=' or '='; the free, one-sided and boxed variables drawn are
    written as rows by `bound_rows`, so bounds holds only the free and
    nonnegative kinds.  Integer coefficients and rhs values on the feasible
    point make degenerate vertices and unit columns common.
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
    kinds, box = bound_rows(bounds)
    return c, rows + box, kinds


def prefixes(automaton: SwitchingAutomaton, length: int, first) -> Iterator[tuple[int, ...]]:
    """Walk the tree of paths of up to `length` modes that start in a mode
    of `first` and then step along `successors`.

    Yields every nonempty prefix depth first in lexicographic order, each
    parent before its children, so a caller can carry per-node state down
    the tree.  The walk keeps an explicit stack: its depth is not limited
    by Python's recursion limit.
    """
    if length < 0:
        raise ValueError("path length must be nonnegative")
    stack = [(b,) for b in sorted(first, reverse=True)] if length else []
    while stack:
        prefix = stack.pop()
        yield prefix
        if len(prefix) < length:
            stack.extend(prefix + (b,) for b in reversed(automaton.successors(prefix[-1])))


def paths(automaton: SwitchingAutomaton, length: int, first) -> list[tuple[int, ...]]:
    """Every `length`-mode path that starts in a mode of `first` and then
    steps along `successors`, in lexicographic order: the full-length
    prefixes of the tree walk."""
    if length == 0:
        return [()]
    return [p for p in prefixes(automaton, length, first) if len(p) == length]


def admissible_sequences(automaton: SwitchingAutomaton, length: int) -> list[tuple[int, ...]]:
    """Every admissible mode sequence of the given length, lexicographically."""
    return paths(automaton, length, automaton.initial)


def generator_histories(automaton: SwitchingAutomaton, length: int) -> list[tuple[int, ...]]:
    """Reference `history_array` as tuples: a set union of tuple paths from
    the generator walk, interior paths plus padding-mode prefixes followed by
    an admissible path, sorted."""
    found = set(paths(automaton, length, range(automaton.mode_count)))
    pad = automaton.padding_mode
    for j in range(1, length):
        found.update((pad,) * j + path for path in admissible_sequences(automaton, length - j))
    return sorted(found)


def lexsort_distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference `switched_model._distinct_rows`: one lexsort over the
    columns and a neighbour compare of whole rows."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = starts.cumsum() - 1
    return ordered[starts], inverse


def history_at(sigma, t: int, length: int, padding_mode: int = 0) -> tuple[int, ...]:
    """Reference window (sigma(t-length+1), ..., sigma(t)), padding before time 0."""
    return tuple(int(sigma[s]) if s >= 0 else padding_mode for s in range(t - length + 1, t + 1))


def error_operator(plant: ChannelPlant, model: SwitchedOutputModel, estimator,
                   sigma, horizon: int, padding_mode: int = 0) -> TruncatedOperator:
    """The error operator along sigma, stacked from `_ErrorKernel`'s block
    rows, each built from sigma[:t+1] alone; its formula is in the kernel's
    docstring, and `compose_chain_error_operator` is its reference."""
    kernel = _ErrorKernel(plant, model, estimator, padding_mode, horizon)
    rows = kernel.rows(tuple(sigma))
    band = np.zeros((horizon, max(map(len, rows))) + rows[0].shape[1:])
    for t, row in enumerate(rows):
        band[t, :len(row)] = row
    return TruncatedOperator(band)


def compose_chain_error_operator(plant, model, estimator, sigma, horizon: int,
                                 padding_mode: int = 0) -> DictOperator:
    """Reference error operator: the whole-horizon product chain of the dict oracle."""
    if isinstance(estimator, SynthesisResult):
        # the embedded x0 sequence enters unscaled; the bound scales the chosen x0
        Phi = dict_performance_operator(replace(plant, x0_bound=1.0), estimator.Q,
                                        estimator.Z, model, sigma, horizon, padding_mode)
        if estimator.eps_achieved <= 1e-9:
            return dict_scale(Phi, -1.0)
        E = dict_residual_operator(plant, estimator.Q, estimator.Z, model,
                                   sigma, horizon, padding_mode)
        eye = dict_delay(0, plant.n, horizon)
        resolvent = dict_invert(dict_add(eye, dict_scale(E, -1.0)))
        return dict_scale(dict_compose(resolvent, Phi), -1.0)
    if isinstance(estimator, SwitchingFIR):
        n = plant.n
        T_op = dict_instantiate(estimator, sigma, horizon, padding_mode)
        Cbar, Dbar = dict_lift_outputs(model, sigma, horizon)
        R = dict_resolvent_of_state(plant.A, horizon)
        lam_b = dict_compose(dict_delay(1, n, horizon), dict_make_diagonal(plant.B, horizon))
        tc_minus_i = dict_add(dict_compose(T_op, Cbar),
                              dict_scale(dict_delay(0, n, horizon), -1.0))
        prefix = dict_compose(tc_minus_i, R)
        w_block = dict_add(dict_compose(prefix, lam_b), dict_compose(T_op, Dbar))
        return dict_hstack(w_block, prefix)
    raise TypeError(f"unsupported estimator type {type(estimator).__name__}")


def reference_worst_case_inputs(plant, E: DictOperator, sigma):
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
            if values[i] > best[0]:
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
        for sigma in admissible_sequences(automaton, horizon):
            value = value_of(sigma)
            if value > best_value:
                best_sigma, best_value = sigma, value
        return best_sigma, best_value
    prefix = ()
    for _ in range(horizon):
        choices = automaton.successors(prefix[-1] if prefix else None)
        pick, pick_value = choices[0], -1.0
        for b in choices:
            value = value_of(prefix + (b,))
            if value > pick_value:
                pick, pick_value = b, value
        prefix += (pick,)
    return prefix, value_of(prefix)


def relaxed_row(kernel: _ErrorKernel, table: tuple, t: int, past: list):
    """Reference relaxed row t along one prefix, built by itself from the
    table of its window, and the (resolvent row, performance row) pair later
    rows read; `past` holds those pairs for times 0..t-1.  The resolvent row
    comes by block forward substitution over the lags with a nonzero sum of
    products, ascending."""
    phi, contraction, inv0 = table
    phi, contraction = phi[:t + 1], contraction[:t + 1]
    # acc[k] sums contraction[j] res_{t-j}[k-j] over j ascending
    acc = np.zeros((t + 1, kernel.n, kernel.n))
    for j in range(1, len(contraction)):
        acc[j:] += contraction[j] @ past[t - j][0]
    res = -inv0 @ acc
    res[0] = inv0
    nonzero = acc.any(axis=(1, 2))
    nonzero[0] = True
    row = np.zeros((t + 1,) + phi.shape[1:])
    used = 0
    for j in np.flatnonzero(nonzero).tolist():
        later = phi if j == 0 else past[t - j][1]
        row[j:j + len(later)] += res[j] @ later
        used = max(used, j + len(later))
    return -1.0 * row[:used], (res, phi)


def walk_search(kernel: _ErrorKernel, automaton: SwitchingAutomaton, horizon: int):
    """Reference exhaustive search over the tree of admissible prefixes, depth
    first in lexicographic order, one row per node (a relaxed row built by
    `relaxed_row`, the others read by `values`), carrying the scan down to
    the children."""
    if automaton.mode_count ** horizon > 2 ** 20:
        raise ValueError(
            f"exhaustive search over {automaton.mode_count}^{horizon} sequences "
            "exceeds the 2^20 cap; use strategy='greedy'")
    best_sigma, best_value = None, -1.0
    past, peaks = [], [-1.0]  # per depth along the current path
    for prefix in prefixes(automaton, horizon, automaton.initial):
        t = len(prefix) - 1
        del past[t:], peaks[t + 1:]
        window = prefix[-kernel.window:]
        if kernel.kind == "relaxed":
            [table] = kernel._tables(t, [window])
            row, carry = relaxed_row(kernel, table, t, past)
            values = kernel.row_values(row).tolist()
        else:
            [values], carry = kernel.values(t, [window]), None
        past.append(carry)
        peaks.append(_fold(values, peaks[t]))
        if t == horizon - 1:
            value = max(peaks[-1], 0.0)
            if value > best_value:
                best_sigma, best_value = prefix, value
    return best_sigma, best_value


def row_slice_modes(plant: ChannelPlant, patterns) -> tuple[np.ndarray, np.ndarray]:
    """Reference mode stacks: one pattern at a time, a 0/1 row vector with the
    row slice of every delivered channel set to 1, times the stacked
    matrices, stacked into (mode, p, n) and (mode, p, m_w) arrays."""
    C0, D0 = plant.stacked()
    offsets = np.concatenate(([0], np.cumsum(plant.channel_dims)))
    Cs, Ds = [], []
    for pat in patterns:
        keep = np.zeros(plant.p)
        for i in pat:
            keep[offsets[i - 1]:offsets[i]] = 1.0
        Cs.append(keep[:, None] * C0)
        Ds.append(keep[:, None] * D0)
    return np.array(Cs), np.array(Ds)


def tuple_random_sequence(automaton: SwitchingAutomaton, length: int,
                          rng: np.random.Generator) -> tuple[int, ...]:
    """Reference seeded walk: successors read from `allowed` at every step and
    the sequence grown one tuple at a time."""
    seq: tuple[int, ...] = ()
    for _ in range(length):
        choices = (sorted(automaton.initial) if not seq else
                   [b for b in range(automaton.mode_count) if automaton.allowed[seq[-1], b]])
        if not choices:
            raise ValueError(f"automaton dead-ends after prefix {seq}")
        seq += (int(choices[rng.integers(len(choices))]),)
    return seq


def pack(variables: SymbolicVariables, Q: SwitchingFIR, Z: SwitchingFIR) -> np.ndarray:
    """Decision vector holding the taps of (Q, Z) in the oracle's numbering."""
    x = np.zeros(variables.count)
    for hist in variables.histories:
        for lag in range(variables.fir_length):
            qm = Q.taps[Q.history_ids(hist), lag]
            zm = Z.taps[Z.history_ids(hist), lag]
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


def kernel_entries(plant, model, automaton, config, variables, kind: str, x: np.ndarray):
    """The production kernel-entry terms of the `kind` rows evaluated at x.

    kind is "residual" or "performance".  Returns (windows, values): the
    windows as tuples in row order, and per entry (lag, input column), in
    row entry order, the (window, state row) array of const + (((0 + a1*x1)
    + a2*x2) + ...) with `variables` numbering the terms; a padded term
    reads 0.0.
    """
    windows, taps, tap_ids = _windows(automaton, config)
    histories = map(tuple, np.asarray(variables.histories).tolist())
    position = {hist: a for a, hist in enumerate(histories)}
    hist_ids = np.array([position[hist] for hist in map(tuple, taps.tolist())],
                        dtype=np.intp)[tap_ids]
    x = np.append(x, 0.0)  # a padded term's id, variables.count, reads 0.0
    values, col = {}, 0
    for var, coeff, const in _kernel_terms(plant, model, kind, windows, hist_ids, variables):
        shape = np.broadcast_shapes(var.shape, coeff.shape)
        var, coeff = np.broadcast_to(var, shape), np.broadcast_to(coeff, shape)
        for lag in range(shape[2]):
            for j in range(shape[3]):
                total = np.zeros(shape[:2])
                for t in range(shape[4]):
                    total = total + coeff[:, :, lag, j, t] * x[var[:, :, lag, j, t]]
                values[(lag, col + j)] = const[:, lag, j] + total
        col += shape[3]
    return [tuple(w) for w in windows.tolist()], values


def window_row_gains(plant, model, automaton, config, Q, Z):
    """Reference (residual, performance) row gains: the kernel-entry terms of
    `_kernel_terms` evaluated once per window at the packed taps, a padded
    term reading 0.0, each row's absolute entries summed left to right in
    entry order."""
    _check_dims(plant, model)
    windows, taps, hist_ids = _windows(automaton, config)
    variables = DecisionVariables(taps, config.memory, config.fir_length, plant.n, model.p)
    x = np.append(variables.pack(Q, Z), 0.0)
    gains = []
    for kind in ("residual", "performance"):
        total = np.zeros((len(windows), plant.n))
        for var, coeff, const in _kernel_terms(plant, model, kind, windows, hist_ids, variables):
            value = 0.0
            for t in range(var.shape[-1]):
                value = value + coeff[..., t] * x[var[..., t]]
            entry = const + value
            for lag in range(entry.shape[2]):
                for col in range(entry.shape[3]):
                    total += np.abs(entry[:, :, lag, col])
        gains.append(total.reshape(-1))
    return gains[0], gains[1]


def factor_rows(plant: ChannelPlant, model: SwitchedOutputModel, Q: SwitchingFIR,
                Z: SwitchingFIR, modes: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Row t of E and of Phi along a batch of mode windows (..., modes), the
    last delivered at time t: the lags of E, (..., lags, n, n), and of Phi,
    (..., lags, n, m_w + n), its x0 block unscaled, gathered from the
    `synthesis._pair_rows` table at time t as `factor_operators` and the
    attack kernel gather them."""
    E, phi = _pair_rows(plant, model, Q, Z, t)
    index = _pair_index(Q, modes, model.mode_count, E.shape[1])
    return E[index], phi[index]


def window_factor_rows(plant: ChannelPlant, model: SwitchedOutputModel, Q: SwitchingFIR,
                       Z: SwitchingFIR, modes: np.ndarray, t: int):
    """Reference row t of E and of Phi (x0 block unscaled) built per window:
    the products of `synthesis._pair_rows` formed for every window of the
    batch (..., modes) itself, the last mode delivered at time t, each tap
    block looked up by its own history."""
    n, m_w = plant.n, plant.m_w
    eye = np.eye(n)
    lam_a, lam_b = eye @ plant.A, eye @ plant.B
    q_taps = Q.taps[Q.history_ids(modes[..., -Q.memory:]), :t + 1]
    z_taps = Z.taps[Z.history_ids(modes[..., -Z.memory:]), :t + 1]
    lq, lz = q_taps.shape[-3], z_taps.shape[-3]
    back = modes[..., ::-1][..., :lz]
    shifted = min(lq, t)
    lags = min(t, max(lq, lz)) + 1
    E = np.zeros(q_taps.shape[:-3] + (lags, n, n))
    E[..., 1:shifted + 1, :, :] = q_taps[..., :shifted, :, :] @ lam_a
    E[..., :lq, :, :] += q_taps @ (-1.0 * eye)
    E[..., :lz, :, :] = z_taps @ model.C[back] + E[..., :lz, :, :]
    phi = np.zeros(q_taps.shape[:-3] + (lags, n, m_w + n))
    w_block, x0_block = phi[..., :m_w], phi[..., m_w:]
    w_block[..., :lz, :, :] = z_taps @ model.D[back]
    w_block[..., 1:shifted + 1, :, :] += q_taps[..., :shifted, :, :] @ lam_b
    if t >= 1:
        E[..., 1, :, :] = lam_a + E[..., 1, :, :]
        w_block[..., 1, :, :] += lam_b
    x0_block[..., :lq, :, :] = q_taps
    x0_block[..., 0, :, :] += eye
    return E, phi


def distinct_window_factor_operators(plant: ChannelPlant, Q: SwitchingFIR, Z: SwitchingFIR,
                                     model: SwitchedOutputModel, sigma, horizon: int,
                                     padding_mode: int = 0):
    """Reference (residual, performance) lag bands along sigma: the row at
    time W = max(M, N) built by `window_factor_rows` once per distinct padded
    window of the sequences, its x0 block scaled, and each sequence's rows
    gathered from those."""
    sigma = _mode_array(model, sigma, horizon)
    W = max(max(fir.memory, fir.fir_length) for fir in (Q, Z))
    windows = _trailing_windows(sigma, W, padding_mode)
    distinct, index = _distinct_rows(windows.reshape(-1, W))
    E, Phi = window_factor_rows(plant, model, Q, Z, distinct, W)
    if plant.x0_bound != 1.0:
        Phi[..., plant.m_w:] *= float(plant.x0_bound)
    lags = min(horizon, E.shape[-3])
    index = index.reshape(sigma.shape)
    E, Phi = E[index, :lags], Phi[index, :lags]
    t, k = np.ogrid[:horizon, :lags]
    E[..., k > t, :, :] = Phi[..., k > t, :, :] = 0.0
    return E, Phi


# ------------------------------------------------------------ symbolic oracle
#
# Symbolic constraint rows and LP assembly: one LinearForm dict per kernel
# entry, numbered by a tuple-keyed dict.  The reference that the
# array-built kernel-entry terms of synthesis.py must reproduce bit for bit.


class SymbolicVariables:
    """Dict-based numbering of the Q/Z coefficient entries."""

    def __init__(self, histories, memory: int, fir_length: int, n: int, p: int):
        self.memory = memory
        self.fir_length = fir_length
        self.n = n
        self.p = p
        self.histories = [tuple(h) for h in histories]
        self.index: dict[tuple, int] = {}
        for hist in self.histories:
            for lag in range(fir_length):
                for r in range(n):
                    for c in range(n):
                        self.index[("Q", hist, lag, r, c)] = len(self.index)
                for r in range(n):
                    for c in range(p):
                        self.index[("Z", hist, lag, r, c)] = len(self.index)

    @property
    def count(self) -> int:
        return len(self.index)

    def var(self, kind: str, hist: tuple, lag: int, r: int, c: int) -> int:
        return self.index[(kind, hist, lag, r, c)]


def symbolic_variables(automaton: SwitchingAutomaton, config: SynthesisConfig,
                       n: int, p: int) -> SymbolicVariables:
    return SymbolicVariables(generator_histories(automaton, config.memory),
                             config.memory, config.fir_length, n, p)


@dataclass
class LinearForm:
    """Affine expression in the decision variables: sum coeffs[v]*x[v] + const."""

    coeffs: dict = field(default_factory=dict)
    const: float = 0.0

    def add_term(self, var: int, coeff: float) -> None:
        if coeff != 0.0:
            self.coeffs[var] = self.coeffs.get(var, 0.0) + coeff

    def key(self) -> tuple:
        return (tuple(sorted(self.coeffs.items())), self.const)


@dataclass(frozen=True)
class ConstraintRow:
    """One output row of a kernel operator along a fixed trailing mode window.

    entries holds (lag, input column, affine form) for every kernel entry
    of the row; the row's gain is the sum of absolute entry values.
    """

    history: tuple
    row_index: int
    kind: str  # "residual" | "performance"
    entries: tuple


def kernel_rows(X: np.ndarray, mode_mats: np.ndarray, Y0: np.ndarray,
                automaton: SwitchingAutomaton, config: SynthesisConfig, variables):
    """Rows of shift(X) + Z Mbar + Q (shift(X) + Y0), Mbar the blocks of the
    (mode, p, q) stack mode_mats.

    Yields (window, tap window, state row, entries) for every admissible
    extended window; entries is a list of (lag, input column, affine form).
    Lag k of a row reads the tap window anchored at the output time and the
    mode delivered k steps earlier.
    """
    n, q = X.shape
    p = variables.p
    M, N, L = config.memory, config.fir_length, config.window
    # Y0 is -I or 0: looping Q over its full columns would slow the row build
    y0_terms = [[(r, Y0[r, col]) for r in range(n) if Y0[r, col] != 0.0] for col in range(q)]
    for h in generator_histories(automaton, L):
        hm = h[L - M:]
        for i in range(n):
            entries = []
            for k in range(N + 1):
                M_k = mode_mats[h[L - 1 - k]] if k <= N - 1 else None
                for col in range(q):
                    form = LinearForm()
                    if k == 1:
                        form.const += X[i, col]
                    if k <= N - 1:
                        for c in range(p):
                            form.add_term(variables.var("Z", hm, k, i, c), M_k[c, col])
                        for r, y0 in y0_terms[col]:
                            form.add_term(variables.var("Q", hm, k, i, r), y0)
                    if 1 <= k <= N:
                        for r in range(n):
                            form.add_term(variables.var("Q", hm, k - 1, i, r), X[r, col])
                    entries.append((k, col, form))
            yield h, hm, i, entries


def build_residual_rows(plant: ChannelPlant, model: SwitchedOutputModel,
                        automaton: SwitchingAutomaton, config: SynthesisConfig,
                        variables=None) -> list[ConstraintRow]:
    """Rows of the contraction operator shift(A) + Z Cbar + Q (shift(A) - I).

    One row per admissible extended window and state component; entries are
    affine in the Q/Z coefficients.
    """
    _check_dims(plant, model)
    if variables is None:
        variables = symbolic_variables(automaton, config, plant.n, model.p)
    return [ConstraintRow(h, i, "residual", tuple(entries))
            for h, _, i, entries in kernel_rows(plant.A, model.C, -np.eye(plant.n),
                                                automaton, config, variables)]


def build_performance_rows(plant: ChannelPlant, model: SwitchedOutputModel,
                           automaton: SwitchingAutomaton, config: SynthesisConfig,
                           variables=None) -> list[ConstraintRow]:
    """Rows of the error gain operator [shift(B) + Z Dbar + Q shift(B), b (I + Q)],
    b the plant's initial-condition bound.

    Input columns are stacked: disturbance channels first, then the
    initial-condition channels.
    """
    _check_dims(plant, model)
    if variables is None:
        variables = symbolic_variables(automaton, config, plant.n, model.p)
    n, m_w = plant.n, plant.m_w
    rows = []
    for h, hm, i, entries in kernel_rows(plant.B, model.D, np.zeros((n, m_w)),
                                         automaton, config, variables):
        for k in range(config.fir_length):
            for j in range(n):
                form = LinearForm()
                if k == 0 and i == j:
                    form.const += plant.x0_bound
                form.add_term(variables.var("Q", hm, k, i, j), plant.x0_bound)
                entries.append((k, m_w + j, form))
        rows.append(ConstraintRow(h, i, "performance", tuple(entries)))
    return rows


def assemble_symbolic_lp(residual_rows, performance_rows, config: SynthesisConfig,
                          variables) -> LinearProgram:
    """Min-gamma LP: per performance row, the absolute entry values sum to
    at most gamma; residual entries vanish (exact) or their row sums stay
    below eps_bar (relaxed).

    Structurally identical affine entries share one absolute-value slack,
    and identical rows collapse, so the LP stays small while covering
    every admissible window.
    """
    if not performance_rows:
        raise ValueError("no performance rows; nothing to optimize")
    nvar = variables.count
    gamma = nvar
    slack_ids: dict[tuple, int] = {}
    slack_forms: list[LinearForm] = []

    def slack_of(form: LinearForm) -> int:
        key = form.key()
        sid = slack_ids.get(key)
        if sid is None:
            sid = len(slack_forms)
            slack_ids[key] = sid
            slack_forms.append(form)
        return sid

    perf_row_slacks: dict[tuple, list[int]] = {}
    for row in performance_rows:
        sids = [slack_of(form) for _, _, form in row.entries]
        perf_row_slacks.setdefault(tuple(sorted(sids)), sids)

    relaxed = config.mode == MODE_RELAXED
    res_eqs: dict[tuple, LinearForm] = {}
    res_row_slacks: dict[tuple, list[int]] = {}
    for row in residual_rows:
        if relaxed:
            sids = [slack_of(form) for _, _, form in row.entries]
            res_row_slacks.setdefault(tuple(sorted(sids)), sids)
        else:
            for _, _, form in row.entries:
                res_eqs.setdefault(form.key(), form)

    nslack = len(slack_forms)
    total = nvar + 1 + nslack
    lp = LinearProgram(
        variable_count=total,
        objective=np.concatenate([np.zeros(nvar), [1.0], np.zeros(nslack)]),
        bounds=[(None, None)] * nvar + [(0.0, None)] * (1 + nslack),
    )

    for sid, form in enumerate(slack_forms):
        # s >= form and s >= -form
        up = np.zeros(total)
        for v, a in form.coeffs.items():
            up[v] = a
        up[nvar + 1 + sid] = -1.0
        lp.add(up, LE, -form.const)
        dn = np.zeros(total)
        for v, a in form.coeffs.items():
            dn[v] = -a
        dn[nvar + 1 + sid] = -1.0
        lp.add(dn, LE, form.const)

    for sids in perf_row_slacks.values():
        row = np.zeros(total)
        for sid in sids:
            row[nvar + 1 + sid] += 1.0
        row[gamma] = -1.0
        lp.add(row, LE, 0.0)

    if relaxed:
        for sids in res_row_slacks.values():
            row = np.zeros(total)
            for sid in sids:
                row[nvar + 1 + sid] += 1.0
            lp.add(row, LE, config.eps_bar)
    else:
        for form in res_eqs.values():
            row = np.zeros(total)
            for v, a in form.coeffs.items():
                row[v] = a
            lp.add(row, EQ, -form.const)

    return lp


# ------------------------------------------------------------ dict operator oracle
#
# The one operator algebra of the project: causal operators kept as dicts of
# their stored kernel entries, products formed entry by entry and summed
# over the lags in ascending order.  src/ builds its bands from tap tables
# and per-lag products without composing operators; this algebra is the
# reference chain those products must reproduce bit for bit (zeros of
# either sign comparing equal): `dict_residual_operator` and
# `dict_performance_operator` for `factor_operators` and `_pair_rows`,
# `compose_chain_error_operator` for the attack kernel's rows, and
# `parametrization_residual` for the synthesized factors.


class DictOperator:
    """Causal operator kept as a dict (t, k) -> matrix of its stored entries."""

    def __init__(self, horizon: int, in_dim: int, out_dim: int, kernel: dict):
        if horizon < 1 or in_dim < 1 or out_dim < 1:
            raise ValueError("horizon and dimensions must be positive")
        self.horizon, self.in_dim, self.out_dim = horizon, in_dim, out_dim
        self.kernel: dict[tuple[int, int], np.ndarray] = {}
        self._rows: dict[int, list[tuple[int, np.ndarray]]] = {}
        for (t, k), mat in kernel.items():
            if not (0 <= k <= t < horizon):
                raise ValueError(f"kernel index (t={t}, k={k}) is not causal for horizon {horizon}")
            m = np.array(mat, dtype=float)
            if m.shape != (out_dim, in_dim):
                raise ValueError(f"kernel entry ({t},{k}) has shape {m.shape}")
            self.kernel[(t, k)] = m
            self._rows.setdefault(t, []).append((k, m))
        for row in self._rows.values():
            row.sort(key=lambda pair: pair[0])

    @staticmethod
    def of(op: TruncatedOperator) -> "DictOperator":
        """The oracle copy of a single band operator, every in-band entry stored."""
        return DictOperator(op.horizon, op.in_dim, op.out_dim, band_kernel(op))

    def to_band(self) -> TruncatedOperator:
        return band_operator(self.horizon, self.in_dim, self.out_dim, self.kernel)

    def entry(self, t: int, k: int) -> np.ndarray:
        mat = self.kernel.get((t, k))
        return np.zeros((self.out_dim, self.in_dim)) if mat is None else mat

    def row(self, t: int) -> list[tuple[int, np.ndarray]]:
        return list(self._rows.get(t, ()))

    def unroll(self) -> np.ndarray:
        p, m, H = self.out_dim, self.in_dim, self.horizon
        dense = np.zeros((p * H, m * H))
        for (t, k), mat in self.kernel.items():
            s = t - k
            dense[t * p:(t + 1) * p, s * m:(s + 1) * m] = mat
        return dense


def dict_make_diagonal(blocks, horizon: int) -> DictOperator:
    first = np.asarray(blocks, dtype=float)
    seq = [first] * horizon if first.ndim == 2 else [np.asarray(b, float) for b in blocks]
    return DictOperator(horizon, seq[0].shape[1], seq[0].shape[0],
                        {(t, 0): seq[t] for t in range(horizon)})


def dict_delay(power: int, dim: int, horizon: int) -> DictOperator:
    eye = np.eye(dim)
    return DictOperator(horizon, dim, dim, {(t, power): eye for t in range(power, horizon)})


def dict_compose(R: DictOperator, S: DictOperator) -> DictOperator:
    out: dict[tuple[int, int], np.ndarray] = {}
    for (t, j), rmat in sorted(R.kernel.items(), key=lambda item: item[0]):
        for k2, smat in S._rows.get(t - j, ()):
            key = (t, j + k2)
            prod = rmat @ smat
            out[key] = out[key] + prod if key in out else prod
    return DictOperator(R.horizon, S.in_dim, R.out_dim, out)


def dict_add(R: DictOperator, S: DictOperator) -> DictOperator:
    out = dict(R.kernel)
    for key, mat in S.kernel.items():
        out[key] = out[key] + mat if key in out else mat
    return DictOperator(R.horizon, R.in_dim, R.out_dim, out)


def dict_scale(R: DictOperator, c: float) -> DictOperator:
    return DictOperator(R.horizon, R.in_dim, R.out_dim,
                        {key: c * mat for key, mat in R.kernel.items()})


def dict_hstack(R: DictOperator, S: DictOperator) -> DictOperator:
    kernel = {}
    for key in sorted(set(R.kernel) | set(S.kernel)):
        kernel[key] = np.hstack([R.entry(*key), S.entry(*key)])
    return DictOperator(R.horizon, R.in_dim + S.in_dim, R.out_dim, kernel)


def dict_apply(R: DictOperator, u: Signal) -> Signal:
    out = np.zeros((R.horizon, R.out_dim))
    for (t, k), mat in sorted(R.kernel.items(), key=lambda item: item[0]):
        out[t] += mat @ u.samples[t - k]
    return Signal(out)


def dict_row_abs_sums(R: DictOperator, t: int) -> np.ndarray:
    sums = np.zeros(R.out_dim)
    for _, mat in R._rows.get(t, ()):
        sums += np.sum(np.abs(mat), axis=1)
    return sums


def dict_induced_norm(R: DictOperator) -> float:
    best = 0.0
    for t in range(R.horizon):
        best = max(best, float(np.max(dict_row_abs_sums(R, t))))
    return best


def dict_resolvent_of_state(A, horizon: int) -> DictOperator:
    """Inverse of (I - shift o diag(A)): kernel entry (t, k) is A^k."""
    A = np.asarray(A, dtype=float)
    powers = [np.eye(A.shape[0])]
    for _ in range(1, horizon):
        powers.append(A @ powers[-1])
    return DictOperator(horizon, A.shape[0], A.shape[0],
                        {(t, k): powers[k] for t in range(horizon) for k in range(t + 1)})


def dict_invert(R: DictOperator) -> DictOperator:
    """Inverse of a causal operator with invertible lag-0 blocks, by block
    forward substitution; raises LinAlgError if a lag-0 block is singular."""
    if R.in_dim != R.out_dim:
        raise ValueError("only square operators can be inverted")
    H, nd = R.horizon, R.in_dim
    inv0 = []
    for t in range(H):
        mat = R.entry(t, 0)
        if is_singular(mat):
            raise np.linalg.LinAlgError(f"lag-0 block at time {t} is singular")
        inv0.append(np.linalg.inv(mat))
    out: dict[tuple[int, int], np.ndarray] = {}
    for t in range(H):
        out[(t, 0)] = inv0[t]
        for k in range(1, t + 1):
            acc = np.zeros((nd, nd))
            for j, rmat in R._rows.get(t, ()):
                if 1 <= j <= k:
                    prev = out.get((t - j, k - j))
                    if prev is not None:
                        acc += rmat @ prev
            if np.any(acc):
                out[(t, k)] = -inv0[t] @ acc
    return DictOperator(H, nd, nd, out)


def invert(R: TruncatedOperator) -> TruncatedOperator:
    """Inverse of a single band operator, computed by the dict oracle."""
    return dict_invert(DictOperator.of(R)).to_band()


def resolvent_of_state(A, horizon: int) -> TruncatedOperator:
    """(I - shift o diag(A))^{-1} for a constant A, as a band operator."""
    return dict_resolvent_of_state(A, horizon).to_band()


def dict_instantiate(fir: SwitchingFIR, sigma, horizon: int,
                     padding_mode: int = 0) -> DictOperator:
    kernel = {}
    for t in range(horizon):
        hist = history_at(sigma, t, fir.memory, padding_mode)
        for k in range(min(t, fir.fir_length - 1) + 1):
            kernel[(t, k)] = fir.taps[fir.history_ids(hist), k]
    return DictOperator(horizon, fir.in_dim, fir.out_dim, kernel)


def dict_lift_outputs(model: SwitchedOutputModel, sigma, horizon: int):
    return (dict_make_diagonal([model.C[sigma[t]] for t in range(horizon)], horizon),
            dict_make_diagonal([model.D[sigma[t]] for t in range(horizon)], horizon))


def dict_residual_operator(plant, Q, Z, model, sigma, horizon: int,
                           padding_mode: int = 0) -> DictOperator:
    """shift(A) + Z Cbar + Q (shift(A) - I) along one sigma, in the dict algebra."""
    n = plant.n
    lam_a = dict_compose(dict_delay(1, n, horizon), dict_make_diagonal(plant.A, horizon))
    Cbar, _ = dict_lift_outputs(model, sigma, horizon)
    Q_op = dict_instantiate(Q, sigma, horizon, padding_mode)
    Z_op = dict_instantiate(Z, sigma, horizon, padding_mode)
    lam_a_minus_i = dict_add(lam_a, dict_scale(dict_delay(0, n, horizon), -1.0))
    return dict_add(lam_a, dict_add(dict_compose(Z_op, Cbar), dict_compose(Q_op, lam_a_minus_i)))


def dict_performance_operator(plant, Q, Z, model, sigma, horizon: int,
                              padding_mode: int = 0) -> DictOperator:
    """[shift(B) + Z Dbar + Q shift(B), b (I + Q)] along one sigma, in the dict
    algebra, b the plant's initial-condition bound."""
    n = plant.n
    lam_b = dict_compose(dict_delay(1, n, horizon), dict_make_diagonal(plant.B, horizon))
    _, Dbar = dict_lift_outputs(model, sigma, horizon)
    Q_op = dict_instantiate(Q, sigma, horizon, padding_mode)
    Z_op = dict_instantiate(Z, sigma, horizon, padding_mode)
    w_block = dict_add(lam_b, dict_add(dict_compose(Z_op, Dbar), dict_compose(Q_op, lam_b)))
    return dict_hstack(w_block, dict_scale(dict_add(dict_delay(0, n, horizon), Q_op),
                                           plant.x0_bound))


def sampled_norms_loop(plant, model, automaton, config, result, seed: int = 0):
    """certify's sampled (residual, performance) norms, one sequence at a time
    in the dict algebra: two lists in sampling order."""
    rng = np.random.default_rng(seed)
    H = config.verify_horizon
    res, perf = [], []
    for _ in range(config.verify_samples):
        sigma = automaton.random_sequence(H, rng)
        res.append(dict_induced_norm(dict_residual_operator(
            plant, result.Q, result.Z, model, sigma, H, automaton.padding_mode)))
        perf.append(dict_induced_norm(dict_performance_operator(
            plant, result.Q, result.Z, model, sigma, H, automaton.padding_mode)))
    return res, perf


def loop_scan(row, t: int, peak: tuple, n: int, m_w: int, bound: float) -> tuple:
    """The per-lag loop that folded an error-operator block row, given as
    (lag, matrix) pairs, into the running peak (value, t, output row, x0 lag)."""
    w_sum = np.zeros(n)
    x0_best = np.zeros(n)
    x0_lag = np.zeros(n, dtype=int)
    for k, mat in row:
        w_sum += np.sum(np.abs(mat[:, :m_w]), axis=1)
        x0_rows = np.sum(np.abs(mat[:, m_w:]), axis=1)
        better = x0_rows > x0_best
        x0_best[better] = x0_rows[better]
        x0_lag[better] = k
    values = w_sum + bound * x0_best
    for i in range(n):
        if values[i] > peak[0]:
            peak = (float(values[i]), t, i, int(x0_lag[i]))
    return peak

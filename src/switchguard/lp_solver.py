"""Deterministic dense linear-program solver (two-phase primal simplex).

Rows are equalities and inequalities; each variable is free or
nonnegative, the two kinds the synthesis LP uses (any other bound is a
row).
Pivoting uses the most-negative-cost rule while progress is made and
switches to Bland's rule on degenerate stretches, which precludes cycling;
both rules are fixed, so the tableau simplex gives bit-identical outputs on
identical inputs.

The tableau is the one array of its size in a solve.  Each row is
standardized straight into it, with its width fixed beforehand by one pass
over the rows; phase 2 runs in the same tableau, and rows made redundant
in phase 1 are dropped by moving the kept rows up, in place.

The tableau stays dense, but the synthesis LPs are sparse (about 1% of
the standardized entries are nonzero) and stay sparse while pivoting, so
each pivot updates only the block of rows with a nonzero in the pivot
column and columns with a nonzero in the pivot row.  Outside that block
the full rank-1 update would subtract a signed zero, so restricting it
changes no value: the pivot path and the solution are those of the full
update.  The block is updated in place, a few rows at a time, by one
np.subtract.at on flat indices into the C-contiguous tableau, so that no
temporary holds more than BLOCK entries.  ufunc.at is unbuffered and a
slice's indices are distinct, so each entry in the block gets exactly the
one multiply and subtract of the full update, signed zeros included, and
no other entry is written.  The np.ix_ and full-tableau pivots of the test
suite (ix_pivot, dense_pivot) remain the oracles.  The entering column is
copied once per iteration, and the ratio test and the pivot read it from
there.

A solve whose tableau loses accuracy (LpNumericalError, or an optimal
point that misses a row) is redone by a revised simplex that inverts the
basis afresh from the original rows every REFACTOR pivots and picks
large pivots (Harris's ratio test); see solve.  Its bits depend on the
BLAS thread count.  Both engines share the entering rule (_Pricing) and
the min-ratio row (_ratio_row).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LinearProgram",
    "LpSolution",
    "LpNumericalError",
    "solve",
    "format_lp",
]

PIVOT_TOL = 1e-9
BLOCK = 1 << 14  # most entries one np.subtract.at of a pivot updates
VERIFY_TOL = 1e-9  # relative miss of a row that sends a solve to the fallback
HARRIS_TOL = 1e-11  # how far below zero the fallback lets a basic value go
REFACTOR = 32  # fallback pivots between fresh basis inverses
INFEASIBLE_TOL = 1e-7  # artificial sum left after phase 1 that means infeasible
STALL_LIMIT = 64  # degenerate pivots before Bland's rule takes over
FALLBACK_ROWS = 1024  # largest LP the fallback takes on (about 8 s at 1253 rows)

LE = "<="
EQ = "="
_KINDS = ((None, None), (0.0, None))  # free, nonnegative


class LpNumericalError(RuntimeError):
    """Pivot breakdown or iteration blow-up, distinct from infeasibility."""


@dataclass(eq=False)
class LinearProgram:
    """minimize objective . v  subject to rows (coeffs, relation, rhs) and bounds.

    bounds[j] is (None, None) for a free variable, the default, or
    (0.0, None) for a nonnegative one; any other bound is written as a row.
    """

    variable_count: int
    objective: np.ndarray
    constraints: list = field(default_factory=list)
    bounds: list = field(default_factory=list)

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        if self.objective.shape != (self.variable_count,):
            raise ValueError("objective length must equal variable_count")
        if not np.isfinite(self.objective).all():
            raise ValueError("objective coefficients must be finite")
        if not self.bounds:
            self.bounds = [(None, None)] * self.variable_count
        if len(self.bounds) != self.variable_count:
            raise ValueError("bounds length must equal variable_count")
        for j, pair in enumerate(self.bounds):
            if pair not in _KINDS:
                raise ValueError(f"bounds[{j}] must be (None, None) or (0.0, None)")
        rows, self.constraints = self.constraints, []
        for row in rows:
            self.add(*row)

    def add(self, coeffs, rel, rhs) -> None:
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.variable_count,):
            raise ValueError("constraint coefficient length mismatch")
        if rel not in (LE, EQ):
            raise ValueError(f"relation must be '{LE}' or '{EQ}'")
        if not np.isfinite(coeffs).all():
            raise ValueError("constraint coefficients must be finite")
        rhs = float(rhs)
        if not math.isfinite(rhs):
            raise ValueError("constraint rhs must be finite")
        self.constraints.append((coeffs, rel, rhs))


@dataclass(frozen=True, eq=False)
class LpSolution:
    """Solver outcome with per-phase work counts (phase 1, phase 2).

    Phase-1 pivots include those that drive leftover artificial variables
    out of the basis; bland_switches counts the switches from the
    most-negative-cost rule to Bland's rule on degenerate stretches.
    """

    status: str  # optimal | infeasible | unbounded
    objective: float
    values: np.ndarray
    pivots: tuple[int, int] = (0, 0)
    bland_switches: tuple[int, int] = (0, 0)


def _tableau(lp: LinearProgram):
    """Phase-1 tableau of min c.u s.t. A u = b, u >= 0, built in place.

    Returns (T, basis, ncols, c, recover).  T is [A | art | b] above a zero
    objective row: A has ncols structural and slack columns, a row whose
    right-hand side is negative is negated (its zeros become -0.0), so
    b >= 0, and each artificial column is a unit column of a row without
    one in A.  basis holds per row its first unit column, else its
    artificial; recover(u) yields the original vector.  A nonnegative
    variable is its own column; a free one splits into the difference of
    two.

    T is the only array of its size: one pass over the rows finds the
    right-hand sides and, per variable, its nonzero count, the row of its
    last nonzero and the sum of its coefficients.  These fix the unit
    columns, so the artificial count, before T is allocated; a second pass
    writes each row straight into T.
    """
    n = lp.variable_count
    is_free = np.array([lo is None for lo, _ in lp.bounds], dtype=bool)
    free = np.flatnonzero(is_free)            # their negative part is first + 1
    first = np.arange(n) + np.cumsum(is_free) - is_free  # column of each variable
    second = first[free] + 1
    nvar = n + free.size

    def place(a: np.ndarray, out: np.ndarray) -> None:
        # adding 0.0 turns a -0.0, given or made by the negation, into +0.0
        out[first] = a + 0.0
        out[second] = -a[free] + 0.0

    rows = lp.constraints
    m = len(rows)
    b = np.zeros(m)
    count = np.zeros(n, dtype=int)  # nonzeros of each variable's column
    last = np.zeros(n, dtype=int)   # row of its last nonzero
    total = np.zeros(n)             # sum of its coefficients: the one nonzero when count is 1
    for i, (coeffs, _, rhs) in enumerate(rows):
        b[i] = rhs
        nonzero = coeffs != 0.0
        count += nonzero
        last[nonzero] = i
        total += coeffs
    neg = b < 0
    b[neg] *= -1.0

    le_rows = np.array([i for i, (_, rel, _) in enumerate(rows) if rel == LE], dtype=int)
    slack_cols = nvar + np.arange(le_rows.size)
    ncols = nvar + le_rows.size
    # a unit column beats the artificial (index ncols), a structural one the slack
    basis = np.full(m, ncols)
    usable = ~neg[le_rows]
    basis[le_rows[usable]] = slack_cols[usable]
    single = np.flatnonzero(count == 1)
    at = last[single]
    entry = np.where(neg[at], -total[single], total[single])  # after the row's flip
    unit_first = entry == 1.0                              # column first[j] holds a
    unit_second = is_free[single] & (entry == -1.0)        # column first[j] + 1 holds -a
    np.minimum.at(basis, np.concatenate([at[unit_first], at[unit_second]]),
                  np.concatenate([first[single[unit_first]], first[single[unit_second]] + 1]))
    missing = np.flatnonzero(basis == ncols)
    art_cols = ncols + np.arange(missing.size)
    basis[missing] = art_cols

    T = np.zeros((m + 1, ncols + missing.size + 1))
    for i, (coeffs, _, _) in enumerate(rows):
        place(coeffs, T[i])
    T[le_rows, slack_cols] = 1.0
    for i in np.flatnonzero(neg):
        T[i, :ncols] *= -1.0
    T[missing, art_cols] = 1.0
    T[:m, -1] = b
    c = np.zeros(ncols)
    place(lp.objective, c)

    def recover(u: np.ndarray) -> np.ndarray:
        x = u[first] + 0.0
        x[free] -= u[second]
        return x

    return T, basis, ncols, c, recover


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int, column: np.ndarray) -> None:
    """Pivot on T[row, col]: scale the row to a unit pivot, eliminate col elsewhere.

    column is a copy of T[:, col] taken before the pivot.  Only entries in
    a row with a nonzero in the pivot column and a column with a nonzero
    in the scaled pivot row change.  Each of them gets the same multiply
    and subtract as in the full update T -= outer(T[:, col], T[row]);
    every other entry would only have a signed zero subtracted.

    The touched rows are updated in slices of at most BLOCK // len(cols)
    rows, each by one np.subtract.at at the flat indices row * width + col
    with the products factor * scaled.  ufunc.at is unbuffered and the
    indices of a slice are distinct, so each touched entry gets exactly one
    x - f * s, as in the full update, and no other entry is written.  The
    slices are disjoint and exclude the pivot row, so each T[r, col] is
    unchanged until its own slice and equals column[r], which supplies the
    multipliers; the result is bit-identical to a one-shot update, signed
    zeros too.
    The update must write into T itself, so the flat view is taken with
    np.reshape(..., copy=False): every C-contiguous tableau, which is all
    solve builds, flattens to a view, and a layout that does not (Fortran
    order, a column slice) raises ValueError before anything is written
    instead of updating a copy.
    """
    flat = np.reshape(T, -1, copy=False)
    piv = column[row]
    if abs(piv) < PIVOT_TOL:
        raise LpNumericalError(f"pivot breakdown: |{piv:.3e}| below tolerance")
    T[row] /= piv
    pivot_row = T[row]
    cols = np.flatnonzero(pivot_row)
    rows = np.flatnonzero(column)
    rows = rows[rows != row]
    factors = column[rows]
    scaled = pivot_row[cols]
    width = T.shape[1]
    step = max(1, BLOCK // cols.size)
    for start in range(0, rows.size, step):
        part = slice(start, start + step)
        # 1-d indices and values: ufunc.at's fast path, about 3x a 2-d call
        np.subtract.at(flat, ((rows[part] * width)[:, None] + cols).reshape(-1),
                       np.multiply.outer(factors[part], scaled).reshape(-1))
    basis[row] = col


def _ratio_row(rhs: np.ndarray, basis: np.ndarray, column: np.ndarray) -> int:
    """Min-ratio row for the entering column `column` (entries past rhs's
    length ignored) over the basic values rhs; ties broken by smallest
    basic variable index (Bland).

    Only rows whose entering-column entry exceeds PIVOT_TOL are eligible;
    -1 when there is none.
    """
    col = column[:rhs.size]
    eligible = np.flatnonzero(col > PIVOT_TOL)
    if eligible.size == 0:
        return -1
    ratios = rhs[eligible] / col[eligible]
    best = float(np.min(ratios))
    ties = eligible[ratios <= best + PIVOT_TOL]
    return int(ties[np.argmin(basis[ties])])


def _drop_rows(T: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """T with only the constraint rows `keep` (ascending) and the objective row.

    The kept rows move up in place, in ascending order, so each lands on a
    row already moved or dropped; the result is the leading, C-contiguous
    view T[:keep.size + 1], and no second tableau is allocated.
    """
    for dst, src in enumerate(keep):
        if dst != src:
            T[dst] = T[src]
    T[keep.size] = T[-1]
    return T[:keep.size + 1]


class _Pricing:
    """The entering rule of both engines, one per simplex run.

    Entering column: most negative reduced cost (Dantzig) while the
    objective makes progress; after STALL_LIMIT degenerate iterations
    Bland's rule (lowest eligible index, lowest-index leaving tie-break)
    takes over until the objective next improves, which precludes cycling:
    Bland cannot cycle, so every degenerate stretch ends in finitely many
    steps, and strict improvements cannot revisit a basis.  Both rules are
    deterministic.  switches counts the changes to Bland's rule.
    """

    def __init__(self):
        self.bland = False
        self.switches = 0
        self.stall = 0
        self.last = math.inf

    def progress(self, objective) -> None:
        """Record the objective (minimized) at the basis, once per iteration
        before pricing; the first call only sets the level to improve on."""
        if objective < self.last - PIVOT_TOL:
            self.stall = 0
            self.bland = False
            self.last = objective
        elif not self.bland:
            self.stall += 1
            if self.stall >= STALL_LIMIT:
                self.bland = True
                self.switches += 1

    def enter(self, reduced: np.ndarray) -> int:
        """The entering column for these reduced costs, -1 when none
        prices out below -PIVOT_TOL (the basis is optimal)."""
        if self.bland:
            candidates = np.flatnonzero(reduced < -PIVOT_TOL)
            return int(candidates[0]) if candidates.size else -1
        if reduced.size == 0:
            return -1
        enter = int(np.argmin(reduced))
        return -1 if reduced[enter] >= -PIVOT_TOL else enter


def _budget(T: np.ndarray) -> int:
    """Iteration limit of each phase, from the size of the phase-1 tableau."""
    return 2000 + 200 * (T.shape[0] + T.shape[1] - 2)


def _no_point(lp: LinearProgram, status: str, pivots, switches) -> LpSolution:
    """The outcome of a solve that ends 'infeasible' or 'unbounded'."""
    return LpSolution(status, np.nan if status == "infeasible" else -np.inf,
                      np.full(lp.variable_count, np.nan), tuple(pivots), tuple(switches))


def _simplex(T: np.ndarray, basis: np.ndarray, ncols: int, max_iter: int,
             art_sum: float | None = None) -> tuple[str, int, int]:
    """Simplex iterations on tableau T (objective in the last row).

    Returns (status, pivots, bland_switches) with status 'optimal' or
    'unbounded'.  The entering column is _Pricing's, fed the objective
    -T[-1, -1] (negation is exact); the leaving row is _ratio_row's.

    In phase 1, art_sum is the sum of the artificial variables' right-hand
    sides.  The objective entry T[-1, -1] is minus the artificial sum, so it
    provably stays in [-art_sum, 0]; leaving that range by more than a
    tolerance scaled with art_sum means the tableau has lost accuracy, and
    LpNumericalError is raised instead of pivoting on.
    """
    if art_sum is not None:
        slack = PIVOT_TOL * max(art_sum, 1.0)
        low, high = -art_sum - slack, slack
    pricing = _Pricing()
    for it in range(max_iter):
        pricing.progress(-T[-1, -1])
        enter = pricing.enter(T[-1, :ncols])
        if enter < 0:
            return "optimal", it, pricing.switches
        column = T[:, enter].copy()
        leave = _ratio_row(T[:-1, -1], basis, column)
        if leave < 0:
            return "unbounded", it, pricing.switches
        _pivot(T, basis, leave, enter, column)
        obj = T[-1, -1]
        if art_sum is not None and not low <= obj <= high:
            raise LpNumericalError(
                f"phase-1 objective {-obj:.6g} left its range [0, {art_sum:.6g}] "
                f"after {it + 1} pivots")
        # min and max are NaN or infinite exactly when an entry is, and
        # unlike np.isfinite(T) they allocate no tableau-sized mask
        if it % 512 == 511 and not (math.isfinite(T.min()) and math.isfinite(T.max())):
            raise LpNumericalError("tableau lost finiteness during pivoting")
    raise LpNumericalError("iteration limit exceeded")


def solve(lp: LinearProgram) -> LpSolution:
    """Two-phase primal simplex; returns a vertex solution when optimal.

    The tableau simplex runs first.  Its updates accumulate rounding, and
    on a badly scaled LP (entries near PIVOT_TOL next to entries near 1)
    it can lose accuracy: it then raises LpNumericalError, or returns a
    point that misses a row by more than a tolerance relative to the row's
    magnitude.  In either case the LP is solved again by _refactored_solve,
    which recomputes the basis inverse from the original rows every
    REFACTOR pivots, so rounding cannot build up past that; an LP the
    tableau solves accurately never gets there, so its solution and counts
    are those of the tableau.  An LP of more than FALLBACK_ROWS rows is not
    redone, since each dense basis inverse of the fallback costs
    O(rows^3): its failure is raised as LpNumericalError, as is a singular
    basis in the fallback.
    """
    try:
        sol = _tableau_solve(lp)
        if sol.status == "optimal" and not _satisfies(lp, sol.values):
            raise LpNumericalError("the tableau's optimal point misses a row")
        return sol
    except LpNumericalError:
        if len(lp.constraints) > FALLBACK_ROWS:
            raise
    try:
        return _refactored_solve(lp)
    except np.linalg.LinAlgError as err:
        raise LpNumericalError(f"refactored simplex: singular basis ({err})") from err


def _satisfies(lp: LinearProgram, x: np.ndarray) -> bool:
    """Whether x is finite and meets every row and bound of lp to within
    VERIFY_TOL times the row's magnitude (the largest of 1, |rhs| and
    sum |a_j x_j|)."""
    if not np.isfinite(x).all():
        return False  # a NaN fails every comparison below, so it would pass
    for coeffs, rel, rhs in lp.constraints:
        miss = float(coeffs @ x) - rhs
        tol = VERIFY_TOL * max(1.0, abs(rhs), float(np.abs(coeffs) @ np.abs(x)))
        if miss > tol or (rel == EQ and miss < -tol):
            return False
    nonneg = np.array([lo is not None for lo, _ in lp.bounds], dtype=bool)
    return bool(np.all(x[nonneg] >= -VERIFY_TOL))


def _tableau_solve(lp: LinearProgram) -> LpSolution:
    """The two-phase simplex in one dense tableau (see the module docstring)."""
    T, basis, ncols, c, recover = _tableau(lp)
    m, total_cols = T.shape[0] - 1, T.shape[1] - 1
    missing = np.flatnonzero(basis >= ncols)  # rows with an artificial basic variable

    max_iter = _budget(T)
    pivots = [0, 0]
    switches = [0, 0]

    if missing.size:
        # phase 1: minimize the artificial sum
        T[-1, ncols:total_cols] = 1.0
        for i in missing:
            T[-1] -= T[i]
        status, pivots[0], switches[0] = _simplex(T, basis, total_cols, max_iter,
                                                  float(T[missing, -1].sum()))
        if status != "optimal":
            raise LpNumericalError("phase-1 reported unbounded: inconsistent tableau")
        if T[-1, -1] < -INFEASIBLE_TOL:
            return _no_point(lp, "infeasible", pivots, switches)
        # drive remaining artificials out of the basis
        for i in range(m):
            if basis[i] >= ncols:
                nonzero = np.flatnonzero(np.abs(T[i, :ncols]) > PIVOT_TOL)
                if nonzero.size:
                    j = int(nonzero[0])
                    _pivot(T, basis, i, j, T[:, j].copy())
                    pivots[0] += 1
        keep_rows = np.flatnonzero(basis < ncols)
        if keep_rows.size < m:
            # redundant rows: zero in every structural column
            T = _drop_rows(T, keep_rows)
            basis = basis[keep_rows]
            m = keep_rows.size

    # phase 2 in the same tableau; no pivot touches the zeroed artificial columns
    T[:, ncols:total_cols] = 0.0
    T[-1] = 0.0
    T[-1, :ncols] = c
    for i in range(m):
        cb = c[basis[i]]
        if cb != 0.0:
            T[-1] -= cb * T[i]
    status, pivots[1], switches[1] = _simplex(T, basis, ncols, max_iter)
    if status == "unbounded":
        return _no_point(lp, "unbounded", pivots, switches)

    u = np.zeros(ncols)
    u[basis] = T[:m, -1]
    x = recover(u)
    return LpSolution("optimal", float(lp.objective @ x), x, tuple(pivots), tuple(switches))


def _harris_row(xb: np.ndarray, basis: np.ndarray, w: np.ndarray) -> int:
    """Leaving row of Harris's two-pass ratio test, -1 when none is eligible.

    Pass one finds the largest step that leaves no basic variable below
    -HARRIS_TOL; pass two takes, among the rows that step would block, the
    one with the largest entry w (ties: smallest basic variable index), so
    a tiny pivot is not taken when a larger one is nearly as tight.
    """
    eligible = np.flatnonzero(w > PIVOT_TOL)
    if eligible.size == 0:
        return -1
    level = np.maximum(xb[eligible], 0.0)
    step = float(np.min((level + HARRIS_TOL) / w[eligible]))
    blocking = eligible[level / w[eligible] <= step]
    largest = w[blocking] == np.max(w[blocking])
    return int(blocking[largest][np.argmin(basis[blocking[largest]])])


def _revised(A: np.ndarray, b: np.ndarray, cost: np.ndarray, basis: np.ndarray,
             enterable: int, max_iter: int) -> tuple[str, int, int]:
    """Revised simplex on min cost.u, A u = b, u >= 0 from the feasible
    basis `basis` (updated in place); columns below `enterable` may enter.

    The basis inverse gets a product-form update per pivot and is inverted
    afresh from A every REFACTOR pivots, and the basic values, prices and
    entering column are recomputed from it each iteration.  The entering
    column is _Pricing's, as in _simplex; the leaving row is Harris's, or
    _ratio_row's on the basic values clipped at zero under Bland's rule.
    Returns (status, pivots, bland_switches).
    """
    Binv = np.linalg.inv(A[:, basis])
    pricing = _Pricing()
    for it in range(max_iter):
        if it and it % REFACTOR == 0:
            Binv = np.linalg.inv(A[:, basis])
        if it % REFACTOR == 0 and not np.isfinite(Binv).all():
            raise LpNumericalError("refactored simplex: basis inverse not finite")
        xb = Binv @ b
        pricing.progress(float(cost[basis] @ xb))
        reduced = cost[:enterable] - (cost[basis] @ Binv) @ A[:, :enterable]
        reduced[basis[basis < enterable]] = 0.0
        enter = pricing.enter(reduced)
        if enter < 0:
            return "optimal", it, pricing.switches
        w = Binv @ A[:, enter]
        leave = (_ratio_row(np.maximum(xb, 0.0), basis, w) if pricing.bland
                 else _harris_row(xb, basis, w))
        if leave < 0:
            return "unbounded", it, pricing.switches
        Binv[leave] /= w[leave]
        w[leave] = 0.0
        Binv -= np.outer(w, Binv[leave])
        basis[leave] = enter
    raise LpNumericalError("iteration limit exceeded")


def _refactored_solve(lp: LinearProgram) -> LpSolution:
    """Two-phase revised simplex on the standard form of _tableau.

    Slower than the tableau (a dense inverse every REFACTOR pivots), but
    each basic solution is computed from the original rows, so rounding
    does not build up over the pivots; the values returned are solved
    from the final basis afresh.  A singular basis raises
    np.linalg.LinAlgError.
    """
    T, basis, ncols, c, recover = _tableau(lp)
    m, total_cols = T.shape[0] - 1, T.shape[1] - 1
    A, b = T[:m, :total_cols], T[:m, -1]
    max_iter = _budget(T)
    pivots = [0, 0]
    switches = [0, 0]

    if np.any(basis >= ncols):
        cost = np.zeros(total_cols)
        cost[ncols:] = 1.0
        # an artificial that leaves never returns, so one still basic at
        # position i is row i's own, and dropping row i keeps B invertible
        _, pivots[0], switches[0] = _revised(A, b, cost, basis, ncols, max_iter)
        Binv = np.linalg.inv(A[:, basis])
        if float(cost[basis] @ (Binv @ b)) > INFEASIBLE_TOL:
            return _no_point(lp, "infeasible", pivots, switches)
        # drive remaining artificials out of the basis, on the largest entry
        for i in range(m):
            if basis[i] >= ncols:
                row = Binv[i] @ A[:, :ncols]
                j = int(np.argmax(np.abs(row)))
                if abs(row[j]) > PIVOT_TOL:
                    basis[i] = j
                    Binv = np.linalg.inv(A[:, basis])
                    pivots[0] += 1
        keep = basis < ncols  # the others are redundant rows
        A, b, basis = A[keep], b[keep], basis[keep]

    cost = np.zeros(total_cols)
    cost[:ncols] = c
    status, pivots[1], switches[1] = _revised(A, b, cost, basis, ncols, max_iter)
    if status == "unbounded":
        return _no_point(lp, "unbounded", pivots, switches)
    u = np.zeros(ncols)
    u[basis] = np.maximum(np.linalg.solve(A[:, basis], b), 0.0)
    x = recover(u)
    if not _satisfies(lp, x):
        raise LpNumericalError("refactored simplex: the solution misses a row")
    return LpSolution("optimal", float(lp.objective @ x), x, tuple(pivots), tuple(switches))


def _terms(coeffs: np.ndarray) -> str:
    """The nonzero terms of a row, `a v0 - b v3 + ...`, or `0 v0` if none."""
    idx = np.flatnonzero(coeffs)
    body = " ".join(f"{'-' if a < 0 else '+'} {abs(a):.12g} v{j}"
                    for j, a in zip(idx.tolist(), coeffs[idx].tolist()))
    return body.removeprefix("+ ") or "0 v0"


def format_lp(lp: LinearProgram, name: str = "problem") -> str:
    """Render in the conventional text LP interchange format (CPLEX-style)."""
    lines = [f"\\ {name}", "Minimize", f" obj: {_terms(lp.objective)}", "Subject To"]
    for i, (coeffs, rel, rhs) in enumerate(lp.constraints):
        op = "<=" if rel == LE else "="
        lines.append(f" c{i}: {_terms(coeffs)} {op} {rhs:.12g}")
    lines.append("Bounds")
    for j, (lo, hi) in enumerate(lp.bounds):
        lo_s = "-inf" if lo is None else f"{lo:.12g}"
        hi_s = "+inf" if hi is None else f"{hi:.12g}"
        lines.append(f" {lo_s} <= v{j} <= {hi_s}")
    lines.append("End")
    return "\n".join(lines) + "\n"

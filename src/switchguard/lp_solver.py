"""Deterministic dense linear-program solver (two-phase primal simplex).

Standard form with equalities, inequalities, free and bounded variables.
Pivoting uses the most-negative-cost rule while progress is made and
switches to Bland's rule on degenerate stretches, which precludes cycling;
both rules are fixed, so identical inputs produce bit-identical outputs.

The tableau stays dense, but the synthesis LPs are sparse (about 1% of
the standardized entries are nonzero) and stay sparse while pivoting, so
each pivot updates only the block of rows with a nonzero in the pivot
column and columns with a nonzero in the pivot row.  Outside that block
the full rank-1 update would subtract a signed zero, so restricting it
changes no value: the pivot path and the solution are those of the full
update.  The block is gathered, updated and scattered back through flat
indices into the C-contiguous tableau, a few rows at a time, so that no
temporary holds more than BLOCK entries; each entry still gets the one
multiply and subtract of the full update.
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
BLOCK = 1 << 14  # most entries a pivot gathers, updates and scatters at once

LE = "<="
EQ = "="


class LpNumericalError(RuntimeError):
    """Pivot breakdown or iteration blow-up, distinct from infeasibility."""


@dataclass
class LinearProgram:
    """minimize objective . v  subject to rows (coeffs, relation, rhs) and bounds.

    bounds[j] = (lo, hi) with None for unbounded sides; defaults to free.
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
        sides = [side for pair in self.bounds for side in pair if side is not None]
        if not all(map(math.isfinite, sides)):
            raise ValueError("bounds must be finite numbers or None")
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


@dataclass(frozen=True)
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


def _standardize(lp: LinearProgram):
    """Rewrite as min c.u s.t. A u = b, u >= 0 plus the original-variable map.

    Returns (A, b, c, recover) where recover(u) yields the original vector.
    Free variables split into differences of nonnegatives; finite lower
    bounds shift; finite upper bounds become extra rows.
    """
    n = lp.variable_count
    first = np.zeros(n, dtype=int)  # column of each original variable
    sign = np.ones(n)               # its sign in that column
    free = []                       # free variables; their negative part is first + 1
    shift = np.zeros(n)
    ncols = 0
    extra_rows = []  # (orig var index, ub-lo) handled after mapping
    for j, (lo, hi) in enumerate(lp.bounds):
        first[j] = ncols
        ncols += 1
        if lo is None and hi is None:
            free.append(j)
            ncols += 1
        elif lo is None:
            sign[j] = -1.0
            shift[j] = hi
        else:
            shift[j] = lo
            if hi is not None:
                # an empty box is encoded as the infeasible row 0 <= -1
                extra_rows.append((j, -1.0 if hi < lo else hi - lo))
    free = np.array(free, dtype=int)
    second = first[free] + 1

    def place(a: np.ndarray, out: np.ndarray) -> None:
        # adding 0.0 turns the -0.0 of a zero coefficient times -1 into +0.0
        out[first] = a * sign + 0.0
        out[second] = -a[free] + 0.0

    m = len(lp.constraints) + len(extra_rows)
    le_rows = [i for i, (_, rel, _) in enumerate(lp.constraints) if rel == LE]
    le_rows += range(len(lp.constraints), m)
    nslack = len(le_rows)
    A = np.zeros((m, ncols + nslack))
    b = np.zeros(m)
    for i, (coeffs, _, rhs) in enumerate(lp.constraints):
        place(coeffs, A[i])
        b[i] = rhs - float(coeffs @ shift)
    for i, (j, span) in enumerate(extra_rows, start=len(lp.constraints)):
        # u_j <= span in shifted coordinates (already shifted by lo)
        A[i, first[j]] = 1.0
        b[i] = span
    A[le_rows, ncols + np.arange(nslack)] = 1.0
    c = np.zeros(ncols + nslack)
    place(lp.objective, c)

    def recover(u: np.ndarray) -> np.ndarray:
        x = shift + sign * u[first]
        x[free] -= u[second]
        return x

    return A, b, c, recover


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Pivot on T[row, col]: scale the row to a unit pivot, eliminate col elsewhere.

    Only entries in a row with a nonzero in the pivot column and a column
    with a nonzero in the scaled pivot row change.  Each of them gets the
    same multiply and subtract as in the full update T -= outer(T[:, col],
    T[row]); every other entry would only have a signed zero subtracted.

    The touched rows are updated in slices of at most BLOCK // len(cols)
    rows, each gathered, updated and scattered back through flat indices
    row * width + col.  The slices are disjoint and exclude the pivot row,
    so each reads the T[r, col] and T[row, cols] that a one-shot update
    would read, and the result is bit-identical to it, signed zeros too.
    The update must write into T itself, so the flat view is taken with
    np.reshape(..., copy=False): every C-contiguous tableau, which is all
    solve builds, flattens to a view, and a layout that does not (Fortran
    order, a column slice) raises ValueError before anything is written
    instead of updating a copy.
    """
    flat = np.reshape(T, -1, copy=False)
    piv = T[row, col]
    if abs(piv) < PIVOT_TOL:
        raise LpNumericalError(f"pivot breakdown: |{piv:.3e}| below tolerance")
    T[row] /= piv
    pivot_row = T[row]
    cols = np.flatnonzero(pivot_row)
    rows = np.flatnonzero(T[:, col])
    rows = rows[rows != row]
    scaled = pivot_row[cols]
    width = T.shape[1]
    step = max(1, BLOCK // cols.size)
    for start in range(0, rows.size, step):
        r = rows[start:start + step]
        idx = (r * width)[:, None] + cols
        blk = flat[idx]
        blk -= np.multiply.outer(T[r, col], scaled)
        flat[idx] = blk
    basis[row] = col


def _initial_basis(A: np.ndarray) -> np.ndarray:
    """Per row, the first unit column (one nonzero, 1.0 in that row), or -1.

    A unit column can only serve its own row, so no column is chosen twice.
    """
    unit = (A == 1.0) & (np.count_nonzero(A, axis=0) == 1)
    if unit.shape[1] == 0:
        return np.full(unit.shape[0], -1)
    return np.where(unit.any(axis=1), unit.argmax(axis=1), -1)


def _ratio_row(T: np.ndarray, basis: np.ndarray, enter: int) -> int:
    """Min-ratio row; ties broken by smallest basic variable index (Bland).

    Only rows whose entering-column entry exceeds PIVOT_TOL are eligible;
    -1 when there is none.
    """
    m = T.shape[0] - 1
    col = T[:m, enter]
    eligible = np.flatnonzero(col > PIVOT_TOL)
    if eligible.size == 0:
        return -1
    ratios = T[eligible, -1] / col[eligible]
    best = float(np.min(ratios))
    ties = eligible[ratios <= best + PIVOT_TOL]
    return int(ties[np.argmin(basis[ties])])


STALL_LIMIT = 64


def _simplex(T: np.ndarray, basis: np.ndarray, ncols: int, max_iter: int,
             art_sum: float | None = None) -> tuple[str, int, int]:
    """Simplex iterations on tableau T (objective in the last row).

    Returns (status, pivots, bland_switches) with status 'optimal' or
    'unbounded'.  Entering column: most negative reduced cost (Dantzig)
    while the objective makes progress; after STALL_LIMIT degenerate
    iterations Bland's rule (lowest eligible index, lowest-index leaving
    tie-break) takes over until the objective next improves, which
    precludes cycling: Bland cannot cycle, so every degenerate stretch ends
    in finitely many steps, and strict improvements cannot revisit a basis.
    Both rules are deterministic.

    In phase 1, art_sum is the sum of the artificial variables' right-hand
    sides.  The objective entry T[-1, -1] is minus the artificial sum, so it
    provably stays in [-art_sum, 0]; leaving that range by more than a
    tolerance scaled with art_sum means the tableau has lost accuracy, and
    LpNumericalError is raised instead of pivoting on.
    """
    if ncols == 0:
        return "optimal", 0, 0  # no column can enter
    if art_sum is not None:
        slack = PIVOT_TOL * max(art_sum, 1.0)
        low, high = -art_sum - slack, slack
    bland = False
    switches = 0
    stall = 0
    last_obj = T[-1, -1]
    for it in range(max_iter):
        reduced = T[-1, :ncols]
        if bland:
            candidates = np.flatnonzero(reduced < -PIVOT_TOL)
            if candidates.size == 0:
                return "optimal", it, switches
            enter = int(candidates[0])
        else:
            enter = int(np.argmin(reduced))
            if reduced[enter] >= -PIVOT_TOL:
                return "optimal", it, switches
        leave = _ratio_row(T, basis, enter)
        if leave < 0:
            return "unbounded", it, switches
        _pivot(T, basis, leave, enter)
        obj = T[-1, -1]
        if art_sum is not None and not low <= obj <= high:
            raise LpNumericalError(
                f"phase-1 objective {-obj:.6g} left its range [0, {art_sum:.6g}] "
                f"after {it + 1} pivots")
        if obj > last_obj + PIVOT_TOL:
            stall = 0
            bland = False
            last_obj = obj
        elif not bland:
            stall += 1
            if stall >= STALL_LIMIT:
                bland = True
                switches += 1
        if it % 512 == 511 and not np.all(np.isfinite(T)):
            raise LpNumericalError("tableau lost finiteness during pivoting")
    raise LpNumericalError("iteration limit exceeded")


def solve(lp: LinearProgram) -> LpSolution:
    """Two-phase primal simplex; returns a vertex solution when optimal."""
    A, b, c, recover = _standardize(lp)
    m, ncols = A.shape
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # identity columns usable as an initial basis; artificials fill the other rows
    basis = _initial_basis(A)
    missing = np.flatnonzero(basis < 0)
    n_art = missing.size
    total_cols = ncols + n_art
    T = np.zeros((m + 1, total_cols + 1))
    T[:m, :ncols] = A
    del A  # T holds it now; do not keep both alive through the pivots
    T[:m, -1] = b
    art_cols = ncols + np.arange(n_art)
    T[missing, art_cols] = 1.0
    basis[missing] = art_cols

    max_iter = 2000 + 200 * (m + total_cols)
    pivots = [0, 0]
    switches = [0, 0]

    if n_art:
        # phase 1: minimize the artificial sum
        T[-1, ncols:total_cols] = 1.0
        for i in missing:
            T[-1] -= T[i]
        status, pivots[0], switches[0] = _simplex(T, basis, total_cols, max_iter,
                                                  float(b[missing].sum()))
        if status != "optimal":
            raise LpNumericalError("phase-1 reported unbounded: inconsistent tableau")
        if T[-1, -1] < -1e-7:
            return LpSolution("infeasible", np.nan, np.full(lp.variable_count, np.nan),
                              tuple(pivots), tuple(switches))
        # drive remaining artificials out of the basis
        for i in range(m):
            if basis[i] >= ncols:
                nonzero = np.flatnonzero(np.abs(T[i, :ncols]) > PIVOT_TOL)
                if nonzero.size:
                    _pivot(T, basis, i, int(nonzero[0]))
                    pivots[0] += 1
        keep_rows = np.flatnonzero(basis < ncols)
        if keep_rows.size < m:
            # redundant rows: zero in every structural column
            T = np.vstack([T[keep_rows], T[-1:]])
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
        return LpSolution("unbounded", -np.inf, np.full(lp.variable_count, np.nan),
                          tuple(pivots), tuple(switches))

    u = np.zeros(ncols)
    u[basis] = T[:m, -1]
    x = recover(u)
    return LpSolution("optimal", float(lp.objective @ x), x, tuple(pivots), tuple(switches))


def format_lp(lp: LinearProgram, name: str = "problem") -> str:
    """Render in the conventional text LP interchange format (CPLEX-style)."""
    def term(a: float, j: int, first: bool) -> str:
        sign = "-" if a < 0 else ("" if first else "+")
        mag = abs(a)
        return f"{sign} {mag:.12g} v{j} "

    lines = [f"\\ {name}", "Minimize", " obj:"]
    body = ""
    first = True
    for j, a in enumerate(lp.objective):
        if a != 0.0:
            body += term(a, j, first)
            first = False
    lines[-1] += " " + (body.strip() or "0 v0")
    lines.append("Subject To")
    for i, (coeffs, rel, rhs) in enumerate(lp.constraints):
        body = ""
        first = True
        for j, a in enumerate(coeffs):
            if a != 0.0:
                body += term(a, j, first)
                first = False
        op = "<=" if rel == LE else "="
        lines.append(f" c{i}: {body.strip() or '0 v0'} {op} {rhs:.12g}")
    lines.append("Bounds")
    for j, (lo, hi) in enumerate(lp.bounds):
        lo_s = "-inf" if lo is None else f"{lo:.12g}"
        hi_s = "+inf" if hi is None else f"{hi:.12g}"
        lines.append(f" {lo_s} <= v{j} <= {hi_s}")
    lines.append("End")
    return "\n".join(lines) + "\n"

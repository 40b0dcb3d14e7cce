"""Worst-case estimator synthesis as a linear program over switching FIR factors.

The estimator is parametrized by two FIR switching operators Q (state
feedback shape, n x n) and Z (measurement shape, n x p).  Two families of
affine constraint rows are built over all admissible trailing mode
windows: residual rows, which must vanish (exact mode) or stay below a
contraction bound (relaxed mode), and performance rows, whose worst
absolute row sum is the estimation-error peak gain to minimize.  The
recovered estimator is T = -Z; the observer gain factors are (Q, Z).

The kernel entries of those rows are encoded once, by `_kernel_terms`:
at most two blocks per row kind (the kernel columns and, for performance
rows, the x0 block), each spanning every lag, as integer variable-id
arrays, coefficient arrays and constants shaped (window, state row, lag,
column, term), with the windows one integer array gathered once per tap
history.  A term a lag lacks has coefficient 0 and the id one past the
last variable.  Variable ids are arithmetic over (tap history, lag, Q or
Z block entry), so `DecisionVariables.pack` and `unpack` are reshapes.
`assemble_lp` flattens (lag, column) into the entry axis, stacks the
terms, drops the zero coefficients and deduplicates slacks and rows by
sorting integer keys of their (id, coefficient, constant) terms, numbered
in order of first occurrence.  It refuses an LP whose windows' terms,
counted from the automaton before any window is enumerated, or whose
dense rows would exceed LP_BYTE_BUDGET.  `row_gains` evaluates the same
terms at the packed taps, each entry its constant plus its products
summed left to right.  A row's lag-k entries depend only on its tap
history, k and the mode at lag k, so each block is evaluated once, for
every lag, on one window per (tap history, lag mode) pair, and each
window sums its pairs' absolute entries left to right in entry order: the
gains are the bits the LP's affine forms give.  `synthesize` takes
eps_achieved from it and `certify` takes gamma_rows and eps_rows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operator_core as oc
from .lp_solver import EQ, LE, LinearProgram, solve
from .switched_model import (ChannelPlant, SwitchedOutputModel, SwitchingAutomaton,
                             SwitchingFIR, _distinct_rows, _history_bound, _mode_array,
                             _trailing_windows, _WindowRows, history_array)

__all__ = [
    "SynthesisConfig",
    "SynthesisResult",
    "SynthesisInfeasibleError",
    "DecisionVariables",
    "decision_variables",
    "assemble_lp",
    "synthesize",
    "row_gains",
    "certify",
    "factor_operators",
]

MODE_EXACT = "exact"
MODE_RELAXED = "relaxed"
EXACT_EPS = 1e-9  # eps_achieved up to this is an exact design's zero residual
# the longest sequence, and the most sampled sequences, a run builds rows for:
# a relaxed design's rows grow with the horizon, so its memory with its square
SEQUENCE_BUDGET = 2048
# the most bytes the synthesis LP's dense rows may take (rows x columns x 8),
# and the constraint terms of its windows; the solver's tableau is as large
# again.  The largest demo LP tested, 2246 x 950, takes 17 MB
LP_BYTE_BUDGET = 1 << 27


class SynthesisInfeasibleError(RuntimeError):
    """The constraint set admits no FIR factors at the requested length/relaxation."""


@dataclass(frozen=True)
class SynthesisConfig:
    """Knobs of the synthesis: tap memory M, FIR length N, relaxation and verification.

    An invalid value raises ValueError with a message that starts with the
    field's name.
    """

    memory: int = 1
    fir_length: int = 5
    mode: str = MODE_EXACT
    eps_bar: float = 0.0
    verify_horizon: int = 30
    verify_samples: int = 20

    def __post_init__(self):
        if self.memory < 1:
            raise ValueError("memory must be >= 1")
        if self.fir_length < 1:
            raise ValueError("fir_length must be >= 1")
        if self.mode not in (MODE_EXACT, MODE_RELAXED):
            raise ValueError(f"mode must be '{MODE_EXACT}' or '{MODE_RELAXED}'")
        if self.mode == MODE_RELAXED and not (0.0 <= self.eps_bar < 1.0):
            raise ValueError("eps_bar must lie in [0, 1)")
        if self.verify_horizon < 1:
            raise ValueError("verify_horizon must be >= 1")
        if self.verify_samples < 1:
            raise ValueError("verify_samples must be >= 1")
        if self.verify_horizon > SEQUENCE_BUDGET:
            raise ValueError(
                f"verify_horizon must be at most {SEQUENCE_BUDGET}, the sequence budget")
        if self.verify_samples > SEQUENCE_BUDGET:
            raise ValueError(
                f"verify_samples must be at most {SEQUENCE_BUDGET}, the sequence budget")

    @property
    def window(self) -> int:
        """Length of the extended history windows indexing the constraints."""
        return max(self.memory, self.fir_length)

    def certified_bound(self, gamma_bar: float, eps_achieved: float) -> float:
        """gamma_bar in exact mode, gamma_bar + eps gamma_bar / (1 - eps) relaxed."""
        if self.mode == MODE_EXACT:
            return gamma_bar
        return gamma_bar + eps_achieved * gamma_bar / (1.0 - eps_achieved)


class DecisionVariables:
    """Canonical numbering of the Q/Z coefficient entries.

    Per tap history (a row of the sorted array `histories`, numbered by
    `history_ids`) and lag, the n x n block of Q and then the n x p block
    of Z, each row-major: a variable id is arithmetic over (history id,
    lag, block entry), and `pack`/`unpack` are reshapes.
    """

    def __init__(self, histories, memory: int, fir_length: int, n: int, p: int):
        self.memory = memory
        self.fir_length = fir_length
        self.n = n
        self.p = p
        self.history_ids = _WindowRows(np.asarray(histories, dtype=np.intp).reshape(-1, memory))
        self.histories = self.history_ids.windows
        self.block = n * (n + p)

    @property
    def count(self) -> int:
        return len(self.histories) * self.fir_length * self.block

    def q_var(self, hist_id, lag, r, c):
        """Id of Q_lag[r, c] at the tap history numbered hist_id; broadcasts over arrays."""
        return (hist_id * self.fir_length + lag) * self.block + r * self.n + c

    def z_var(self, hist_id, lag, r, c):
        """Id of Z_lag[r, c] at the tap history numbered hist_id; broadcasts over arrays."""
        return (hist_id * self.fir_length + lag) * self.block + self.n * self.n + r * self.p + c

    def unpack(self, x: np.ndarray) -> tuple[SwitchingFIR, SwitchingFIR]:
        """Split a solution vector into the Q and Z switching FIR operators."""
        n, p, N = self.n, self.p, self.fir_length
        blocks = np.reshape(x, (len(self.histories), N, self.block))
        q_taps = blocks[..., :n * n].reshape(-1, N, n, n)
        z_taps = blocks[..., n * n:].reshape(-1, N, n, p)
        keys = [(hist, lag) for hist in map(tuple, self.histories.tolist()) for lag in range(N)]
        Q = SwitchingFIR(self.memory, N, n, n, dict(zip(keys, q_taps.reshape(-1, n, n))))
        Z = SwitchingFIR(self.memory, N, p, n, dict(zip(keys, z_taps.reshape(-1, n, p))))
        return Q, Z

    def pack(self, Q: SwitchingFIR, Z: SwitchingFIR) -> np.ndarray:
        """Decision vector holding the taps of (Q, Z); the inverse of unpack."""
        n, p, N = self.n, self.p, self.fir_length
        taps = [fir.taps[fir.history_ids(self.histories)].reshape(len(self.histories), N, size)
                for fir, size in ((Q, n * n), (Z, n * p))]
        return np.concatenate(taps, axis=2).reshape(-1)


def decision_variables(automaton: SwitchingAutomaton, config: SynthesisConfig,
                       n: int, p: int) -> DecisionVariables:
    return DecisionVariables(history_array(automaton, config.memory),
                             config.memory, config.fir_length, n, p)


def _check_dims(plant: ChannelPlant, model: SwitchedOutputModel) -> None:
    if model.n != plant.n or model.m_w != plant.m_w:
        raise ValueError("plant and switched output model dimensions disagree")


_RESIDUAL = "residual"
_PERFORMANCE = "performance"


def _windows(automaton: SwitchingAutomaton, config: SynthesisConfig):
    """Every admissible extended window as one (window, L) integer array, in
    history_array order, with its tap history: the sorted distinct length-M
    suffixes, and each window's index among them.
    """
    L, M = config.window, config.memory
    windows = history_array(automaton, L)
    suffixes, tap_ids = _distinct_rows(windows[:, L - M:])
    return windows, suffixes, tap_ids


def _term_width(p: int, y0_rows: int, n: int, N: int) -> int:
    """Terms per kernel entry in `_kernel_terms`: the Z_k and Q_k Y0 terms,
    then, from lag 1 on, the Q_{k-1} X terms; the last lag has n."""
    zy = p + y0_rows
    return max(zy + n if N > 1 else zy, n)


def _kernel_term_bytes(plant: ChannelPlant, model: SwitchedOutputModel, N: int,
                       windows: int) -> int:
    """Bytes of the arrays `_kernel_terms` allocates for `windows` windows,
    both row kinds: each kind's variable ids and coefficients of the kernel
    columns, (window, n, N + 1, 1, width) and (window, 1, N + 1, q, width),
    and its Q ids, (window, n, N, n); all 8-byte entries."""
    n = plant.n
    per_window = 0
    for y0_rows, q in ((0, plant.m_w), (n, n)):  # performance, residual
        per_window += (N + 1) * _term_width(model.p, y0_rows, n, N) * (n + q) + n * N * n
    return 8 * windows * per_window


def _kernel_terms(plant: ChannelPlant, model: SwitchedOutputModel, kind: str,
                  windows: np.ndarray, hist_ids: np.ndarray,
                  variables: DecisionVariables) -> list[tuple]:
    """Terms of the kernel entries of every residual or performance row, every lag at once.

    Residual rows are those of shift(A) + Z Cbar + Q (shift(A) - I), and
    performance rows those of [shift(B) + Z Dbar + Q shift(B), b (I + Q)]: one
    row per (window, state row), the window's tap history numbered by
    hist_ids.  Returns the row's blocks in row entry order: the kernel
    columns, lags 0..N, then for performance rows the x0 block, lags
    0..N-1; within a block the entries run lag by lag, column by column.
    A block is (var, coeff, const): var the integer ids, shaped (window,
    state row, lag, 1 | column, term), coeff the coefficients, (window | 1,
    1, lag, column, term), and const (state row, lag, column).  An entry's
    value is const + (((0 + a1 x1) + a2 x2) + ...) over its terms in order.

    Entry (k, col) of shift(X) + Z Mbar + Q (shift(X) + Y0) holds Z_k[i, c]
    M_k[c, col] over c, Q_k[i, r] Y0[r, col] over the rows r where Y0 has a
    nonzero, and Q_{k-1}[i, r] X[r, col] over r, in that order, with M_k
    the mode matrix delivered k steps before the output time; its constant
    is X[i, col] at lag 1.  The x0 block holds one term b Q_k[i, j] per
    entry, with constant b I[i, j] at lag 0.  Zero coefficients are kept;
    a lag with fewer terms than its block is padded after its own terms
    with coefficient 0 and id `variables.count`.
    """
    n, p, N = variables.n, variables.p, variables.fir_length
    if kind == _RESIDUAL:
        X, Y0, mode_mats = plant.A, -np.eye(n), model.C
    else:
        X, Y0, mode_mats = plant.B, np.zeros((n, plant.m_w)), model.D
    nw, q = len(windows), X.shape[1]
    y0_rows = np.flatnonzero(Y0.any(axis=1))
    zy = p + len(y0_rows)  # the Z_k and Q_k Y0 terms, lags 0..N-1
    width = _term_width(p, len(y0_rows), n, N)
    # ids over (window, state row, lag, term); Q_{k-1} is lag k's X term
    hist, state, lags = hist_ids[:, None, None, None], np.arange(n)[:, None, None], np.arange(N)
    q_ids = variables.q_var(hist, lags[:, None], state, np.arange(n))
    var = np.full((nw, n, N + 1, 1, width), variables.count)
    var[:, :, :N, 0, :p] = variables.z_var(hist, lags[:, None], state, np.arange(p))
    var[:, :, :N, 0, p:zy] = variables.q_var(hist, lags[:, None], state, y0_rows)
    var[:, :, N, 0, :n] = q_ids[:, :, N - 1]
    coeff = np.zeros((nw, 1, N + 1, q, width))
    # lag k reads the mode delivered k steps before the output time
    coeff[:, 0, :N, :, :p] = mode_mats[windows[:, ::-1][:, :N]].transpose(0, 1, 3, 2)
    coeff[:, 0, :N, :, p:zy] = Y0[y0_rows].T
    coeff[:, 0, N, :, :n] = X.T
    if N > 1:
        var[:, :, 1:N, 0, zy:] = q_ids[:, :, :N - 1]
        coeff[:, 0, 1:N, :, zy:] = X.T
    const = np.zeros((n, N + 1, q))
    const[:, 1] = 0.0 + X  # constants are sums from 0.0: a -0.0 in X gives 0.0
    blocks = [(var, coeff, const)]
    if kind == _PERFORMANCE:
        bound = float(plant.x0_bound)
        const = np.zeros((n, N, n))
        const[:, 0] = bound * np.eye(n)
        blocks.append((q_ids[..., None], np.full((1, 1, 1, 1, 1), bound), const))
    return blocks


def _forms(blocks, nvar: int, width: int):
    """The entries of the rows as affine forms with their zero coefficients dropped.

    Flattens the (lag, column) axes of each block of _kernel_terms into one
    entry axis and stacks the blocks into var and coeff arrays shaped
    (form, term), padded to `width` terms, and const shaped (form,), the
    forms in row order (window, state row, entry).  A dropped term keeps its
    zero coefficient and gets id nvar, and each form's terms are sorted by
    id, so equal forms have equal ids and equal coefficients up to the sign
    of a zero.
    """
    var, coeff, const = [], [], []
    for v, a, c in blocks:
        shape = np.broadcast_shapes(v.shape, a.shape)
        flat = shape[:2] + (shape[2] * shape[3], shape[4])
        pad = [(0, 0)] * 3 + [(0, width - shape[-1])]
        var.append(np.pad(np.broadcast_to(v, shape).reshape(flat), pad, constant_values=nvar))
        coeff.append(np.pad(np.broadcast_to(a, shape).reshape(flat), pad))
        const.append(np.broadcast_to(c, shape[:4]).reshape(flat[:3]))
    var = np.concatenate(var, axis=2).reshape(-1, width)
    coeff = np.concatenate(coeff, axis=2).reshape(var.shape)
    const = np.concatenate(const, axis=2).reshape(-1)
    var = np.where(coeff != 0.0, var, nvar)
    order = np.argsort(var, axis=-1)
    return (np.take_along_axis(var, order, axis=-1), np.take_along_axis(coeff, order, axis=-1),
            const)


def _first_occurrence(keys: np.ndarray):
    """Number the distinct rows of keys in order of first occurrence.

    Returns each row's number and, per number, the index of its first row.
    """
    distinct, group = _distinct_rows(keys)
    first = np.full(len(distinct), len(keys))
    np.minimum.at(first, group, np.arange(len(keys)))
    order = np.argsort(first)
    return np.argsort(order)[group], first[order]  # argsort inverts the permutation


def _dense_rows(var: np.ndarray, coeff: np.ndarray, total: int) -> np.ndarray:
    """One row of `total` coefficients per form, zero outside its terms."""
    rows = np.zeros((len(var), total))
    f, t = np.nonzero(coeff)
    rows[f, var[f, t]] = coeff[f, t]
    return rows


def _form_keys(var: np.ndarray, coeff: np.ndarray, const: np.ndarray) -> np.ndarray:
    """One integer row per form: its ids, coefficient bits and constant bits.

    Adding 0.0 turns -0.0 into 0.0, so zeros of either sign give one key,
    as they compare equal.
    """
    bits = [(a + 0.0).view(np.int64) for a in (coeff, const[:, None])]
    return np.concatenate([var] + bits, axis=1)


def assemble_lp(plant: ChannelPlant, model: SwitchedOutputModel,
                automaton: SwitchingAutomaton, config: SynthesisConfig,
                variables: DecisionVariables) -> LinearProgram:
    """Min-gamma LP: per performance row, the absolute entry values sum to
    at most gamma; residual entries vanish (exact) or their row sums stay
    below eps_bar (relaxed).

    Structurally identical affine entries share one absolute-value slack,
    and identical rows collapse, so the LP stays small while covering
    every admissible window.  Slacks, rows and equalities are numbered in
    the order of their first occurrence over the rows (window, then state
    row, then entry), performance rows first.  ValueError, before any
    window is enumerated, when the constraint terms of the automaton's
    window count (`_history_bound`) would take more than LP_BYTE_BUDGET
    bytes, and, before any dense row is built, when the dense rows would.
    """
    _check_dims(plant, model)
    bound = _history_bound(automaton, config.window)
    need = _kernel_term_bytes(plant, model, config.fir_length, bound)
    if need > LP_BYTE_BUDGET:
        raise ValueError(
            f"synthesis.M/synthesis.N: M={config.memory} and N={config.fir_length} give up to "
            f"{bound} windows, whose constraint terms take {need} bytes, above the budget of "
            f"{LP_BYTE_BUDGET}")
    nvar = variables.count
    gamma = nvar
    windows, taps, tap_ids = _windows(automaton, config)
    hist_ids = variables.history_ids(taps)[tap_ids]
    blocks = [_kernel_terms(plant, model, kind, windows, hist_ids, variables)
              for kind in (_PERFORMANCE, _RESIDUAL)]
    width = max(var.shape[-1] for kind in blocks for var, _, _ in kind)
    perf, res = (_forms(kind, nvar, width) for kind in blocks)

    relaxed = config.mode == MODE_RELAXED
    slacked = (perf, res) if relaxed else (perf,)
    var, coeff, const = (np.concatenate(parts) for parts in zip(*slacked))
    sid, first = _first_occurrence(_form_keys(var, coeff, const))
    nslack = len(first)
    total = nvar + 1 + nslack
    nrows = len(windows) * plant.n

    def collapse(row_sids):
        # rows with the same multiset of slacks collapse into one
        return row_sids[_first_occurrence(np.sort(row_sids, axis=1))[1]]

    perf_sids = collapse(sid[:len(perf[2])].reshape(nrows, -1))
    if relaxed:
        res_sids = collapse(sid[len(perf[2]):].reshape(nrows, -1))
    else:
        res_once = _first_occurrence(_form_keys(*res))[1]
    rows = 2 * nslack + len(perf_sids) + len(res_sids if relaxed else res_once)
    if rows * total * 8 > LP_BYTE_BUDGET:
        raise ValueError(
            f"synthesis.M/synthesis.N: M={config.memory} and N={config.fir_length} give an LP "
            f"of {rows} x {total} dense rows, {rows * total * 8} bytes, above the budget of "
            f"{LP_BYTE_BUDGET}")

    def slack_sums(row_sids):
        sums = np.zeros((len(row_sids), total))
        np.add.at(sums, (np.arange(len(row_sids))[:, None], nvar + 1 + row_sids), 1.0)
        return sums

    # s >= form and s >= -form, one pair of rows per slack
    var, coeff, const = var[first], coeff[first], const[first]
    up, dn = _dense_rows(var, coeff, total), _dense_rows(var, -coeff, total)
    slack = np.arange(nslack)
    up[slack, nvar + 1 + slack] = dn[slack, nvar + 1 + slack] = -1.0
    constraints = [row for u, d, c in zip(up, dn, const) for row in ((u, LE, -c), (d, LE, c))]
    perf_sums = slack_sums(perf_sids)
    perf_sums[:, gamma] = -1.0
    constraints += [(row, LE, 0.0) for row in perf_sums]
    if relaxed:
        constraints += [(row, LE, config.eps_bar) for row in slack_sums(res_sids)]
    else:
        var, coeff, const = res
        eqs = _dense_rows(var[res_once], coeff[res_once], total)
        constraints += [(row, EQ, -c) for row, c in zip(eqs, const[res_once])]

    return LinearProgram(
        variable_count=total,
        objective=np.concatenate([np.zeros(nvar), [1.0], np.zeros(nslack)]),
        constraints=constraints,
        bounds=[(None, None)] * nvar + [(0.0, None)] * (1 + nslack),
    )


@dataclass(frozen=True, eq=False)
class SynthesisResult:
    """Optimal gain, achieved contraction, certified bound and the FIR factors."""

    gamma_bar: float
    eps_achieved: float
    certified_bound: float
    Q: SwitchingFIR
    Z: SwitchingFIR
    T: SwitchingFIR
    status: str
    mode: str
    lag0_margin: float


def row_gains(plant: ChannelPlant, model: SwitchedOutputModel,
              automaton: SwitchingAutomaton, config: SynthesisConfig,
              Q: SwitchingFIR, Z: SwitchingFIR) -> tuple[np.ndarray, np.ndarray]:
    """Absolute row sums of the residual and performance rows at the factors (Q, Z).

    Returns (residual_gains, performance_gains), one per (window, state row)
    in the LP's row order.  A row's lag-k entries depend only on its tap
    history, k and the mode delivered k steps before the output time, so
    each block of `_kernel_terms` is evaluated at the packed taps once, for
    every lag, on one window per (tap history, lag mode) pair whose lags
    all hold that mode; a padded term reads id `variables.count` as 0.0.
    Each window then gathers its pairs' absolute entries lag by lag and
    sums them left to right in entry order.  A zero coefficient the LP
    drops, or a padded term, adds a signed zero here, which changes no sum
    that is not zero and only the sign of one that is, so every gain is
    bit-identical to evaluating the LP's affine forms.
    """
    _check_dims(plant, model)
    windows, taps, hist_ids = _windows(automaton, config)
    variables = DecisionVariables(taps, config.memory, config.fir_length, plant.n, model.p)
    x = np.append(variables.pack(Q, Z), 0.0)
    modes, L = automaton.mode_count, windows.shape[1]
    # pair hist * modes + mode: a window whose lags all hold the mode
    pair_hists, pair_modes = np.divmod(np.arange(len(taps) * modes), modes)
    pair_windows = np.repeat(pair_modes[:, None], L, axis=1)
    # each window's pair at lags 0..N; past the window no mode matrix is
    # read, so any mode does
    pairs = np.zeros((len(windows), config.fir_length + 1), dtype=np.intp)
    back = windows[:, ::-1][:, :pairs.shape[1]]
    pairs[:, :back.shape[1]] = back
    pairs += modes * hist_ids[:, None]
    gains = []
    for kind in (_RESIDUAL, _PERFORMANCE):
        total = np.zeros((len(windows), plant.n))
        for var, coeff, const in _kernel_terms(plant, model, kind, pair_windows, pair_hists,
                                               variables):
            value = 0.0
            for t in range(var.shape[-1]):
                value = value + coeff[..., t] * x[var[..., t]]
            entries = np.abs(const + value)  # (pair, state row, lag, column)
            for k in range(entries.shape[2]):
                entry = entries[:, :, k].take(pairs[:, k], axis=0)
                for col in range(entry.shape[-1]):
                    total += entry[..., col]
        gains.append(total.reshape(-1))
    return gains[0], gains[1]


def _lag0_margin(Z: SwitchingFIR, Q: SwitchingFIR, model: SwitchedOutputModel) -> float:
    """1 - max row sum of the lag-0 contraction block, over all tap windows.
    Z and Q hold the same histories (`unpack`, `load_bundle` checks), so
    their tap tables share rows and no window lookup is built."""
    blocks = Z.taps[:, 0] @ model.C[Z.windows[:, -1]] - Q.taps[:, 0]
    return 1.0 - float(np.max(np.sum(np.abs(blocks), axis=-1), initial=0.0))


def synthesize(plant: ChannelPlant, model: SwitchedOutputModel,
               automaton: SwitchingAutomaton, config: SynthesisConfig) -> SynthesisResult:
    """Assemble the LP, solve it, unpack the factors and certify them.

    Raises SynthesisInfeasibleError when no FIR factors of the requested
    length satisfy the residual constraints; increasing fir_length or the
    relaxation bound enlarges the feasible set.
    """
    _check_dims(plant, model)
    variables = decision_variables(automaton, config, plant.n, model.p)
    lp = assemble_lp(plant, model, automaton, config, variables)
    sol = solve(lp)
    if sol.status == "infeasible":
        raise SynthesisInfeasibleError(
            f"no switching FIR factors with memory {config.memory} and length "
            f"{config.fir_length} satisfy the constraints in {config.mode} mode; "
            "increase fir_length or switch to relaxed mode with a larger eps_bar")
    if sol.status != "optimal":
        raise SynthesisInfeasibleError(f"LP solver returned status '{sol.status}'")

    Q, Z = variables.unpack(sol.values[:variables.count])
    T = SwitchingFIR(Z.memory, Z.fir_length, Z.in_dim, Z.out_dim,
                     {key: -mat for key, mat in Z.coeffs.items()})
    gamma_bar = float(sol.objective)
    eps_achieved = float(np.max(row_gains(plant, model, automaton, config, Q, Z)[0]))
    return SynthesisResult(
        gamma_bar=gamma_bar,
        eps_achieved=eps_achieved,
        certified_bound=config.certified_bound(gamma_bar, eps_achieved),
        Q=Q, Z=Z, T=T,
        status="optimal",
        mode=config.mode,
        lag0_margin=_lag0_margin(Z, Q, model),
    )


def _pair_rows(plant: ChannelPlant, model: SwitchedOutputModel, Q: SwitchingFIR,
               Z: SwitchingFIR, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Row t of E = shift(A) + Z Cbar + Q (shift(A) - I) and of Phi =
    [shift(B) + Z Dbar + Q shift(B), I + Q] once per (tap history, mode)
    pair: the lags of E, (pair, lags, n, n), and of Phi, (pair, lags, n,
    m_w + n), its x0 block unscaled.  Pair h * mode_count + mode, h a row
    of the taps, is the window of max(M, N) modes whose last M are tap
    history h and whose others are `mode`, the last delivered at time t.

    A row's lag-k block depends only on its tap history, k and the mode
    delivered k steps back (`_pair_index`), so every window's row gathers
    its lags from this table.  Each entry is formed by the same products,
    summed in the same order, as the operator algebra (compose sums over
    the intermediate lag j ascending, add puts its left operand first), so
    the rows equal tests/util.py's compose chain bit for bit, up to the
    sign of a zero.  A product over several lags is one stacked matmul,
    whose per-lag products are those of separate matmuls, and so is a
    product over the pairs.  Q and Z must hold the same tap histories.
    """
    if Q.memory != Z.memory or not np.array_equal(Q.windows, Z.windows):
        raise ValueError("Q and Z must hold the same tap histories")
    n, m_w, modes = plant.n, plant.m_w, model.mode_count
    M, W = Q.memory, max(Q.memory, Q.fir_length, Z.fir_length)
    hists = np.repeat(np.arange(len(Q.windows)), modes)
    windows = np.empty((len(hists), W), dtype=np.intp)
    windows[:, :W - M] = np.tile(np.arange(modes), len(Q.windows))[:, None]
    windows[:, W - M:] = Q.windows[hists]
    eye = np.eye(n)
    # the lag-1 blocks of shift o diag(A) and shift o diag(B)
    lam_a, lam_b = eye @ plant.A, eye @ plant.B
    q_taps, z_taps = Q.taps[hists, :t + 1], Z.taps[hists, :t + 1]
    lq, lz = q_taps.shape[-3], z_taps.shape[-3]
    back = windows[..., ::-1][..., :lz]
    shifted = min(lq, t)  # Q_j shift(X) reaches lag j + 1 <= t
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


def _pair_index(fir: SwitchingFIR, windows: np.ndarray, mode_count: int, lags: int) -> tuple:
    """The index that gathers lags 0..lags-1 of the rows along a batch of
    windows (..., modes), the last delivered at the row's time, from a
    `_pair_rows` table: (pair, lag) arrays broadcasting to (..., lags).  Lag
    k's pair is the window's tap history, its last `fir.memory` modes, and
    the mode k steps back; a lag past the window reads no mode, so it takes
    mode 0."""
    pairs = np.zeros(windows.shape[:-1] + (lags,), dtype=np.intp)
    back = windows[..., ::-1][..., :lags]
    pairs[..., :back.shape[-1]] = back
    pairs += mode_count * fir.history_ids(windows[..., -fir.memory:])[..., None]
    return pairs, np.arange(lags)


def factor_operators(plant: ChannelPlant, Q: SwitchingFIR, Z: SwitchingFIR,
                     model: SwitchedOutputModel, sigma, horizon: int,
                     padding_mode: int = 0) -> tuple[oc.TruncatedOperator, oc.TruncatedOperator]:
    """The residual and performance operators along sigma.

    The residual is shift(A) + Z Cbar + Q (shift(A) - I); the performance
    operator is [shift(B) + Z Dbar + Q shift(B), b (I + Q)], b the plant's
    initial-condition bound: it maps the stacked (disturbance, initial
    condition in units of b) input to the estimation error when the
    residual vanishes, so its gain covers initial conditions up to the
    bound.  sigma may be a batch of sequences, shape (..., horizon), giving
    batches of operators.  Row t reads the last W = max(M, N) modes at t,
    padded in front with padding_mode, and is the first t + 1 lags of the
    row at time W of that window: each lag gathered from the `_pair_rows`
    table at time W, built once, by the window's tap history and the mode
    at that lag.
    """
    sigma = _mode_array(model, sigma, horizon)
    if not 0 <= padding_mode < model.mode_count:
        raise ValueError(f"padding_mode {padding_mode} outside 0..{model.mode_count - 1}")
    W = max(max(fir.memory, fir.fir_length) for fir in (Q, Z))
    E, Phi = _pair_rows(plant, model, Q, Z, W)
    if plant.x0_bound != 1.0:  # a product with 1.0 is exact: skip the pass
        Phi[..., plant.m_w:] *= float(plant.x0_bound)
    lags = min(horizon, E.shape[1])
    index = _pair_index(Q, _trailing_windows(sigma, W, padding_mode), model.mode_count, lags)
    E, Phi = E[index], Phi[index]
    t, k = np.ogrid[:horizon, :lags]
    E[..., k > t, :, :] = Phi[..., k > t, :, :] = 0.0
    return oc.TruncatedOperator(E), oc.TruncatedOperator(Phi)


# sequence-steps of residual and performance bands built at once when
# measuring sampled sequences: bounds the memory of certify and of `norm`
CHUNK = 1 << 14


def _sampled_norms(plant: ChannelPlant, model: SwitchedOutputModel, Q: SwitchingFIR,
                   Z: SwitchingFIR, sigmas, horizon: int,
                   padding_mode: int) -> tuple[np.ndarray, np.ndarray]:
    """The induced norms of the residual and performance operators along
    each of `sigmas`, built CHUNK // horizon sequences (at least one) at a
    time: a sequence's norms read its own rows alone, so the bits are those
    of one batch."""
    step = max(1, CHUNK // horizon)
    chunks = [[oc.induced_norm(op) for op in factor_operators(
        plant, Q, Z, model, sigmas[start:start + step], horizon, padding_mode)]
        for start in range(0, len(sigmas), step)]
    return tuple(np.concatenate(norms) for norms in zip(*chunks))


def certify(plant: ChannelPlant, model: SwitchedOutputModel,
            automaton: SwitchingAutomaton, config: SynthesisConfig,
            result: SynthesisResult, seed: int = 0) -> dict:
    """Independent check of the synthesized factors.

    gamma_rows and eps_rows are the largest performance and residual row
    gains at the factors, evaluated numerically by `row_gains` at the
    packed taps (the same bits the LP's affine forms give, with no LP
    built).  The residual/performance operators are also measured along
    sampled admissible sequences by `factor_operators`, a path independent
    of the rows: the sequences are drawn first, then the operators are
    built and measured in batches of at most CHUNK sequence-steps.
    """
    res_gains, perf_gains = row_gains(plant, model, automaton, config, result.Q, result.Z)
    rng = np.random.default_rng(seed)
    H = config.verify_horizon
    sigmas = [automaton.random_sequence(H, rng) for _ in range(config.verify_samples)]
    res_norms, perf_norms = _sampled_norms(plant, model, result.Q, result.Z, sigmas, H,
                                           automaton.padding_mode)
    return {
        "gamma_rows": float(np.max(perf_gains)),
        "eps_rows": float(np.max(res_gains)),
        "sampled_sigmas": config.verify_samples,
        "verify_horizon": H,
        "max_sampled_residual_norm": float(np.max(res_norms, initial=0.0)),
        "max_sampled_performance_norm": float(np.max(perf_norms, initial=0.0)),
        "seed": seed,
    }

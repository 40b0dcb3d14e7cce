"""Time-domain harness: plant simulation, estimators, worst-case inputs, attack search.

Scenarios carry the attack sequence, the disturbance, and an initial
condition injected at a chosen time (the embedded-initial-condition
convention: the state gets an additive kick of x0 at time x0_time, zero
state before).  Worst-case construction reads the error operator's kernel
directly: disturbances excite a full lag window with sign patterns, the
initial condition excites exactly one lag, maximized over injection times.

The error operator is causal: its block row t depends on sigma[:t+1] only,
and the worst-case value along sigma is a scan over the rows with t
ascending.  `_ErrorKernel` therefore builds the operator one block row at a
time, forming every entry with the same products summed in the same order
as the operator-algebra formulas, so the rows equal that product chain
(tests/util.py's `compose_chain_error_operator`) bit for bit.  Row t reads
the first t + 1 lags of one table per window, the last `window` modes
padded in front with the padding mode, built once; an exact or relaxed
window's table gathers each lag from the kernel's one table per (tap
history, lag mode) pair.  Exact and FIR tables hold the
values of every t, read a layer of states or a greedy step at a time.  A
relaxed row's resolvent substitution also reads the rows before it; it is
built for a batch of prefixes in one stacked step.  Ties: a later output
row, time, sequence or greedy candidate replaces the current peak only when
strictly larger, and a NaN never does, so of the sequences with the largest
value the lexicographically first is reported.  Many sequences tie
exactly, which is why the rows must not drift by an ulp.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import operator_core as oc
from .operator_core import Signal
from .switched_model import (ChannelPlant, SwitchedOutputModel, SwitchingAutomaton,
                             SwitchingFIR, _distinct_rows, instantiate)
from .synthesis import EXACT_EPS, SynthesisResult, _pair_index, _pair_rows

__all__ = [
    "Scenario",
    "Trace",
    "simulate_plant",
    "run_fir_estimator",
    "run_glo",
    "run_estimator",
    "worst_case_inputs",
    "attack_search",
    "make_trace",
]

@dataclass(frozen=True, eq=False)
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
        if len(self.sigma) != self.horizon:
            raise ValueError(f"sigma has {len(self.sigma)} modes, the horizon is {self.horizon}")
        if self.w.horizon != self.horizon:
            raise ValueError(f"w has {self.w.horizon} samples, the horizon is {self.horizon}")
        if not (0 <= self.x0_time < self.horizon):
            raise ValueError(f"x0_time must lie in 0..{self.horizon - 1}, the times of sigma")

    def validate(self, plant: ChannelPlant, automaton: SwitchingAutomaton | None = None) -> None:
        """Check the scenario against a plant and, if given, an automaton.

        ValueError messages start with the field's name.
        """
        if self.x0.shape != (plant.n,):
            raise ValueError(f"x0 has shape {self.x0.shape}, expected ({plant.n},)")
        if self.w.dim != plant.m_w:
            raise ValueError(f"w has dim {self.w.dim}, expected {plant.m_w}")
        peak = float(np.max(np.abs(self.x0), initial=0.0))
        if not math.isfinite(peak):
            raise ValueError("x0 entries must be finite")
        if peak > plant.x0_bound * (1 + 1e-12):
            raise ValueError("x0 exceeds the plant's initial-condition bound")
        if automaton is not None and not automaton.is_admissible(self.sigma):
            raise ValueError("sigma is not an admissible sequence of the automaton")


@dataclass(frozen=True, eq=False)
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
    for t, j in enumerate(scenario.sigma):
        if not 0 <= j < model.mode_count:
            raise ValueError(f"sigma mode {j} at time {t} out of range")
        y[t] = model.C[j] @ x[t] + model.D[j] @ w[t]
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
    q_band = instantiate(Q, sigma, H, padding_mode).band
    z_band = instantiate(Z, sigma, H, padding_mode).band
    for t in range(H):
        q, z = q_band[t], z_band[t]
        j = int(sigma[t])
        solve_mat = np.eye(n) - (z[0] @ model.C[j] - q[0])
        rhs = np.zeros(n)
        for k in range(1, min(t, N - 1) + 1):
            mode_k = int(sigma[t - k])
            rhs += (z[k] @ model.C[mode_k] - q[k]) @ xh[t - k]
        if t >= 1:
            rhs += A @ xh[t - 1]
        for k in range(1, min(t, N) + 1):
            rhs += q[k - 1] @ (A @ xh[t - k])
        for k in range(min(t, N - 1) + 1):
            rhs -= z[k] @ y[t - k]
        if oc.is_singular(solve_mat):
            hist = ((padding_mode,) * Q.memory + tuple(map(int, sigma[:t + 1])))[-Q.memory:]
            raise np.linalg.LinAlgError(f"singular lag-0 solve for history {hist} at time {t}")
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


class _ErrorKernel:
    """Block rows of the error operator of one estimator, and their values.

    The error operator maps stacked (w, embedded x0 sequence) inputs to the
    estimation error: (T Cbar - I)(I - shift(A))^{-1}[shift(B), I] +
    [T Dbar, 0] for plain FIR taps T, and -(I - E)^{-1} Phi for synthesized
    factors, E the residual and Phi the performance blocks, the resolvent
    skipped for an exact design.  Its block row t, for every horizon H > t,
    is one (lags, n, m_w + n) array whose entry k is the lag-k block, bit
    for bit that product chain.  The performance rows and the lags of the
    residual E are gathered from `synthesis._pair_rows`, the table
    `factor_operators` also reads, built once per kernel at time `window`:
    a row's lag-k block depends only on its tap history, k and the mode k
    steps back.  `_fir_row` and `relaxed_rows` form their entries by the
    rule its docstring gives.

    Every row builder takes one (..., modes) integer array whose last mode
    is delivered at time t.  Row t reads the modes of lags 0..t and the tap
    history at t, all among the last `window` modes padded in front with
    `padding_mode`, and so do a relaxed row's performance row, the lags of
    I - E and the inverse of their lag-0 block.  Along every sequence ending
    in one such padded window, these are the first t + 1 lags of longer ones
    of that window, its table: the same taps and modes give the same per-lag
    products, summed in the same order.  `_build` gathers each table once,
    into `tables`; `values` reads the values of row t of an exact or FIR
    design, `relaxed_rows` builds the relaxed rows of a batch of prefixes,
    and `rows` reads or builds the rows along one sequence.
    """

    def __init__(self, plant: ChannelPlant, model: SwitchedOutputModel, estimator,
                 padding_mode: int, horizon: int):
        if horizon < 1:
            raise ValueError("horizon must be positive")
        if not 0 <= padding_mode < model.mode_count:
            raise ValueError(f"padding_mode {padding_mode} outside 0..{model.mode_count - 1}")
        if isinstance(estimator, SynthesisResult):
            self.kind = "exact" if estimator.eps_achieved <= EXACT_EPS else "relaxed"
            self.Q, self.Z = estimator.Q, estimator.Z
        elif isinstance(estimator, SwitchingFIR):
            self.kind = "fir"
            self.T = estimator
        else:
            raise TypeError(f"unsupported estimator type {type(estimator).__name__}")
        # a row's window part reads t and the last `window` modes: the
        # `memory`-mode tap history and the modes of lags 0..N-1
        firs = (self.T,) if self.kind == "fir" else (self.Q, self.Z)
        self.window = max(max(f.memory, f.fir_length) for f in firs)
        self.horizon = horizon
        self.tables: dict[tuple, tuple] = {}  # per padded window, see _build
        self.plant, self.model = plant, model
        self.pad = padding_mode
        self.n, self.m_w, self.bound = plant.n, plant.m_w, plant.x0_bound
        self.eye = np.eye(plant.n)
        self.lam_b = self.eye @ plant.B  # the lag-1 block of shift o diag(B)
        self.powers = np.eye(plant.n)[None]  # A^k, the kernel of (I - shift(A))^{-1}
        if self.kind == "exact":
            self.pair_rows = (-1.0 * _pair_rows(plant, model, self.Q, self.Z, self.window)[1],)
        elif self.kind == "relaxed":
            E, phi = _pair_rows(plant, model, self.Q, self.Z, self.window)
            contraction = -1.0 * E
            contraction[:, 0] = self.eye + contraction[:, 0]
            self.singular = np.array(list(map(oc.is_singular, contraction[:, 0])), dtype=bool)
            inv0 = np.zeros_like(contraction[:, 0])
            inv0[~self.singular] = np.linalg.inv(contraction[~self.singular, 0])
            self.pair_rows = (phi, contraction, inv0)
            self.reach = max(self.Q.fir_length, self.Z.fir_length)

    def keep(self, past: list, carry: tuple) -> None:
        """Append row t's `carry` to `past` and drop the resolvent rows of
        time t - `reach`, which no later resolvent row reads."""
        past.append(carry)
        if len(past) > self.reach:
            past[-1 - self.reach] = (None, past[-1 - self.reach][1])

    def relaxed_rows(self, tables: list, t: int, past: list):
        """Row t of a relaxed design, -(I - E)^{-1} applied to the performance
        rows, along P prefixes from the tables of their windows, and the
        (resolvent rows, performance rows) later rows read; `past` holds
        those for times 0..t-1, with P or 1 on the leading axis.  Resolvent
        row t comes by block forward substitution, one matmul per lag j; a
        prefix adds products only at its lags with a nonzero sum, those the
        product chain stores.  The lags it leaves out, up to the batch's
        longest, are zero blocks; they add only zeros to sums that start at
        +0.0, so no value changes."""
        phi = np.stack([table[0][:t + 1] for table in tables])
        contraction = np.stack([table[1][:t + 1] for table in tables])
        inv0 = np.stack([table[2] for table in tables])[:, None]
        # acc[:, k] sums contraction[:, j] res_{t-j}[:, k-j] over j ascending
        acc = np.zeros((len(tables), t + 1, self.n, self.n))
        for j in range(1, contraction.shape[1]):
            acc[:, j:] += contraction[:, j, None] @ past[t - j][0]
        res = -inv0 @ acc
        res[:, 0] = inv0[:, 0]
        nonzero = acc.any(axis=(2, 3))
        nonzero[:, 0] = True
        row = np.zeros(phi.shape[:1] + (t + 1,) + phi.shape[2:])
        used, every = 0, nonzero.all(axis=0).tolist()
        for j in np.flatnonzero(nonzero.any(axis=0)).tolist():
            later = phi if j == 0 else past[t - j][1]
            keep = slice(None) if every[j] else nonzero[:, j]
            span = slice(j, j + later.shape[1])
            row[keep, span] += (res[:, j, None] @ later)[keep]
            used = max(used, span.stop)
        return -1.0 * row[:, :used], (res, phi)

    def _fir_row(self, modes: np.ndarray, t: int) -> np.ndarray:
        """Row t of (T Cbar - I)(I - shift(A))^{-1}[shift(B), I] + [T Dbar, 0]."""
        taps = self.T.taps[self.T.history_ids(modes[..., -self.T.memory:]), :t + 1]
        lags = taps.shape[-3]
        back = modes[..., ::-1][..., :lags]
        tc_minus_i = taps @ self.model.C[back]
        tc_minus_i[..., 0, :, :] -= self.eye
        while len(self.powers) <= t:
            self.powers = np.concatenate([self.powers, self.plant.A @ self.powers[-1:]])
        # prefix[m] = sum over j ascending of tc_minus_i[j] A^(m-j)
        prefix = tc_minus_i[..., :1, :, :] @ self.powers[:t + 1]
        for j in range(1, lags):
            prefix[..., j:, :, :] += tc_minus_i[..., j:j + 1, :, :] @ self.powers[:t + 1 - j]
        row = np.empty(prefix.shape[:-1] + (self.m_w + self.n,))
        row[..., self.m_w:] = prefix
        w_block = row[..., :self.m_w]
        w_block[..., 0, :, :] = taps[..., 0, :, :] @ self.model.D[back[..., 0]]
        w_block[..., 1:, :, :] = prefix[..., :t, :, :] @ self.lam_b
        w_block[..., 1:lags, :, :] += taps[..., 1:, :, :] @ self.model.D[back[..., 1:]]
        return row

    def _running_values(self, lags: np.ndarray) -> np.ndarray:
        """The values of the output rows of the first k + 1 lags, for every
        k: the disturbance takes every lag, its absolute entries summed over
        the inputs, then over the lags ascending; the initial condition,
        injected once, its largest lag."""
        mags = np.abs(lags)
        w_sums = np.add.accumulate(np.sum(mags[..., :self.m_w], axis=-1), axis=-2)
        x0_max = np.maximum.accumulate(np.sum(mags[..., self.m_w:], axis=-1), axis=-2)
        return w_sums + self.bound * x0_max

    def _build(self, t: int, windows: list) -> None:
        """Store the table of each of `windows` (`window` modes each), read
        at time t, in one stacked step.  Exact and relaxed tables gather the
        lags of the row at time `window` off the window, whose N + 1 lags
        are all such a row has, from the kernel's `_pair_rows` table: -Phi,
        or Phi, the lags of I - E and the inverse of their lag-0 block, that
        inverse taken once per pair and a singular one raised only when a
        window reads it.  A FIR table is the row at the last time of the
        window padded in front to max(horizon, window) modes, one lag for
        every time.  Exact and FIR tables keep the values of their row's
        first k + 1 lags for every lag k; row t reads those of its last lag,
        min(t, lags - 1)."""
        for window in windows:
            if not 0 <= window[-1] < self.model.mode_count:
                raise ValueError(f"mode {window[-1]} at time {t} out of range")
        if self.kind == "fir":
            length = max(self.horizon, self.window)
            pad = (self.pad,) * (length - self.window)
            lags = self._fir_row(np.array([pad + window for window in windows], dtype=np.intp),
                                 length - 1)
        else:
            index = _pair_index(self.Q, np.array(windows, dtype=np.intp),
                                self.model.mode_count, self.pair_rows[0].shape[1])
            if self.kind == "relaxed":
                lag0 = index[0][:, 0]
                if self.singular[lag0].any():
                    raise np.linalg.LinAlgError(f"lag-0 block at time {t} is singular")
                phi, contraction, inv0 = self.pair_rows
                self.tables.update(zip(windows, zip(phi[index], contraction[index], inv0[lag0])))
                return
            lags = self.pair_rows[0][index]
        self.tables.update(zip(windows, zip(lags, self._running_values(lags).tolist())))

    def _tables(self, t: int, windows: list) -> list:
        """The table of each of `windows`, the last min(t + 1, window) modes
        at time t, padded in front to `window` modes; tables not built
        before are built in one step."""
        if t + 1 < self.window:
            windows = [(self.pad,) * (self.window - t - 1) + window for window in windows]
        missing = [window for window in windows if window not in self.tables]
        if missing:
            self._build(t, missing)
        return [self.tables[window] for window in windows]

    def values(self, t: int, windows: list) -> list:
        """The (window, n) values of row t of an exact or FIR design, nested
        lists, at each of `windows`, the last min(t + 1, window) modes."""
        return [values[min(t, len(values) - 1)] for _, values in self._tables(t, windows)]

    def rows(self, sigma) -> list:
        """Block rows 0..horizon-1 along sigma: relaxed rows built in time
        order, the others the first t + 1 lags of the tables `values` reads."""
        if len(sigma) < self.horizon:
            raise ValueError(f"sigma has {len(sigma)} entries, horizon is {self.horizon}")
        past, rows = [], []
        for t in range(self.horizon):
            [table] = self._tables(t, [tuple(sigma[max(0, t + 1 - self.window):t + 1])])
            if self.kind == "relaxed":
                [row], carry = self.relaxed_rows([table], t, past)
                self.keep(past, carry)
            else:
                row = table[0][:t + 1]
            rows.append(row)
        return rows

    def row_values(self, row: np.ndarray) -> np.ndarray:
        """The worst-case value of each output row of a block row, or a stack of them."""
        return self._running_values(row)[..., -1, :]


def _fold(values: list, peak: float) -> float:
    """Fold the values of a block row's output rows, in order, into the
    running peak: a later one replaces it only if strictly larger."""
    for value in values:
        if value > peak:
            peak = value
    return peak


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
    kernel = _ErrorKernel(plant, model, estimator, padding_mode, horizon)
    rows = kernel.rows(sigma)
    value, t_star, i_star = -1.0, 0, 0
    for t, row in enumerate(rows):
        for i, found in enumerate(kernel.row_values(row).tolist()):
            if found > value:
                value, t_star, i_star = found, t, i
    m_w = plant.m_w
    row = rows[t_star][:, i_star]
    k0 = int(np.argmax(np.sum(np.abs(row[:, m_w:]), axis=-1)))
    w = np.zeros((horizon, m_w))
    w[t_star - np.arange(len(row))] = np.sign(row[:, :m_w])
    x0 = plant.x0_bound * np.sign(row[k0, m_w:])
    scenario = Scenario(sigma=sigma, w=Signal(w), x0=x0, horizon=horizon,
                        x0_time=t_star - k0)
    return scenario, max(value, 0.0)


_CAP = 2 ** 20


def _state_search(kernel: _ErrorKernel, automaton: SwitchingAutomaton, horizon: int):
    """Exhaustive search over the reachable (t, last `window` modes) states.

    Row t of an exact or FIR design reads only t and the state's window, so
    one row per state (`values`, a layer at a time) values every sequence
    through it, and once two layers are equal every later one repeats them.
    A sequence's value is the largest of its states' values, NaNs left out,
    floored at 0: a backward max over the states gives the best value, and
    the smallest successor that can still reach it, at each step, the
    lexicographically first maximizer.  (None, -1.0) when no sequence has
    `horizon` modes."""
    window = kernel.window
    states = np.array(sorted(automaton.initial), dtype=np.intp).reshape(-1, 1)
    layers = [states]
    edges = []  # per step t -> t + 1: the (parent, successor) state arrays of the transitions
    count = len(states)
    for _ in range(1, horizon):
        if len(layers) < 2 or states is not layers[-2] and not np.array_equal(states, layers[-2]):
            parent, extended = automaton.extend(states, keep=window)
            states, succ = _distinct_rows(extended)
            steps = (parent, succ)
        layers.append(states)
        edges.append(steps)
        count += len(states)
        if count > _CAP:
            raise ValueError(f"exhaustive search over more than {_CAP} (t, window) states "
                             "exceeds the 2^20 cap; use strategy='greedy'")
    # per time, the values of each state and their largest; an exact row
    # reads its window alone from t = window on, so a layer past it equal to
    # the one before has its values
    tops = []
    for t, states in enumerate(layers):
        if kernel.kind == "exact" and t > kernel.window and states is layers[t - 1]:
            tops.append(tops[-1])
            continue
        found = kernel.values(t, list(map(tuple, states.tolist())))
        values = np.array(found, dtype=float).reshape(len(states), kernel.n)
        tops.append(np.fmax.reduce(values, axis=1, initial=0.0))
    best = [tops[-1]]  # per time and state, the best value over its completions
    for (parent, succ), top in zip(reversed(edges), reversed(tops[:-1])):
        reach = np.full(len(top), -math.inf)
        np.maximum.at(reach, parent, best[-1][succ])
        best.append(np.where(reach > -math.inf, np.maximum(top, reach), -math.inf))
    best.reverse()
    value = float(best[0].max(initial=-math.inf))
    if value == -math.inf:
        return None, -1.0
    sigma, run, choices = [], -math.inf, np.arange(len(layers[0]))
    for t in range(horizon):
        reach = best[t][choices]
        state = choices[np.argmax((reach > -math.inf) & (np.maximum(run, reach) == value))]
        sigma.append(int(layers[t][state, -1]))
        run = max(run, tops[t][state])
        if t + 1 < horizon:
            parent, succ = edges[t]
            choices = succ[parent == state]
    return tuple(sigma), value


_BATCH = 128  # prefixes per batch of the relaxed search: its memory, not its speed


def _relaxed_search(kernel: _ErrorKernel, automaton: SwitchingAutomaton, horizon: int):
    """Exhaustive search of a relaxed design over the tree of admissible
    prefixes.  A batch of at most `_BATCH` prefixes of one length builds its
    rows in one step, folds their values into each prefix's peak, and
    gives way to its children, grown with `extend`, split into batches and
    stacked in lexicographic order: a batch of one is the depth-first walk.
    A batch carries what later rows read: the performance rows of every
    time and the resolvent rows of the last N.  The cap bounds each layer
    of the tree: the admissible prefixes of each length, counted per last
    mode from `initial` and `allowed`."""
    ends = np.zeros(automaton.mode_count, dtype=np.int64)  # prefixes per last mode
    ends[sorted(automaton.initial)] = 1
    for t in range(horizon):
        if t:
            ends = ends @ automaton.allowed
        if ends.sum() > _CAP:
            raise ValueError(
                f"exhaustive search over {ends.sum()} admissible prefixes of {t + 1} modes "
                "exceeds the 2^20 cap; use strategy='greedy'")
    best_sigma, best_value = None, -1.0
    # per entry: prefixes, the index of each one's parent, the parents' data
    roots = np.array(sorted(automaton.initial), dtype=np.intp).reshape(-1, 1)
    stack = [(roots, np.zeros(len(roots), dtype=np.intp), [], np.array([-1.0]))]
    while stack:
        paths, parent, past, peaks = stack.pop()
        if not 0 < len(paths) <= _BATCH:  # split; an empty entry into none
            stack.extend((paths[start:start + _BATCH], parent[start:start + _BATCH], past, peaks)
                         for start in reversed(range(0, len(paths), _BATCH)))
            continue
        past = [(None if res is None else res[parent], phi[parent]) for res, phi in past]
        peaks, t = peaks[parent], paths.shape[1] - 1
        windows = list(map(tuple, paths[:, -kernel.window:].tolist()))
        rows, carry = kernel.relaxed_rows(kernel._tables(t, windows), t, past)
        # _fold of each prefix: NaNs left out, ties keep the peak
        peaks = np.fmax(peaks, np.fmax.reduce(kernel.row_values(rows), axis=1))
        if t + 1 < horizon:
            kernel.keep(past, carry)
            parent, children = automaton.extend(paths)
            stack.append((children, parent, past, peaks))
            continue
        values = np.maximum(peaks, 0.0)
        leaf = int(np.argmax(values))
        if values[leaf] > best_value:
            best_sigma, best_value = tuple(paths[leaf].tolist()), float(values[leaf])
    return best_sigma, best_value


def attack_search(plant: ChannelPlant, model: SwitchedOutputModel, estimator,
                  automaton: SwitchingAutomaton, horizon: int,
                  strategy: str = "exhaustive") -> tuple[tuple, float]:
    """Search admissible attack sequences for the largest realizable error.

    The error operator is causal: block row t depends on sigma[:t+1] only,
    and a sequence's value is a scan over its rows in time order.

    exhaustive: a true maximizer; of the sequences with the largest value
    the lexicographically first wins.  For exact factors and plain FIR
    taps, row t depends only on t and the last `window` modes (the tap
    history and the N lags), so the search runs over the reachable
    (t, window) states, at most H * mode_count^window of them however many
    sequences there are; an exact row stops depending on t from
    t = window on, so a repeated layer is read once.  For relaxed factors,
    whose resolvent row t reads the rows before it, the search builds row t
    once per prefix of the tree of admissible prefixes, in batches taken in
    lexicographic order (`_relaxed_search`).  The 2^20 cap bounds the
    (t, window) states, or the admissible prefixes of each length in the
    tree.
    greedy: extends one step at a time, keeping the first mode whose
    prefix admits the largest worst inputs; deterministic and cheap (a
    step's candidates are one batch of relaxed rows, or read from at most
    one table per window), but only a lower bound on the exhaustive value.
    """
    kernel = _ErrorKernel(plant, model, estimator, automaton.padding_mode, horizon)
    if strategy == "exhaustive":
        search = _relaxed_search if kernel.kind == "relaxed" else _state_search
        return search(kernel, automaton, horizon)
    if strategy == "greedy":
        prefix: tuple[int, ...] = ()
        past, peak = [], -1.0
        for t in range(horizon):
            choices = automaton.successors(prefix[-1] if prefix else None)
            if not choices:
                raise ValueError(f"automaton dead-ends after prefix {prefix}")
            windows = [(prefix + (b,))[-kernel.window:] for b in choices]
            if kernel.kind == "relaxed":
                rows, carry = kernel.relaxed_rows(kernel._tables(t, windows), t, past)
                values = kernel.row_values(rows).tolist()
            else:
                values = kernel.values(t, windows)
            peaks = [_fold(b_values, peak) for b_values in values]
            # the first candidate with the largest max(peak, 0)
            i = max(range(len(choices)), key=lambda i: max(peaks[i], 0.0))
            prefix, peak = prefix + (choices[i],), peaks[i]
            if kernel.kind == "relaxed":
                kernel.keep(past, tuple(part[i:i + 1] for part in carry))
        return prefix, max(peak, 0.0)
    raise ValueError(f"unknown strategy '{strategy}'")


def make_trace(plant: ChannelPlant, model: SwitchedOutputModel, estimator,
               scenario: Scenario, padding_mode: int = 0) -> Trace:
    """Simulate the plant, run the estimator, and collect the error trace."""
    x, y_a = simulate_plant(plant, model, scenario)
    x_hat = run_estimator(estimator, plant, model, y_a, scenario.sigma, padding_mode)
    e = Signal(x_hat.samples - x.samples)
    return Trace(x=x, y_a=y_a, x_hat=x_hat, e=e, sup_error=e.norm())

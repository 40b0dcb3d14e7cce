"""Plant, measurement channels, DoS drop patterns and switching FIR operators.

An attacker drops measurement channels; each drop pattern defines a mode
whose stacked output matrices are the nominal ones with the undelivered
rows zeroed, one slice of the model's (mode, p, n) and (mode, p, m_w)
stacks.  Admissible attack sequences are paths of a transition
automaton, and estimator building blocks are FIR operators whose taps are
selected by the trailing window of the mode sequence, a row of an integer
array.  A `SwitchingFIR` keeps its taps in one read-only table indexed by
(history, lag), and `history_ids` maps windows to its rows: `instantiate`
freezes it along a batch of mode sequences with one lookup and one gather.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress

import numpy as np

from .operator_core import TruncatedOperator

__all__ = [
    "ChannelPlant",
    "SwitchedOutputModel",
    "SwitchingAutomaton",
    "SwitchingFIR",
    "build_modes",
    "history_array",
    "instantiate",
    "broadcast_taps",
]


def _mat(m, name: str) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-d matrix, got shape {a.shape}")
    return a


@dataclass(frozen=True, eq=False)
class ChannelPlant:
    """Linear plant with per-channel measurements.

    x(t+1) = A x(t) + B w(t); channel i measures C_i x(t) + D_i w(t).
    x0_bound is the peak-norm budget assumed for the initial condition.
    ValueError messages start with the field: A, B, channels[i].C (0-based).
    """

    A: np.ndarray
    B: np.ndarray
    channels: tuple
    x0_bound: float = 1.0

    def __post_init__(self):
        A = _mat(self.A, "A")
        B = _mat(self.B, "B")
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise ValueError(f"B has {B.shape[0]} rows, expected {n}")
        if not self.channels:
            raise ValueError("channels must hold at least one measurement channel")
        chans = []
        for i, (C_i, D_i) in enumerate(self.channels):
            C_i = _mat(C_i, f"channels[{i}].C")
            D_i = _mat(D_i, f"channels[{i}].D")
            if C_i.shape[1] != n:
                raise ValueError(f"channels[{i}].C has {C_i.shape[1]} columns, expected {n}")
            if D_i.shape != (C_i.shape[0], B.shape[1]):
                raise ValueError(f"channels[{i}].D has shape {D_i.shape}, "
                                 f"expected {(C_i.shape[0], B.shape[1])}")
            chans.append((C_i, D_i))
        if not 0 <= self.x0_bound < np.inf:
            raise ValueError("x0_bound must be finite and nonnegative")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "channels", tuple(chans))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m_w(self) -> int:
        return self.B.shape[1]

    @property
    def channel_count(self) -> int:
        return len(self.channels)

    @property
    def channel_dims(self) -> tuple[int, ...]:
        return tuple(C.shape[0] for C, _ in self.channels)

    @property
    def p(self) -> int:
        return sum(self.channel_dims)

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """Nominal stacked output matrices (all channels delivered)."""
        C = np.vstack([C_i for C_i, _ in self.channels])
        D = np.vstack([D_i for _, D_i in self.channels])
        return C, D


@dataclass(frozen=True, eq=False)
class SwitchedOutputModel:
    """Per-mode stacked output matrices as two read-only stacks: C of shape
    (mode, p, n) and D of shape (mode, p, m_w); mode 0 is the nominal (full)
    one.  ValueError messages start with the field: C, D."""

    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        C = np.array(self.C, dtype=float)
        D = np.array(self.D, dtype=float)
        if C.ndim != 3 or not len(C):
            raise ValueError(f"C must stack at least one (p, n) matrix, got shape {C.shape}")
        if D.ndim != 3 or D.shape[:2] != C.shape[:2]:
            raise ValueError(f"D has shape {D.shape}, expected {C.shape[:2]} + (m_w,)")
        C.flags.writeable = D.flags.writeable = False
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)

    @property
    def mode_count(self) -> int:
        return self.C.shape[0]

    @property
    def p(self) -> int:
        return self.C.shape[1]

    @property
    def n(self) -> int:
        return self.C.shape[2]

    @property
    def m_w(self) -> int:
        return self.D.shape[2]


def build_modes(plant: ChannelPlant, patterns) -> SwitchedOutputModel:
    """Zero the stacked output rows of the channels each pattern drops.

    A pattern is a collection of delivered channel numbers (1-based,
    matching y_1 .. y_N); patterns[0] must deliver every channel (the
    nominal mode).  ValueError messages start with `patterns`.
    """
    patterns = [frozenset(int(i) for i in pat) for pat in patterns]
    if not patterns:
        raise ValueError("patterns must hold at least one selection pattern")
    full = frozenset(range(1, plant.channel_count + 1))
    seen = set()
    for j, pat in enumerate(patterns):
        if not pat <= full:
            raise ValueError(f"patterns[{j}] holds channels {sorted(pat - full)} "
                             f"outside 1..{len(full)}")
        if pat in seen:
            warnings.warn(f"selection pattern {j} duplicates an earlier mode")
        seen.add(pat)
    if patterns[0] != full:
        raise ValueError("patterns[0] must deliver all channels (nominal mode)")
    C0, D0 = plant.stacked()
    # the channel of every stacked output row; a plain list keeps setup cheap
    channel = [i for i, dim in enumerate(plant.channel_dims, 1) for _ in range(dim)]
    delivered = np.array([[float(i in pat) for i in channel] for pat in patterns])[:, :, None]
    return SwitchedOutputModel(delivered * C0, delivered * D0)


@dataclass(frozen=True, eq=False)
class SwitchingAutomaton:
    """Transition structure of admissible mode sequences.

    allowed[a, b] permits a step from mode a to mode b; initial is the set
    of modes a sequence may start in; padding_mode is the mode assumed for
    virtual times before the sequence begins; sequences end at a mode
    without successors.  ValueError messages start with the field's name.
    """

    mode_count: int
    allowed: np.ndarray
    initial: frozenset
    padding_mode: int = 0

    def __init__(self, mode_count: int, allowed=None, initial=None, padding_mode: int = 0):
        if mode_count < 1:
            raise ValueError("mode_count must be positive")
        if allowed is None:
            allowed_arr = np.ones((mode_count, mode_count), dtype=bool)
        else:
            allowed_arr = np.asarray(allowed, dtype=bool)
            if allowed_arr.shape != (mode_count, mode_count):
                raise ValueError(f"allowed must be {mode_count}x{mode_count}")
        allowed_arr = allowed_arr.copy()
        allowed_arr.flags.writeable = False
        init = frozenset(range(mode_count)) if initial is None else frozenset(int(i) for i in initial)
        if not init <= frozenset(range(mode_count)):
            raise ValueError(f"initial modes {sorted(init)} must lie in 0..{mode_count - 1}")
        if not (0 <= padding_mode < mode_count):
            raise ValueError(f"padding_mode {padding_mode} outside 0..{mode_count - 1}")
        object.__setattr__(self, "mode_count", mode_count)
        object.__setattr__(self, "allowed", allowed_arr)
        object.__setattr__(self, "initial", init)
        object.__setattr__(self, "padding_mode", int(padding_mode))
        successors = {None: tuple(sorted(init))}
        successors.update(enumerate(
            tuple(compress(range(mode_count), row)) for row in allowed_arr.tolist()))
        object.__setattr__(self, "_successors", successors)

    def successors(self, prev: int | None) -> tuple[int, ...]:
        """Modes that may follow `prev`, ascending; None is the start of a
        sequence.  KeyError for a `prev` outside 0..mode_count-1."""
        return self._successors[prev]

    def extend(self, paths: np.ndarray, keep: int | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
        """One step of the array walk: every row of the integer array `paths`
        followed by every successor of its last mode.

        Returns the parent row of each step and the extended rows, cut to
        their last `keep` modes when `keep` is given.  `allowed` is read row
        major, so the steps come ordered by parent row, then by mode: steps
        from lexicographically sorted, distinct rows are sorted and distinct
        until a cut drops a mode.
        """
        parent, mode = np.nonzero(self.allowed[paths[:, -1]])
        start = 0 if keep is None else max(0, paths.shape[1] + 1 - keep)
        return parent, np.concatenate([paths[parent, start:], mode[:, None]], axis=1)

    def is_admissible(self, sigma) -> bool:
        prev = None
        for m in sigma:
            if m not in self.successors(prev):
                return False
            prev = m
        return True

    def random_sequence(self, length: int, rng: np.random.Generator) -> tuple[int, ...]:
        seq: list[int] = []
        for _ in range(length):
            choices = self.successors(seq[-1] if seq else None)
            if not choices:
                raise ValueError(f"automaton dead-ends after prefix {tuple(seq)}")
            seq.append(choices[rng.integers(len(choices))])
        return tuple(seq)


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-d integer array, lexicographically sorted, and
    the index of every row among them: one lexsort and a neighbour compare."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = starts.cumsum() - 1
    return ordered[starts], inverse


def history_array(automaton: SwitchingAutomaton, length: int) -> np.ndarray:
    """All length-`length` windows a sliding observer of admissible sequences
    can see, as the sorted distinct rows of one integer array.

    Interior windows are paths of the transition graph.  Startup windows
    (times before a full window of real modes exists) are padding-mode
    prefixes followed by an admissible path starting in `initial`; the
    virtual padding-to-start junction is exempt from the transition check.
    """
    if length < 1:
        raise ValueError("history length must be >= 1")
    interior = np.arange(automaton.mode_count, dtype=np.intp)[:, None]
    tails = np.array(sorted(automaton.initial), dtype=np.intp).reshape(-1, 1)
    startup = []
    for j in range(length - 1, 0, -1):
        # j padding modes, then an admissible path of length - j modes
        startup.append(np.concatenate(
            [np.full((len(tails), j), automaton.padding_mode, dtype=np.intp), tails], axis=1))
        interior, tails = automaton.extend(interior)[1], automaton.extend(tails)[1]
    if not startup:
        return interior
    return _distinct_rows(np.concatenate([interior] + startup))[0]


class _WindowRows:
    """Rows of a sorted (row, M) integer array of distinct, nonnegative mode
    windows, found by `searchsorted` on mixed-radix keys in base one past
    the largest mode.  A mode outside 0..base-1 matches no row."""

    def __init__(self, windows: np.ndarray):
        self.windows, self.base = windows, int(windows.max(initial=-1)) + 1
        if self.base ** windows.shape[1] >= 2 ** 62:
            raise ValueError(f"windows of modes below {self.base} overflow 64-bit keys")
        self.radix = self.base ** np.arange(windows.shape[1] - 1, -1, -1, dtype=np.int64)
        self.keys = np.append(windows @ self.radix, 2 ** 63 - 1)  # the sentinel matches nothing

    def __call__(self, windows):
        windows = np.asarray(windows)
        if windows.shape[-1:] == self.radix.shape:
            inside = ((windows >= 0) & (windows < self.base)).all(axis=-1)
            keys = np.where(inside, windows @ self.radix, -1)
            rows = np.searchsorted(self.keys, keys)
            missing = self.keys[rows] != keys
            if not missing.any():
                return rows
            windows = windows[np.unravel_index(np.argmax(missing), missing.shape)]
        elif windows.ndim > 1:
            raise KeyError(f"windows of shape {windows.shape} are not {self.radix.shape}")
        raise KeyError(f"no coefficient for history {tuple(windows.tolist())}; "
                       "the admissible-switching set and the stored taps disagree")


@dataclass(frozen=True, eq=False)
class SwitchingFIR:
    """FIR operator whose taps are selected by the trailing mode window.

    coeffs maps (history tuple of length `memory`, lag in 0..fir_length-1)
    to an (out_dim, in_dim) matrix of finite entries, and every history
    must have every lag.
    The taps are stored once, in the read-only table `taps` of shape
    (history, lag, out_dim, in_dim), the coeffs values being views into it,
    and the histories as the rows of the read-only, sorted integer array
    `windows`.
    """

    memory: int
    fir_length: int
    in_dim: int
    out_dim: int
    coeffs: dict
    taps: np.ndarray = field(init=False, repr=False)
    windows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.memory < 1 or self.fir_length < 1:
            raise ValueError("memory and fir_length must be >= 1")
        by_history: dict[tuple[int, ...], dict[int, np.ndarray]] = {}
        for (hist, k), mat in self.coeffs.items():
            hist = tuple(int(m) for m in hist)
            if len(hist) != self.memory or min(hist) < 0:
                raise ValueError(f"history {hist} must hold {self.memory} nonnegative modes")
            if not (0 <= k < self.fir_length):
                raise ValueError(f"lag {k} outside 0..{self.fir_length - 1}")
            mat = _mat(mat, f"coeff{(hist, k)}")
            if mat.shape != (self.out_dim, self.in_dim):
                raise ValueError(
                    f"coeff {(hist, k)} has shape {mat.shape}, expected {(self.out_dim, self.in_dim)}")
            by_history.setdefault(hist, {})[int(k)] = mat
        histories = sorted(by_history)
        keys = [(hist, k) for hist in histories for k in range(self.fir_length)]
        for hist, k in keys:
            if k not in by_history[hist]:
                raise ValueError(f"history {hist} is missing lag {k}")
        taps = np.array([by_history[hist][k] for hist, k in keys]).reshape(
            len(histories), self.fir_length, self.out_dim, self.in_dim)
        if not np.isfinite(taps).all():
            bad = np.flatnonzero(~np.isfinite(taps))[0] // (self.out_dim * self.in_dim)
            raise ValueError(f"coeff {keys[bad]} has non-finite entries")
        windows = np.array(histories, dtype=np.intp).reshape(len(histories), self.memory)
        taps.flags.writeable = windows.flags.writeable = False
        object.__setattr__(self, "taps", taps)
        object.__setattr__(self, "windows", windows)
        object.__setattr__(self, "coeffs", dict(zip(keys, taps.reshape(len(keys), self.out_dim,
                                                                       self.in_dim))))

    @cached_property
    def history_ids(self) -> _WindowRows:
        """history_ids(windows): the rows of `taps` for an integer array of
        windows (..., memory), a tuple being one window; KeyError names the
        first window without taps.  Built at the first lookup, not at init."""
        return _WindowRows(self.windows)

    def histories(self) -> list[tuple[int, ...]]:
        """The tap histories as tuples, in tap-row order; the package reads
        `windows`, and perfbench's FIR padding reads this."""
        return list(map(tuple, self.windows.tolist()))


def _sigma_array(sigma, horizon: int) -> np.ndarray:
    """A mode sequence, or a batch of them, as an integer array (..., horizon)."""
    arr = np.asarray(sigma)
    if arr.ndim == 0 or (arr.size and arr.dtype.kind not in "iu"):
        raise ValueError("sigma must be a sequence of integer modes, or a batch of them")
    if arr.shape[-1] < horizon:
        raise ValueError(f"sigma has {arr.shape[-1]} entries, horizon is {horizon}")
    return arr[..., :horizon].astype(np.intp, copy=False)


def _mode_array(model: SwitchedOutputModel, sigma, horizon: int) -> np.ndarray:
    """_sigma_array, each of whose modes must be one of the model's."""
    sigma = _sigma_array(sigma, horizon)
    bad = np.argwhere((sigma < 0) | (sigma >= model.mode_count))
    if len(bad):
        where = tuple(bad[0])
        raise ValueError(f"mode {sigma[where]} at time {where[-1]} out of range")
    return sigma


def _trailing_windows(sigma: np.ndarray, width: int, padding_mode: int) -> np.ndarray:
    """The `width` modes ending at each time of sigma (..., horizon), padded in
    front with padding_mode: a (..., horizon, width) view."""
    padded = np.concatenate([np.full(sigma.shape[:-1] + (width - 1,), padding_mode, np.intp),
                             sigma], axis=-1)
    return np.lib.stride_tricks.sliding_window_view(padded, width, axis=-1)


def instantiate(fir: SwitchingFIR, sigma, horizon: int,
                padding_mode: int = 0) -> TruncatedOperator:
    """Freeze the switching FIR along a mode sequence into a kernel operator.

    sigma may be a batch of sequences, shape (..., horizon); the result is
    then a batch of operators.  Band entry (t, k) is the lag-k tap of the
    window ending at time t: one lookup of the windows' tap rows and one
    gather of the tap table.
    """
    sigma = _sigma_array(sigma, horizon)
    M, lags = fir.memory, min(fir.fir_length, horizon)
    band = fir.taps[:, :lags][fir.history_ids(_trailing_windows(sigma, M, padding_mode))]
    t, k = np.ogrid[:horizon, :lags]
    band[..., k > t, :, :] = 0.0
    return TruncatedOperator(band)


def broadcast_taps(fir: SwitchingFIR, automaton: SwitchingAutomaton,
                   source_history=None) -> SwitchingFIR:
    """Copy one history's taps to every admissible history.

    Used to apply a single-mode design blindly under switching, e.g. a
    nominal estimator that ignores the attack pattern; perfbench's
    `stress` set-up builds its blind design with it.
    """
    source = (tuple(source_history) if source_history is not None
              else (automaton.padding_mode,) * fir.memory)
    taps = fir.taps[fir.history_ids(source)]
    hists = map(tuple, history_array(automaton, fir.memory).tolist())
    coeffs = {(hist, k): taps[k] for hist in hists for k in range(fir.fir_length)}
    return SwitchingFIR(fir.memory, fir.fir_length, fir.in_dim, fir.out_dim, coeffs)

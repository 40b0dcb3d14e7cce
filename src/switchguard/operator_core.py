"""Finite-horizon causal operators stored as block lower-triangular kernels.

A causal linear map between vector-valued sequences is represented by its
block kernel: entry (t, k) is the matrix multiplying the input sample at
time t - k when producing the output sample at time t.  Only nonzero
entries are stored, so diagonal and FIR operators cost O(taps) rather
than O(horizon^2).  All arithmetic is dense double precision.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Signal",
    "TruncatedOperator",
    "make_diagonal",
    "delay",
    "identity",
    "zero_operator",
    "compose",
    "add",
    "scale",
    "resolvent_of_state",
    "is_singular",
    "invert",
    "hstack",
    "apply",
    "induced_norm",
    "row_gain",
]


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class Signal:
    """A finite vector-valued sequence: samples has shape (horizon, dim)."""

    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"signal samples must be 2-d (horizon, dim), got {arr.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    @property
    def horizon(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    def norm(self) -> float:
        """Peak norm: sup over time of the max absolute entry."""
        if self.samples.size == 0:
            return 0.0
        return float(np.max(np.abs(self.samples)))

    @staticmethod
    def zeros(horizon: int, dim: int) -> "Signal":
        return Signal(np.zeros((horizon, dim)))


class TruncatedOperator:
    """Causal block-kernel operator on signals of a fixed finite horizon.

    kernel maps (t, k) with 0 <= k <= t < horizon to an (out_dim, in_dim)
    matrix; absent entries are zero.  Instances are immutable.
    """

    __slots__ = ("horizon", "in_dim", "out_dim", "kernel", "_rows")

    def __init__(self, horizon: int, in_dim: int, out_dim: int,
                 kernel: dict[tuple[int, int], np.ndarray]):
        if horizon < 1 or in_dim < 1 or out_dim < 1:
            raise ValueError("horizon and dimensions must be positive")
        clean: dict[tuple[int, int], np.ndarray] = {}
        rows: dict[int, list[tuple[int, np.ndarray]]] = {}
        for (t, k), mat in kernel.items():
            if not (0 <= k <= t < horizon):
                raise ValueError(f"kernel index (t={t}, k={k}) is not causal for horizon {horizon}")
            m = _as_matrix(mat)
            if m.shape != (out_dim, in_dim):
                raise ValueError(
                    f"kernel entry ({t},{k}) has shape {m.shape}, expected {(out_dim, in_dim)}")
            m = m.copy()
            m.flags.writeable = False
            clean[(t, k)] = m
            rows.setdefault(t, []).append((k, m))
        for t in rows:
            rows[t].sort(key=lambda pair: pair[0])
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "in_dim", in_dim)
        object.__setattr__(self, "out_dim", out_dim)
        object.__setattr__(self, "kernel", clean)
        object.__setattr__(self, "_rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedOperator is immutable")

    def entry(self, t: int, k: int) -> np.ndarray:
        """Kernel entry at (t, k), materializing zeros for absent indices."""
        mat = self.kernel.get((t, k))
        if mat is None:
            return np.zeros((self.out_dim, self.in_dim))
        return mat

    def row(self, t: int) -> list[tuple[int, np.ndarray]]:
        """Stored (lag, matrix) pairs of block row t, sorted by lag."""
        return list(self._rows.get(t, ()))

    def unroll(self) -> np.ndarray:
        """Dense (out_dim*horizon, in_dim*horizon) block lower-triangular matrix."""
        p, m, H = self.out_dim, self.in_dim, self.horizon
        dense = np.zeros((p * H, m * H))
        for (t, k), mat in self.kernel.items():
            s = t - k
            dense[t * p:(t + 1) * p, s * m:(s + 1) * m] = mat
        return dense

    def __repr__(self):
        return (f"TruncatedOperator(horizon={self.horizon}, in_dim={self.in_dim}, "
                f"out_dim={self.out_dim}, nnz={len(self.kernel)})")


def make_diagonal(blocks, horizon: int) -> TruncatedOperator:
    """Block-diagonal operator from a per-time family of matrices.

    blocks may be a single matrix (replicated across the horizon, the
    time-invariant case) or a sequence with at least `horizon` matrices.
    """
    first = np.asarray(blocks, dtype=float)
    if first.ndim == 2:
        seq = [first] * horizon
    else:
        seq = [_as_matrix(b) for b in blocks]
        if len(seq) < horizon:
            raise ValueError(f"need at least {horizon} blocks, got {len(seq)}")
        seq = seq[:horizon]
    shape = seq[0].shape
    for i, b in enumerate(seq):
        if b.shape != shape:
            raise ValueError(f"block {i} has shape {b.shape}, expected {shape}")
    kernel = {(t, 0): seq[t] for t in range(horizon)}
    return TruncatedOperator(horizon, shape[1], shape[0], kernel)


def delay(power: int, dim: int, horizon: int) -> TruncatedOperator:
    """The shift operator raised to `power`: prepends zeros, truncates at the horizon."""
    if power < 0:
        raise ValueError("delay power must be nonnegative")
    eye = np.eye(dim)
    kernel = {(t, power): eye for t in range(power, horizon)}
    return TruncatedOperator(horizon, dim, dim, kernel)


def identity(dim: int, horizon: int) -> TruncatedOperator:
    return delay(0, dim, horizon)


def zero_operator(in_dim: int, out_dim: int, horizon: int) -> TruncatedOperator:
    return TruncatedOperator(horizon, in_dim, out_dim, {})


def compose(R: TruncatedOperator, S: TruncatedOperator) -> TruncatedOperator:
    """Operator product R o S; kernel convolution over intermediate lags."""
    if S.out_dim != R.in_dim:
        raise ValueError(f"inner dimensions differ: R takes {R.in_dim}, S yields {S.out_dim}")
    if R.horizon != S.horizon:
        raise ValueError("horizons differ")
    H = R.horizon
    out: dict[tuple[int, int], np.ndarray] = {}
    for (t, j), rmat in R.kernel.items():
        for k2, smat in S._rows.get(t - j, ()):
            key = (t, j + k2)
            prod = rmat @ smat
            if key in out:
                out[key] = out[key] + prod
            else:
                out[key] = prod
    return TruncatedOperator(H, S.in_dim, R.out_dim, out)


def add(R: TruncatedOperator, S: TruncatedOperator) -> TruncatedOperator:
    if (R.in_dim, R.out_dim, R.horizon) != (S.in_dim, S.out_dim, S.horizon):
        raise ValueError("operands must share dimensions and horizon")
    out = dict(R.kernel)
    for key, mat in S.kernel.items():
        if key in out:
            out[key] = out[key] + mat
        else:
            out[key] = mat
    return TruncatedOperator(R.horizon, R.in_dim, R.out_dim, out)


def scale(R: TruncatedOperator, c: float) -> TruncatedOperator:
    out = {key: c * mat for key, mat in R.kernel.items()}
    return TruncatedOperator(R.horizon, R.in_dim, R.out_dim, out)


def resolvent_of_state(A, horizon: int) -> TruncatedOperator:
    """Inverse of (I - shift o diag(A)) for a constant state matrix A.

    Kernel entry (t, k) is A^k; finite horizon keeps the sum finite even
    for unstable A.
    """
    A = _as_matrix(A)
    nd = A.shape[0]
    if A.shape != (nd, nd):
        raise ValueError("state matrix must be square")
    powers = [np.eye(nd)]
    for _ in range(1, horizon):
        powers.append(A @ powers[-1])
    kernel = {(t, k): powers[k] for t in range(horizon) for k in range(t + 1)}
    return TruncatedOperator(horizon, nd, nd, kernel)


def is_singular(mat: np.ndarray) -> bool:
    """Whether a square matrix is singular to working precision.

    Scale-free: the smallest singular value is compared with the largest
    (numpy's matrix_rank tolerance), so 1e-5 * I passes where a bare
    determinant threshold would reject it.
    """
    sv = np.linalg.svd(mat, compute_uv=False)
    return not sv[-1] > sv[0] * max(mat.shape) * np.finfo(float).eps


def invert(R: TruncatedOperator) -> TruncatedOperator:
    """Inverse of a causal operator with invertible lag-0 blocks.

    Block forward substitution on the kernel; raises if any lag-0 block
    is singular.
    """
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
    return TruncatedOperator(H, nd, nd, out)


def hstack(R: TruncatedOperator, S: TruncatedOperator) -> TruncatedOperator:
    """Concatenate input channels: [R S] acting on stacked (u_R, u_S)."""
    if R.out_dim != S.out_dim or R.horizon != S.horizon:
        raise ValueError("operands must share out_dim and horizon")
    kernel = {}
    for key in set(R.kernel) | set(S.kernel):
        t, k = key
        kernel[key] = np.hstack([R.entry(t, k), S.entry(t, k)])
    return TruncatedOperator(R.horizon, R.in_dim + S.in_dim, R.out_dim, kernel)


def apply(R: TruncatedOperator, u: Signal) -> Signal:
    """y(t) = sum_k kernel(t, k) u(t - k)."""
    if u.dim != R.in_dim:
        raise ValueError(f"signal dim {u.dim} does not match operator in_dim {R.in_dim}")
    if u.horizon != R.horizon:
        raise ValueError("signal horizon does not match operator horizon")
    out = np.zeros((R.horizon, R.out_dim))
    samples = u.samples
    for (t, k), mat in R.kernel.items():
        out[t] += mat @ samples[t - k]
    return Signal(out)


def _row_abs_sums(R: TruncatedOperator, t: int) -> np.ndarray:
    """Per-output-row sum of absolute kernel entries of block row t."""
    sums = np.zeros(R.out_dim)
    for _, mat in R._rows.get(t, ()):
        sums += np.sum(np.abs(mat), axis=1)
    return sums


def induced_norm(R: TruncatedOperator) -> float:
    """Worst-case peak-to-peak gain: max over time and output rows of the
    absolute row sum across all lags."""
    best = 0.0
    for t in range(R.horizon):
        sums = _row_abs_sums(R, t)
        if sums.size:
            best = max(best, float(np.max(sums)))
    return best


def row_gain(R: TruncatedOperator, t: int) -> tuple[float, Signal]:
    """Worst output-row gain at time t and a sign-pattern input achieving it.

    The witness w satisfies apply(R, w)(t)[i*] == value exactly, where i*
    is the maximizing output row.
    """
    if not (0 <= t < R.horizon):
        raise ValueError(f"time {t} outside horizon {R.horizon}")
    sums = _row_abs_sums(R, t)
    i_star = int(np.argmax(sums)) if sums.size else 0
    value = float(sums[i_star]) if sums.size else 0.0
    witness = np.zeros((R.horizon, R.in_dim))
    for k, mat in R._rows.get(t, ()):
        witness[t - k] = np.sign(mat[i_star])
    return value, Signal(witness)

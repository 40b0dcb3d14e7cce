"""Finite-horizon causal operators stored as read-only lag bands.

A causal linear map between vector-valued sequences is represented by its
block kernel: entry (t, k) is the matrix multiplying the input sample at
time t - k when producing the output sample at time t.  The kernel is kept
as one ndarray `band` of shape (..., H, L, out_dim, in_dim) with L <= H:
band[..., t, k] is the lag-k block at time t, zero where k > t, and lags
from L on are zero.  FIR operators have L = taps, so storage is
O(horizon * lags) rather than O(horizon^2).  Leading axes are a batch of
operators, e.g. one per sampled mode sequence, which `induced_norm`
measures in one call.  All arithmetic is dense double precision.
`TruncatedOperator(band)` is the one constructor, and consumers read the
band directly.  The package builds its bands from tap tables and per-lag
products (`switched_model.instantiate`, `synthesis.factor_operators`, the
attack kernel's rows) and only applies and measures them here; the
operator algebra those products follow (compose, add, inverse) is the
dict-of-lags reference chain in tests/util.py.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Signal",
    "TruncatedOperator",
    "is_singular",
    "apply",
    "induced_norm",
]


@dataclass(frozen=True, eq=False)
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


class TruncatedOperator:
    """Causal block-kernel operator on signals of a fixed finite horizon.

    Wraps a causal band (..., H, L, out_dim, in_dim), L <= H, without
    copying: the caller hands the array over and it is made read-only, so
    instances and their band are immutable.  Only in_dim may be 0.
    """

    __slots__ = ("horizon", "in_dim", "out_dim", "band")

    def __init__(self, band: np.ndarray):
        if band.ndim < 4 or band.shape[-3] > band.shape[-4] or 0 in band.shape[-4:-1]:
            raise ValueError(f"band shape {band.shape} is not (..., H, L <= H, out, in)")
        band.flags.writeable = False
        object.__setattr__(self, "band", band)
        object.__setattr__(self, "horizon", band.shape[-4])
        object.__setattr__(self, "out_dim", band.shape[-2])
        object.__setattr__(self, "in_dim", band.shape[-1])

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedOperator is immutable")

    @property
    def lags(self) -> int:
        """Band width L: kernel entries of lag L and beyond are zero."""
        return self.band.shape[-3]

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.band.shape[:-4]

    def __repr__(self):
        return (f"TruncatedOperator(horizon={self.horizon}, in_dim={self.in_dim}, "
                f"out_dim={self.out_dim}, lags={self.lags}, batch={self.batch_shape})")


def is_singular(mat: np.ndarray) -> bool:
    """Whether a square matrix is singular to working precision.

    Scale-free: the smallest singular value is compared with the largest
    (numpy's matrix_rank tolerance), so 1e-5 * I passes where a bare
    determinant threshold would reject it.
    """
    sv = np.linalg.svd(mat, compute_uv=False)
    return not sv[-1] > sv[0] * max(mat.shape) * np.finfo(float).eps


def apply(R: TruncatedOperator, u: Signal) -> Signal:
    """y(t) = sum_k kernel(t, k) u(t - k), summed over k ascending."""
    if R.batch_shape:
        raise ValueError("apply takes a single operator, not a batch")
    if u.dim != R.in_dim:
        raise ValueError(f"signal dim {u.dim} does not match operator in_dim {R.in_dim}")
    if u.horizon != R.horizon:
        raise ValueError("signal horizon does not match operator horizon")
    H = R.horizon
    out = np.zeros((H, R.out_dim, 1))
    samples = u.samples[:, :, None]
    for k in range(R.lags):
        out[k:] += R.band[k:, k] @ samples[:H - k]
    return Signal(out[:, :, 0])


def _abs_row_sums(band: np.ndarray) -> np.ndarray:
    """(..., H, out_dim) absolute row sums: |entries| summed over the inputs,
    then over the lags in ascending order."""
    total = np.sum(np.abs(band[..., 0, :, :]), axis=-1)
    for k in range(1, band.shape[-3]):
        total += np.sum(np.abs(band[..., k, :, :]), axis=-1)
    return total


def induced_norm(R: TruncatedOperator):
    """Worst-case peak-to-peak gain: max over time and output rows of the
    absolute row sum across all lags.

    A float for a single operator, an array of batch_shape for a batch.
    """
    norms = np.max(_abs_row_sums(R.band), axis=(-2, -1), initial=0.0)
    return float(norms) if norms.ndim == 0 else norms


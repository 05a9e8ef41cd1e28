"""Dense tensor containers, pooling, the zero-norm rule and the foreground
rule.

All containers hold float64 data internally; 32-bit file inputs are
widened at load time so long iterative runs do not accumulate
single-precision drift. Every array input passes one rule, ``_as_float64``:
the right rank, non-empty and finite.
"""

from __future__ import annotations

import functools
import numbers
import typing
from dataclasses import dataclass, field

import numpy as np

ZERO_NORM_EPS = 1e-12


def _as_float64(values, name: str, rank: int | None = None) -> np.ndarray:
    """``values`` as contiguous float64, checked for rank ``rank`` (any if None),
    then emptiness, then finiteness; each failure is a ``ValueError`` naming ``name``."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if rank is not None and arr.ndim != rank:
        raise ValueError(f"{name} must be rank {rank}, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} dims must be positive, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or Inf")
    return arr


def _unit_interval(values, name: str) -> np.ndarray:
    """``values`` as a valid rank-2 array (``_as_float64``) of values in [0, 1]."""
    arr = _as_float64(values, name, 2)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError(f"{name} values must lie in [0, 1]")
    return arr


# values a field of each type takes: numpy scalars count, a bool is not a number
_ACCEPTS = {int: numbers.Integral, float: numbers.Real, str: str}


def _is_a(value, kind: type) -> bool:
    """Whether a field annotated ``kind`` (int, float or str) takes ``value``."""
    return isinstance(value, _ACCEPTS[kind]) and not isinstance(value, bool)


@functools.cache
def _scalar_fields(cls) -> dict:
    return {k: t for k, t in typing.get_type_hints(cls).items() if t in _ACCEPTS}


def _check_scalars(obj) -> None:
    """Raise ``TypeError`` naming the first int, float or str field of
    dataclass ``obj`` whose value is not of its annotated type."""
    for name, kind in _scalar_fields(type(obj)).items():
        value = getattr(obj, name)
        if not _is_a(value, kind):
            raise TypeError(f"{name}: expected {kind.__name__}, got {value!r}")


@dataclass(frozen=True, eq=False)
class Tensor:
    """N-dimensional row-major array of finite float64 values."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _as_float64(self.data, "tensor data"))


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """A C x H x W grid of feature vectors."""

    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "data", _as_float64(self.data, "feature map", 3))

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True, eq=False)
class SoftMask:
    """An H x W grid of weights in [0, 1]."""

    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "data", _unit_interval(self.data, "mask"))


def avg_pool(fmap: FeatureMap, window: tuple[int, int]) -> FeatureMap:
    """Channel-wise average pooling over a non-overlapping tiling.

    Windows must tile the spatial extent exactly; partial windows, and
    so windows larger than the map, are a ``ValueError``.
    """
    wh, ww = window
    h, w = fmap.data.shape[1:]
    if wh < 1 or ww < 1:
        raise ValueError("window must be positive")
    if h % wh or w % ww:
        raise ValueError(f"window {window} does not tile extent {(h, w)}")
    # the contiguous copy gives each window's mean the loop-over-windows
    # summation order, so the bytes do not depend on the view's strides
    windows = fmap.data.reshape(-1, h // wh, wh, w // ww, ww).transpose(0, 1, 3, 2, 4)
    out = np.ascontiguousarray(windows).mean(axis=(-2, -1))
    return FeatureMap(out)


def _norms(vectors: np.ndarray, axis: int) -> np.ndarray:
    """Euclidean norms along ``axis``, the library's one zero-norm rule: a
    norm below 1e-12 reads 0, and a vector with norm 0 compares as 0. A
    vector whose squares overflow (an entry above about 1.3e154) is
    measured again scaled by its largest entry."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(vectors, axis=axis)
    big = np.isinf(norms)
    if big.any():
        rows = np.moveaxis(vectors, axis, -1)[big]
        scale = np.abs(rows).max(axis=-1)
        norms[big] = scale * np.linalg.norm(rows / scale[:, None], axis=-1)
    norms[norms < ZERO_NORM_EPS] = 0.0
    return norms


def downsample_mask(mask: SoftMask, window: tuple[int, int]) -> SoftMask:
    """Mask mean over each window of the tiling ``avg_pool`` uses.

    The grid follows from the window as the prototypes' grid does; a
    binary mask's cell is its window's exact foreground fraction,
    rounded once.
    """
    return SoftMask(avg_pool(FeatureMap(mask.data[None]), window).data[0])


def predict_mask(values) -> np.ndarray:
    """Binary foreground mask of a score map: a value >= 0.5 is foreground
    (the two-class argmax, ties going to foreground). The support labels,
    the "calibrated" mask and the truth an episode is scored against come
    from it; the "poisson" mask is the isodata split of the query's scores.
    """
    return (np.asarray(values) >= 0.5).astype(np.uint8)

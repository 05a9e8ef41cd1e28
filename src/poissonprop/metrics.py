"""Overlap metrics for mask evaluation.

``dsc`` follows the score convention 2|A∩B| / (|A|+|B|), where higher
is better; the companion soft loss is 1 minus the smoothed score.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch
from .tensor import _as_float64


def _binary(values, name: str) -> np.ndarray:
    arr = _as_float64(values, name, 2)
    if not np.all(np.isin(arr, (0.0, 1.0))):
        raise ValueError(f"{name} must be strictly binary")
    return arr


def dice_loss(pred, target, eps: float = 1e-6) -> float:
    """Soft overlap loss: 1 - (2 sum(XY) + eps) / (sum X + sum Y + eps).

    ``eps`` keeps the empty-vs-empty case finite (returning 0).
    """
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    x = _as_float64(pred, "pred", 2)
    y = _as_float64(target, "target", 2)
    if x.shape != y.shape:
        raise ShapeMismatch(f"mask dims differ: {x.shape} vs {y.shape}")
    intersection = float((x * y).sum())
    cardinality = float(x.sum() + y.sum())
    return 1.0 - (2.0 * intersection + eps) / (cardinality + eps)


def dsc(pred, target) -> float:
    """Overlap score 2|A∩B| / (|A|+|B|) for strictly binary masks.

    Two empty masks score 1 (perfect agreement on absence).
    """
    a = _binary(pred, "pred")
    b = _binary(target, "target")
    if a.shape != b.shape:
        raise ShapeMismatch(f"mask dims differ: {a.shape} vs {b.shape}")
    cardinality = float(a.sum() + b.sum())
    if cardinality == 0.0:
        return 1.0
    return 2.0 * float((a * b).sum()) / cardinality

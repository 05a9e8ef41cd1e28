"""Overlap metric for mask evaluation.

``dsc`` follows the score convention 2|A∩B| / (|A|+|B|), where higher
is better.
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

"""Prototype extraction: feature maps -> prototype vectors and labels.

Local prototypes are channel-wise window averages over a non-overlapping
tiling, one row per grid cell; they become graph vertices. The global
prototype is the mask-weighted average of a support feature map.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch
from .tensor import FeatureMap, SoftMask, avg_pool, predict_mask


def local_prototype_pool(fmap: FeatureMap, window: tuple[int, int]) -> np.ndarray:
    """Pool a feature map into a (cells, C) array, one row per grid cell.

    Cells are in row-major order over the pooled grid; the windows
    tile the map, so cells do not overlap. The rows view the pooled map.
    """
    return avg_pool(fmap, window).data.reshape(fmap.channels, -1).T


def assign_prototype_labels(grid_mask: SoftMask) -> np.ndarray:
    """Class index of every grid cell, row-major: 1 (foreground) where
    ``predict_mask`` marks the mask cell (its window's majority, ties
    foreground), else 0.

    The mask must already be at pooled-grid resolution (one cell per
    prototype). Only support prototypes are labeled this way.
    """
    return predict_mask(grid_mask.data).astype(np.int64).ravel()


def masked_average_pool(fmap: FeatureMap, mask: SoftMask) -> np.ndarray:
    """Mask-weighted channel-wise average of a feature map, as a (C,) array.

    A mask with zero total weight (an empty-foreground support slice)
    pools to the zero vector, which compares as 0 with every pixel.
    """
    if mask.data.shape != (fmap.height, fmap.width):
        raise ShapeMismatch(f"mask dims {mask.data.shape} != map dims {(fmap.height, fmap.width)}")
    total = float(mask.data.sum())
    if total == 0.0:
        return np.zeros(fmap.channels)
    return fmap.data.reshape(fmap.channels, -1) @ mask.data.ravel() / total

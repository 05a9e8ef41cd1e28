"""Shared test fixtures: random propagation systems and frozen synth specs."""

from __future__ import annotations

import numpy as np

import poissonprop as pp
from poissonprop.graph import component_count

UNIT8 = np.ones(8) / np.sqrt(8)


def random_connected_system(seed: int, dim: int = 8):
    """Seeded random connected graph plus a centered label source.

    n in [10, 200], kNN K in [3, 8], classes in {2, 3}, 10-20%% of the
    vertices labeled with every class represented. Points are a single
    Gaussian cloud, which keeps the kNN graph connected and well mixed.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 201))
    k_nn = min(int(rng.integers(3, 9)), n - 1)
    k = int(rng.integers(2, 4))
    graph = None
    for _ in range(100):
        pts = rng.standard_normal((n, dim))
        candidate = pp.build_weight_graph(pts, k_nn)
        if component_count(candidate) == 1:
            graph = candidate
            break
    assert graph is not None, f"no connected draw for seed {seed}"
    n_s = max(k, int(np.ceil(n * rng.uniform(0.10, 0.20))))
    classes = np.concatenate([np.arange(k), rng.integers(0, k, n_s - k)])
    one_hot = np.zeros((n_s, k))
    one_hot[np.arange(n_s), classes] = 1.0
    source = pp.build_source(one_hot, n)
    return graph, source


def two_blob_spec(seed: int, n_auxiliary: int = 3, separation: float = 10.0) -> pp.SynthSpec:
    """Two separated Gaussian blobs under an off-center disk.

    The disk crosses many pooling windows with distinct coverage
    fractions, so mixed-window prototypes form a chain of vertices
    bridging the two feature clusters and the kNN graph stays
    connected. ``separation`` is the class-mean distance in noise
    units, split 0.6/0.4 between foreground and background so both
    classes sit well away from the decision boundary.
    """
    return pp.SynthSpec(
        channels=8,
        height=16,
        width=16,
        fg_mean=0.6 * separation * UNIT8,
        bg_mean=-0.4 * separation * UNIT8,
        noise_scale=1.0,
        shape="disk",
        center=(7.75, 8.45),
        size=7.0,
        seed=seed,
        n_auxiliary=n_auxiliary,
    )


def aligned_rect_spec(seed: int, separation: float = 2.5) -> pp.SynthSpec:
    """Blob episode whose mask tiles the pooling grid exactly.

    With the mask aligned to the 4x4 windows, the pooled label
    footprint equals the pixel mask, which makes it a reference for
    confidence-region checks.
    """
    return pp.SynthSpec(
        channels=8,
        height=16,
        width=16,
        fg_mean=separation * UNIT8,
        bg_mean=-separation * UNIT8,
        noise_scale=1.0,
        shape="rect",
        center=(7.5, 7.5),
        size=(8, 8),
        seed=seed,
        n_auxiliary=2,
    )

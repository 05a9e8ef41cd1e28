"""Synthetic two-class episode generator.

Pixel vectors are drawn as class-mean + isotropic Gaussian noise, with
the class decided by a simple mask geometry (axis-aligned rectangle or
disk). The generating mask is the ground truth, which makes generated
episodes usable as end-to-end oracles: a correct pipeline must recover
the geometry when the class means are well separated.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .episode import Episode, EpisodeConfig
from .tensor import FeatureMap, SoftMask

SHAPES = ("rect", "disk")


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class SynthSpec:
    """Generator parameters; identical spec -> identical episode."""

    channels: int
    height: int
    width: int
    fg_mean: np.ndarray = field(repr=False)
    bg_mean: np.ndarray = field(repr=False)
    noise_scale: float
    shape: str
    center: tuple[float, float]
    size: tuple[int, int] | float
    seed: int
    n_auxiliary: int = 2

    def __post_init__(self):
        fg = np.asarray(self.fg_mean, dtype=np.float64)
        bg = np.asarray(self.bg_mean, dtype=np.float64)
        if fg.shape != (self.channels,) or bg.shape != (self.channels,):
            raise ValueError(
                f"mean vectors must have length {self.channels}, "
                f"got {fg.shape} and {bg.shape}"
            )
        if self.noise_scale < 0:
            raise ValueError("noise scale must be nonnegative")
        if self.shape not in SHAPES:
            raise ValueError(f"shape must be one of {SHAPES}, got {self.shape!r}")
        rect = self.shape == "rect"
        parts = self.size if rect and isinstance(self.size, tuple) else (self.size,)
        if len(parts) != 1 + rect or not all(map(_is_number, parts)):
            need = "[height, width]" if rect else "a radius"
            raise ValueError(f"size: a {self.shape} needs {need}, got {self.size!r}")
        if self.n_auxiliary < 0:
            raise ValueError("n_auxiliary must be nonnegative")
        object.__setattr__(self, "fg_mean", fg)
        object.__setattr__(self, "bg_mean", bg)


def geometry_mask(spec: SynthSpec) -> SoftMask:
    """Binary {0,1} mask realizing the spec's geometry."""
    rows = np.arange(spec.height)[:, None]
    cols = np.arange(spec.width)[None, :]
    ci, cj = spec.center
    if spec.shape == "disk":
        radius = float(spec.size)
        inside = (rows - ci) ** 2 + (cols - cj) ** 2 <= radius**2
    else:
        sh, sw = spec.size
        r0 = int(round(ci - sh / 2))
        c0 = int(round(cj - sw / 2))
        inside = (rows >= r0) & (rows < r0 + sh) & (cols >= c0) & (cols < c0 + sw)
    return SoftMask(inside.astype(np.float64))


def _draw_map(spec: SynthSpec, mask: np.ndarray, rng: np.random.Generator) -> FeatureMap:
    means = np.where(
        mask[None, :, :] > 0.5,
        spec.fg_mean[:, None, None],
        spec.bg_mean[:, None, None],
    )
    noise = rng.standard_normal((spec.channels, spec.height, spec.width))
    return FeatureMap(means + spec.noise_scale * noise)


def synth_episode(
    spec: SynthSpec, config: EpisodeConfig | None = None
) -> tuple[Episode, SoftMask]:
    """Generate one episode plus its generating ground-truth mask.

    Support, auxiliary, and query maps are drawn from the same process
    with independent noise, in that fixed order, so episodes are
    byte-reproducible from the seed.
    """
    rng = np.random.default_rng(spec.seed)
    truth = geometry_mask(spec)
    support_map = _draw_map(spec, truth.data, rng)
    auxiliary = tuple(
        _draw_map(spec, truth.data, rng) for _ in range(spec.n_auxiliary)
    )
    query = _draw_map(spec, truth.data, rng)
    ep = Episode(
        support=(support_map, truth),
        auxiliary=auxiliary,
        query=query,
        query_mask=truth,
        config=config if config is not None else EpisodeConfig(),
    )
    return ep, truth

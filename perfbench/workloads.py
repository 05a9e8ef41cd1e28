"""Benchmark workloads: seeded synthetic episodes and the call each one times.

Every workload uses the disk geometry of the test suite's two-blob episode
(``tests/_util.two_blob_spec``) scaled to the map side: centre
(0.484, 0.528) * side, radius 0.4375 * side, class means +/- the unit
vector split 0.6 / 0.4 by separation, unit noise. Inputs depend only on
the workload seed; the program only ever sees the generated tensors.

Separation 6 is used at 32x32 and above because separation 10 there leaves
the two clusters unbridged and the graph build raises the documented
``DisconnectedGraph``.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import poissonprop as pp
from poissonprop import cli, episode as episode_mod
from poissonprop.tensorfile import DTYPE_F64, DTYPE_U8, MAGIC, load_tensor

HEAD_STREAM = 0x5EED  # separates the head weights' random stream from the episodes'
HEAD_WIDTH = 64


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    side: int
    channels: int
    n_auxiliary: int
    separations: tuple[float, ...]
    pool: int  # distinct episodes generated per run; the timed loop cycles them
    verify: int  # pool entries checked against the exact reference solve
    dsc_floor: float  # lowest mean dsc_poisson accepted (set from runs at this commit)
    via_cli: bool = False
    calibrated_head: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="small-episodes",
            why=(
                "16x16 episodes through the CLI, solver-bound; the only workload "
                "exercising cli, manifest and tensorfile, and where fixed per-episode "
                "costs weigh most"
            ),
            side=16,
            channels=8,
            n_auxiliary=3,
            separations=(4.0, 6.0, 10.0),
            pool=12,
            verify=12,
            dsc_floor=0.95,
            via_cli=True,
        ),
        Workload(
            name="large-map",
            why=(
                "64x64 maps, n=5120: the quadratic kNN graph's time and memory dominate, "
                "the north-star top size"
            ),
            side=64,
            channels=8,
            n_auxiliary=3,
            separations=(6.0,),
            pool=3,
            verify=1,
            dsc_floor=0.98,
        ),
        Workload(
            name="wide-channels",
            why=(
                "C=256 at n=1280: graph cost grows with channel count, so a kNN route "
                "tuned for C=8 shows here"
            ),
            side=32,
            channels=256,
            n_auxiliary=3,
            separations=(6.0,),
            pool=3,
            verify=3,
            dsc_floor=0.98,
        ),
        Workload(
            name="calibrated-head",
            why=(
                "calibrated mode with a 64-channel similarity head: the only workload "
                "where O(HW^2 C) calibration dominates"
            ),
            side=32,
            channels=8,
            n_auxiliary=1,
            separations=(6.0,),
            pool=6,
            verify=6,
            dsc_floor=0.98,
            calibrated_head=True,
        ),
    )
}


def episode_spec(wl: Workload, seed: int, index: int, side: int | None = None) -> pp.SynthSpec:
    side = wl.side if side is None else side
    sep = wl.separations[index % len(wl.separations)]
    unit = np.ones(wl.channels) / np.sqrt(wl.channels)
    return pp.SynthSpec(
        channels=wl.channels,
        height=side,
        width=side,
        fg_mean=0.6 * sep * unit,
        bg_mean=-0.4 * sep * unit,
        noise_scale=1.0,
        shape="disk",
        center=(0.484 * side, 0.528 * side),
        size=0.4375 * side,
        seed=int(np.random.SeedSequence([seed, index]).generate_state(1)[0]),
        n_auxiliary=wl.n_auxiliary,
    )


def episode_config(wl: Workload, seed: int) -> pp.EpisodeConfig:
    """Default config, or calibrated mode with a seeded similarity head and
    calibration transform (weights ~ N(0, 1/fan_in), biases ~ N(0, 0.01))."""
    if not wl.calibrated_head:
        return pp.EpisodeConfig()
    rng = np.random.default_rng([seed, HEAD_STREAM])

    def linear(n_in: int, n_out: int) -> pp.LinearParams:
        weight = rng.standard_normal((n_out, n_in)) / np.sqrt(n_in)
        return pp.LinearParams(weight, 0.1 * rng.standard_normal(n_out))

    return pp.EpisodeConfig(
        prediction_mode="calibrated",
        sim_params=linear(2 * wl.channels, HEAD_WIDTH),
        calibration_params=pp.TwoLayerParams(
            linear(HEAD_WIDTH, HEAD_WIDTH), linear(HEAD_WIDTH, HEAD_WIDTH)
        ),
    )


@dataclass
class Inputs:
    episodes: list[pp.Episode]
    manifests: list[Path] | None  # one per episode, for the CLI workload


def _write_in_place(path: Path, blob: bytes) -> None:
    """Write ``blob`` to ``path``, rewriting an existing file without truncating it.

    Set-up runs several times into the same files, so its median time is
    generating plus writing the inputs, not file creation, whose latency
    on the reference machine's file system varies tenfold between runs.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
    try:
        view = memoryview(blob)
        while view:
            view = view[os.write(fd, view) :]
        os.ftruncate(fd, len(blob))
    finally:
        os.close(fd)


def _tensor_bytes(data: np.ndarray, dtype_code: int) -> bytes:
    """The tensor file layout documented in the repository README ("Tensor file format")."""
    dtype = "<f8" if dtype_code == DTYPE_F64 else "u1"
    header = MAGIC + struct.pack(f"<BB{data.ndim}I", dtype_code, data.ndim, *data.shape)
    return header + np.ascontiguousarray(data, dtype=dtype).tobytes()


def _write_manifest(ep: pp.Episode, directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    support_map, support_mask = ep.support
    tensors = {
        "support_features.t": (support_map.data, DTYPE_F64),
        "support_mask.t": (support_mask.data, DTYPE_U8),
        **{f"aux_{i:03d}.t": (aux.data, DTYPE_F64) for i, aux in enumerate(ep.auxiliary)},
        "query_features.t": (ep.query.data, DTYPE_F64),
        "query_mask.t": (ep.query_mask.data, DTYPE_U8),
    }
    for name, (data, code) in tensors.items():
        _write_in_place(directory / name, _tensor_bytes(data, code))
    manifest = {
        "support_features": "support_features.t",
        "support_mask": "support_mask.t",
        "auxiliary_features": [f"aux_{i:03d}.t" for i in range(len(ep.auxiliary))],
        "query_features": "query_features.t",
        "query_mask": "query_mask.t",
        "config": {},
    }
    path = directory / "manifest.json"
    _write_in_place(path, (json.dumps(manifest, indent=2) + "\n").encode())
    return path


def set_up(wl: Workload, seed: int, work_dir: Path) -> Inputs:
    """Generate the run's episode pool and, for the CLI workload, write it."""
    config = episode_config(wl, seed)
    episodes = [
        pp.synth_episode(episode_spec(wl, seed, i), config)[0] for i in range(wl.pool)
    ]
    manifests = None
    if wl.via_cli:
        manifests = [
            _write_manifest(ep, work_dir / f"in_{i:03d}") for i, ep in enumerate(episodes)
        ]
    return Inputs(episodes, manifests)


def warm_up_episode(wl: Workload, seed: int) -> pp.Episode:
    """A 16x16 episode on the workload's channels and config, run untimed
    once so lazy imports and library start-up are paid before timing."""
    spec = episode_spec(wl, seed, 0, side=16)
    return pp.synth_episode(spec, episode_config(wl, seed))[0]


@dataclass
class Outputs:
    """What one episode produced, as the benchmark checks and compares it."""

    confidence: np.ndarray
    calibrated: np.ndarray
    mask_poisson: np.ndarray
    dsc_calibrated: float
    blob: bytes  # every output byte, for the determinism and tracing checks


def call(wl: Workload, inputs: Inputs, index: int, out_root: Path):
    """The timed operation: one episode, exactly as a user would run it."""
    if wl.via_cli:
        out_dir = out_root / f"out_{index:03d}"
        argv = ["episode", "--manifest", str(inputs.manifests[index]), "--out-dir", str(out_dir)]
        return cli.main(argv)
    return episode_mod.run_episode(inputs.episodes[index])


def capture(wl: Workload, inputs: Inputs, index: int, out_root: Path, returned) -> Outputs:
    """Turn what ``call`` returned into Outputs; raises if the call failed."""
    if wl.via_cli:
        if returned != 0:
            raise RuntimeError(f"poissonprop episode exited with {returned}")
        out_dir = out_root / f"out_{index:03d}"
        names = ("confidence.t", "calibrated.t", "predicted_mask.t", "diagnostics.json")
        blob = b"".join((out_dir / name).read_bytes() for name in names)
        diag = json.loads((out_dir / "diagnostics.json").read_text())
        return Outputs(
            confidence=load_tensor(out_dir / "confidence.t").data,
            calibrated=load_tensor(out_dir / "calibrated.t").data,
            mask_poisson=load_tensor(out_dir / "predicted_mask.t").data.astype(np.uint8),
            dsc_calibrated=float(diag["dsc_calibrated"]),
            blob=blob,
        )
    return result_outputs(returned, inputs.episodes[index].query_mask.data >= 0.5)


def result_outputs(result: pp.EpisodeResult, truth: np.ndarray) -> Outputs:
    arrays = (
        result.confidence.values,
        result.calibrated.data,
        result.mask_poisson,
        result.mask_calibrated,
    )
    return Outputs(
        confidence=result.confidence.values,
        calibrated=result.calibrated.data,
        mask_poisson=result.mask_poisson,
        dsc_calibrated=overlap(result.mask_calibrated, truth),
        blob=b"".join(np.ascontiguousarray(a).tobytes() for a in arrays),
    )


def overlap(mask: np.ndarray, truth: np.ndarray) -> float:
    """Overlap score 2|A and B| / (|A| + |B|); 1.0 when both are empty."""
    a = np.asarray(mask) >= 0.5
    b = np.asarray(truth) >= 0.5
    total = int(a.sum()) + int(b.sum())
    return 1.0 if total == 0 else 2.0 * int((a & b).sum()) / total

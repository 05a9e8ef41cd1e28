"""Every benchmark workload still runs one episode on the library as it is.

``perfbench/workloads.py`` builds its episodes and configs through the
public API and reads result fields and CLI output files back. A library
change that breaks one of those reads would otherwise show only when the
benchmark runs, so this test runs each workload's set-up, timed call and
capture on pool episode 0. It also runs the benchmark's own correctness
checks from ``perfbench/checks.py`` on that episode: the kNN edges and the
calibrated map recomputed from the inputs (within the checks' rtol of
1e-9), so a rounding change in the similarity or calibration shows here
too. On wide-channels every kNN row is also compared byte for byte with
the full-table reference, and on calibrated-head every calibrated pixel
is checked, its zero-norm pixels included. The small-episodes workload
writes its episode directories with its own copy of the manifest and
tensor file format, so that copy is checked against the library's
writer. As in ``test_benchmark_targets.py``, the perfbench sources are
read and executed here, never imported as modules, so nothing is written
next to them.
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from _util import _reference_knn
from poissonprop import manifest, run_episode, synth_episode
from poissonprop.graph import _knn

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SAMPLE = 16  # graph rows and calibrated pixels checked, as the benchmark samples


def _load(name):
    module = types.ModuleType(f"perfbench_{name}")
    sys.modules[module.__name__] = module  # its dataclasses look the module up
    path = PERFBENCH / f"{name}.py"
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


WL = _load("workloads")
CHECKS = _load("checks")


@pytest.mark.parametrize("name", sorted(WL.WORKLOADS))
def test_workload_runs_pool_episode_zero(name, tmp_path):
    wl = WL.WORKLOADS[name]
    inputs = WL.set_up(wl, 1, tmp_path / "in")
    returned = WL.call(wl, inputs, 0, tmp_path / "out")
    outputs = WL.capture(wl, inputs, 0, tmp_path / "out", returned)
    side = (wl.side, wl.side)
    assert outputs.confidence.shape == side
    assert outputs.mask_poisson.shape == side
    assert np.all((outputs.confidence >= 0.0) & (outputs.confidence <= 1.0))
    ep = inputs.episodes[0]
    truth = ep.query_mask.data
    assert WL.overlap(outputs.mask_poisson, truth) >= wl.dsc_floor

    result = run_episode(ep) if wl.via_cli else returned
    rng = np.random.default_rng(0)
    CHECKS.check_knn(result.graph, result.vertex_set.points, ep.config.knn_k, rng, SAMPLE)
    CHECKS.check_calibrated(ep, outputs.confidence, outputs.calibrated, rng, SAMPLE)


def test_wide_channels_knn_every_row(tmp_path):
    # n = 1280 at C = 256: the screen's row blocks and the recompute's survivor
    # chunks both split here, and check_knn above samples only 16 rows
    wl = WL.WORKLOADS["wide-channels"]
    ep = WL.set_up(wl, 1, tmp_path).episodes[0]
    points = run_episode(ep).vertex_set.points
    assert points.shape == (1280, 256)
    neighbors, sq_dists = _knn(points, ep.config.knn_k)
    ref_neighbors, ref_sq_dists = _reference_knn(points, ep.config.knn_k)
    assert neighbors.tobytes() == ref_neighbors.tobytes()
    assert sq_dists.tobytes() == ref_sq_dists.tobytes()


def test_calibrated_head_every_pixel(tmp_path):
    # about 40 % of this map's fused pixels have norm below 1e-12, and their
    # calibrated value must be exactly 0; check_calibrated above samples 16
    wl = WL.WORKLOADS["calibrated-head"]
    inputs = WL.set_up(wl, 1, tmp_path / "in")
    returned = WL.call(wl, inputs, 0, tmp_path / "out")
    outputs = WL.capture(wl, inputs, 0, tmp_path / "out", returned)
    assert outputs.calibrated.shape == (64, 32, 32)
    ep, rng = inputs.episodes[0], np.random.default_rng(0)
    CHECKS.check_calibrated(ep, outputs.confidence, outputs.calibrated, rng, 32 * 32)


def test_episode_directory_matches_library_writer(tmp_path):
    # the CLI workload's inputs must be what the library itself would write
    wl = WL.WORKLOADS["small-episodes"]
    spec = WL.episode_spec(wl, 1, 0)
    ep = synth_episode(spec, WL.episode_config(wl, 1))[0]
    WL._write_manifest(ep, tmp_path / "bench")
    manifest.write_synth_directory(spec, tmp_path / "lib")
    written = sorted(p.name for p in (tmp_path / "bench").iterdir())
    assert {"manifest.json", "query_mask.t"} <= set(written)
    for name in written:
        bench, lib = (tmp_path / "bench" / name), (tmp_path / "lib" / name)
        assert lib.exists(), name
        if name == "manifest.json":
            assert json.loads(bench.read_text()) == json.loads(lib.read_text())
        else:
            assert bench.read_bytes() == lib.read_bytes(), name

"""Every benchmark workload still runs one episode on the library as it is.

``perfbench/workloads.py`` builds its episodes and configs through the
public API and reads result fields and CLI output files back. A library
change that breaks one of those reads would otherwise show only when the
benchmark runs, so this test runs each workload's set-up, timed call and
capture on pool episode 0. It also runs the benchmark's own correctness
checks from ``perfbench/checks.py`` on that episode: the kNN edges and the
calibrated map recomputed from the inputs (within the checks' rtol of
1e-9), so a rounding change in the similarity or calibration shows here
too. As in ``test_benchmark_targets.py``, the perfbench sources are read
and executed here, never imported as modules, so nothing is written next
to them.
"""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

from poissonprop import run_episode

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

"""Every benchmark workload still runs one episode on the library as it is.

``perfbench/workloads.py`` builds its episodes and configs through the
public API and reads result fields and CLI output files back. A library
change that breaks one of those reads would otherwise show only when the
benchmark runs, so this test runs each workload's set-up, timed call and
capture on pool episode 0. As in ``test_benchmark_targets.py``, the
workloads source is read and executed here, never imported as a module,
so nothing is written next to it.
"""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads_module():
    module = types.ModuleType("perfbench_workloads")
    sys.modules[module.__name__] = module  # its dataclasses look the module up
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
    return module


WL = _workloads_module()


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
    truth = inputs.episodes[0].query_mask.data
    assert WL.overlap(outputs.mask_poisson, truth) >= wl.dsc_floor

"""The determinism contract across BLAS thread counts (README, Conventions).

The graph, the scores, the confidence map and the "poisson" mask are
BLAS-free, so ``poissonprop episode`` writes them byte for byte the same
under any thread count. The calibrated map is a chain of BLAS products
and may differ in its last bits. One process cannot change its BLAS
thread count without ``threadpoolctl``, so the two runs are subprocesses.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from _util import head_config, head_spec
from poissonprop import load_tensor, save_tensor
from poissonprop.manifest import write_synth_directory

SRC = Path(__file__).resolve().parents[1] / "src"
# largest seen: 6.2e-16 of the map's largest value over six head_spec seeds
# at 32x32, 4.5e-16 over perfbench's 12 calibrated-head pool episodes
CALIBRATED_REL_BOUND = 1e-14


def _episode_dir(tmp_path: Path) -> Path:
    """head_spec(0) with head_config(0) as a manifest directory. At 16x16
    the calibrated map came out byte-equal under both thread counts on
    four seeds, so the test takes a 32x32 map, where it differs."""
    ep_dir = tmp_path / "ep"
    write_synth_directory(head_spec(0), ep_dir)
    cfg = head_config(0)
    layers = {
        ("sim_weight", "sim_bias"): cfg.sim_params,
        ("h_w1", "h_b1"): cfg.calibration_params.first,
        ("h_w2", "h_b2"): cfg.calibration_params.second,
    }
    manifest = json.loads((ep_dir / "manifest.json").read_text())
    for (weight, bias), layer in layers.items():
        save_tensor(ep_dir / f"{weight}.t", layer.weight)
        save_tensor(ep_dir / f"{bias}.t", layer.bias)
        manifest["config"].update({weight: f"{weight}.t", bias: f"{bias}.t"})
    (ep_dir / "manifest.json").write_text(json.dumps(manifest))
    return ep_dir


def test_episode_outputs_across_blas_thread_counts(tmp_path):
    ep_dir = _episode_dir(tmp_path)
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        out_dir = tmp_path / f"threads_{threads}"
        subprocess.run(
            [sys.executable, "-m", "poissonprop.cli", "episode",
             "--manifest", str(ep_dir / "manifest.json"), "--out-dir", str(out_dir)],
            env=env, check=True, capture_output=True,
        )
        outputs[threads] = out_dir
    one, two = outputs["1"], outputs["2"]
    for name in ("confidence.t", "predicted_mask.t", "diagnostics.json"):
        assert (one / name).read_bytes() == (two / name).read_bytes(), name
    a = load_tensor(one / "calibrated.t").data
    b = load_tensor(two / "calibrated.t").data
    assert a.shape == b.shape == (64, 32, 32)
    assert np.abs(a - b).max() <= CALIBRATED_REL_BOUND * np.abs(a).max()

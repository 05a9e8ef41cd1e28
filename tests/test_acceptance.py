"""Acceptance suite: one test per release criterion, at fixed tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion. Every tolerance is pinned here; none are calibrated at
runtime.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

import poissonprop as pp
from _util import (
    aligned_rect_spec,
    degree_weighted_center,
    random_connected_system,
    solve_direct,
    two_blob_spec,
)
from poissonprop.cli import main
from poissonprop.errors import DisconnectedGraph

N_SYSTEMS = 50


def _report(criterion: str):
    print(f"PASS {criterion}")


@pytest.fixture(scope="module")
def solved_systems():
    """The 50 seeded systems shared by criteria 1 and 2."""
    systems = []
    for seed in range(N_SYSTEMS):
        graph, source = random_connected_system(seed)
        checkpoints = {}

        def record(t, scores, sink=checkpoints):
            if t in (1, 10):
                sink[t] = scores.copy()

        start = time.perf_counter()
        iterative = pp.solve_iterative(graph, source, tol=1e-8, on_iterate=record)
        elapsed = time.perf_counter() - start
        checkpoints["final"] = iterative.scores
        systems.append((graph, source, iterative, checkpoints, elapsed))
    return systems


def test_criterion_1_oracle_equivalence(solved_systems):
    """Iterative and dense-least-squares solutions agree to 1e-6."""
    worst = 0.0
    total_time = 0.0
    for graph, source, iterative, _, elapsed in solved_systems:
        total_time += elapsed
        assert iterative.converged, "iterative solve did not reach tol 1e-8"
        start = time.perf_counter()
        direct = solve_direct(graph, source)
        total_time += time.perf_counter() - start
        a = degree_weighted_center(iterative.scores, graph.degrees)
        b = degree_weighted_center(direct.scores, graph.degrees)
        worst = max(worst, float(np.abs(a - b).max()))
    assert worst < 1e-6, f"max |iterative - direct| = {worst:.3e}"
    assert total_time < 30.0, f"oracle equivalence took {total_time:.1f}s"
    _report(
        f"criterion 1: oracle equivalence over {N_SYSTEMS} graphs "
        f"(max diff {worst:.2e}, {total_time:.1f}s)"
    )


def test_criterion_2_conservation(solved_systems):
    """Degree-weighted column sums vanish at t = 1, 10, and the end."""
    worst = 0.0
    for graph, _, _, checkpoints, _ in solved_systems:
        for t in (1, 10, "final"):
            if t not in checkpoints:  # graphs converging in < 10 steps
                continue
            sums = graph.degrees @ checkpoints[t]
            worst = max(worst, float(np.abs(sums).max()))
    assert worst < 1e-9, f"max |sum_i d_i R_t[i,:]| = {worst:.3e}"
    _report(f"criterion 2: conservation at t in {{1,10,final}} (max {worst:.2e})")


def test_criterion_3_weight_kernel_invariances():
    """Bit symmetry, zero diagonal, scale and isometry invariance."""
    rng = np.random.default_rng(7)
    for trial in range(20):
        dim = int(rng.integers(2, 7))
        n = int(rng.integers(20, 60))
        k_nn = int(rng.integers(3, 9))
        pts = rng.standard_normal((n, dim))
        graph = pp.build_weight_graph(pts, k_nn)
        dense = graph.weights.toarray()
        assert (graph.weights != graph.weights.T).nnz == 0
        assert np.all(graph.weights.diagonal() == 0.0)
        for c in (0.01, 100.0):
            scaled = pp.build_weight_graph(c * pts, k_nn).weights.toarray()
            assert np.abs(scaled - dense).max() < 1e-9
        rotation, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        shift = rng.standard_normal(dim)
        moved = pp.build_weight_graph(pts @ rotation.T + shift, k_nn).weights.toarray()
        assert np.abs(moved - dense).max() < 1e-9
    _report("criterion 3: weight-kernel invariances on 20 point sets")


def test_criterion_4_laplacian_psd():
    """Quadratic form of D - W stays above -1e-9."""
    rng = np.random.default_rng(8)
    for trial in range(20):
        dim = int(rng.integers(2, 7))
        n = int(rng.integers(20, 60))
        pts = rng.standard_normal((n, dim))
        graph = pp.build_weight_graph(pts, int(rng.integers(3, 9)))
        x = rng.standard_normal((n, 100))
        quad = np.einsum("nk,nk->k", x, pp.laplacian_apply(graph, x))
        assert quad.min() >= -1e-9
    _report("criterion 4: Laplacian PSD (100 random vectors per graph)")


def test_criterion_5_synthetic_episode_quality():
    """Two-blob episodes reach DSC >= 0.95 in both prediction modes."""
    start = time.perf_counter()
    worst_p, worst_c = 1.0, 1.0
    for seed in range(10):
        ep, _ = pp.synth_episode(two_blob_spec(seed))
        result = pp.run_episode(ep)
        worst_p = min(worst_p, result.dsc_poisson)
        worst_c = min(worst_c, result.dsc_calibrated)
    elapsed = time.perf_counter() - start
    assert worst_p >= 0.95, f"poisson-mode DSC fell to {worst_p:.4f}"
    assert worst_c >= 0.95, f"calibrated-mode DSC fell to {worst_c:.4f}"
    assert elapsed < 60.0, f"episode suite took {elapsed:.1f}s"
    _report(
        f"criterion 5: synthetic episodes (min DSC poisson {worst_p:.3f}, "
        f"calibrated {worst_c:.3f}, {elapsed:.1f}s)"
    )


def test_criterion_6_scc_structure():
    """Constant fixed point and the orthogonal two-group value."""
    field = np.tile(np.array([1.5, -2.0, 0.25])[:, None, None], (1, 4, 4))
    out = pp.spatial_consistency_calibrate(pp.FeatureMap(field))
    assert np.abs(out.data - field).max() < 1e-12

    data = np.zeros((2, 2, 2))
    data[0, 0, :] = 1.0
    data[1, 1, :] = 1.0
    out = pp.spatial_consistency_calibrate(pp.FeatureMap(data))
    expected = np.zeros((2, 2, 2))
    expected[0, 0, :] = 0.5
    expected[1, 1, :] = 0.5
    assert np.abs(out.data - expected).max() < 1e-12
    _report("criterion 6: calibration fixed point and two-group halving")


def test_criterion_7_metric_sanity():
    """Metric examples exact; the score is 2|A∩B| / (|A|+|B|), symmetric and in [0, 1]."""
    full = np.ones((3, 3))
    assert pp.dsc(full, full) == 1.0
    assert pp.dsc(np.eye(2), 1.0 - np.eye(2)) == 0.0
    a = np.array([[1.0, 1.0], [0.0, 0.0]])
    b = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert pp.dsc(a, b) == 0.5
    assert pp.dsc(np.zeros((3, 3)), np.zeros((3, 3))) == 1.0
    rng = np.random.default_rng(9)
    for _ in range(100):
        x = (rng.uniform(0, 1, (8, 8)) > rng.uniform(0.2, 0.8)).astype(float)
        y = (rng.uniform(0, 1, (8, 8)) > rng.uniform(0.2, 0.8)).astype(float)
        score = pp.dsc(x, y)
        assert score == pp.dsc(y, x) and 0.0 <= score <= 1.0
        if x.sum() + y.sum():
            assert abs(score - 2.0 * (x * y).sum() / (x.sum() + y.sum())) < 1e-15
    _report("criterion 7: metric sanity (100 random mask pairs)")


def test_criterion_8_cli_determinism(tmp_path):
    """episode outputs are byte-identical across repeated runs."""
    spec = {
        "channels": 8, "height": 16, "width": 16,
        "fg_mean": (6.0 * np.ones(8) / np.sqrt(8)).tolist(),
        "bg_mean": (-4.0 * np.ones(8) / np.sqrt(8)).tolist(),
        "noise_scale": 1.0, "shape": "disk", "center": [7.75, 8.45],
        "size": 7.0, "seed": 3, "n_auxiliary": 3,
    }
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    synth_dir = tmp_path / "ep"
    assert main(["synth", "--spec", str(spec_file), "--out-dir", str(synth_dir)]) == 0

    outputs = []
    for _ in range(4):
        out_dir = tmp_path / f"run_{len(outputs)}"
        code = main([
            "episode", "--manifest", str(synth_dir / "manifest.json"),
            "--out-dir", str(out_dir),
        ])
        assert code == 0
        outputs.append({f.name: f.read_bytes() for f in sorted(out_dir.iterdir())})
    reference = outputs[0]
    assert set(reference) == {
        "confidence.t", "calibrated.t", "predicted_mask.t", "diagnostics.json"
    }
    for other in outputs[1:]:
        assert other == reference
    _report("criterion 8: byte-identical episode outputs across 4 runs")


def test_criterion_9_degenerate_handling():
    """Single-label warning, the empty support's one-class answer, DisconnectedGraph."""
    # mild separation keeps the graph connected with only two prototypes
    ep, _ = pp.synth_episode(
        two_blob_spec(9, n_auxiliary=1, separation=1.0),
        config=pp.EpisodeConfig(window=(16, 16)),
    )
    with pytest.warns(UserWarning):
        result = pp.run_episode(ep)
    assert result.vertex_set.n_s == 1
    assert np.all(result.propagation.scores == 0.0)

    ep, _ = pp.synth_episode(two_blob_spec(10))
    ep = dataclasses.replace(ep, support=(ep.support[0], pp.SoftMask(np.zeros((16, 16)))))
    with pytest.warns(UserWarning, match="share one class"):
        result = pp.run_episode(ep)
    assert not result.mask_poisson.any()
    assert not result.global_prototype.any() and not result.calibrated.data.any()

    split = pp.from_triplets([[0, 1, 1.0], [2, 3, 1.0]])
    source = pp.build_source(np.eye(2), 4)
    with pytest.raises(DisconnectedGraph):
        pp.solve_iterative(split, source)
    # the test oracle shares the library's system check
    with pytest.raises(DisconnectedGraph):
        solve_direct(split, source)
    _report("criterion 9: degenerate inputs surface as warnings/errors")

import json

import numpy as np
import pytest

import poissonprop as pp
from _util import two_blob_spec
from poissonprop import load_tensor, save_tensor
from poissonprop.cli import _build_parser, main
from poissonprop.errors import ManifestError
from poissonprop.manifest import load_episode_manifest, load_synth_spec
from poissonprop.tensorfile import DTYPE_F32, DTYPE_F64, DTYPE_U8, MAGIC

SPEC_DOC = {
    "channels": 8,
    "height": 16,
    "width": 16,
    "fg_mean": (6.0 * np.ones(8) / np.sqrt(8)).tolist(),
    "bg_mean": (-4.0 * np.ones(8) / np.sqrt(8)).tolist(),
    "noise_scale": 1.0,
    "shape": "disk",
    "center": [7.75, 8.45],
    "size": 7.0,
    "seed": 0,
    "n_auxiliary": 3,
}


def write_spec(tmp_path, **overrides):
    doc = {**SPEC_DOC, **overrides}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return path


class TestGraphPropagate:
    def test_round_trip_matches_api(self, tmp_path):
        rng = np.random.default_rng(80)
        pts = rng.standard_normal((30, 4))
        feat = tmp_path / "feat.t"
        out = tmp_path / "graph.t"
        save_tensor(feat, pts)
        assert main(["graph", "--features", str(feat), "--k", "5", "--out", str(out)]) == 0
        loaded = pp.from_triplets(load_tensor(out).data)
        direct = pp.build_weight_graph(pts, 5)
        assert (loaded.weights != direct.weights).nnz == 0

    def test_propagate_solution(self, tmp_path, capsys):
        rng = np.random.default_rng(81)
        pts = rng.standard_normal((40, 5))
        graph = pp.build_weight_graph(pts, 6)
        gfile = tmp_path / "g.t"
        save_tensor(gfile, pp.to_triplets(graph))
        labels = np.zeros((6, 2))
        labels[:3, 0] = 1.0
        labels[3:, 1] = 1.0
        lfile = tmp_path / "l.t"
        save_tensor(lfile, labels)
        rfile = tmp_path / "r.t"
        code = main([
            "propagate", "--graph", str(gfile), "--labels", str(lfile),
            "--tol", "1e-8",
            "--out", str(rfile),
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "iterations:" in captured and "final_step:" in captured
        expected = pp.solve_iterative(graph, pp.build_source(labels, 40), tol=1e-8)
        assert np.array_equal(load_tensor(rfile).data, expected.scores)
        assert f"residual_inf: {expected.residual_inf!r}" in captured

    @pytest.mark.parametrize("index", [1e10, 2.0**63, 1e300])
    def test_propagate_out_of_range_index_error(self, tmp_path, capsys, index):
        # the CSR is sized by the largest index: unchecked, 1e10 would ask for 74.5 GiB
        gfile = tmp_path / "g.t"
        save_tensor(gfile, np.array([[0, 1, 1.0], [1, index, 1.0]]))
        lfile = tmp_path / "l.t"
        save_tensor(lfile, np.eye(2))
        code = main([
            "propagate", "--graph", str(gfile), "--labels", str(lfile),
            "--out", str(tmp_path / "r.t"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: edge index ") and " out of range" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "r.t").exists()

    def test_propagate_disconnected_error(self, tmp_path, capsys):
        gfile = tmp_path / "g.t"
        save_tensor(gfile, np.array([[0, 1, 1.0], [2, 3, 1.0]]))
        lfile = tmp_path / "l.t"
        save_tensor(lfile, np.eye(2))
        code = main([
            "propagate", "--graph", str(gfile), "--labels", str(lfile),
            "--out", str(tmp_path / "r.t"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DisconnectedGraph:")

    def test_propagate_names_zero_degree_vertex(self, tmp_path, capsys):
        gfile = tmp_path / "g.t"
        save_tensor(gfile, np.array([[0, 1, 1.0], [1, 3, 1.0]]))
        lfile = tmp_path / "l.t"
        save_tensor(lfile, np.eye(2))
        code = main([
            "propagate", "--graph", str(gfile), "--labels", str(lfile),
            "--out", str(tmp_path / "r.t"),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: ValueError: every vertex must have positive degree; "
            "zero degree at index 2 (1 of 4 vertices)\n"
        )

    def test_defaults_are_episode_config_defaults(self):
        parser = _build_parser()
        graph = parser.parse_args(["graph", "--features", "f.t", "--out", "g.t"])
        propagate = parser.parse_args(
            ["propagate", "--graph", "g.t", "--labels", "l.t", "--out", "r.t"]
        )
        config = pp.EpisodeConfig()
        assert (graph.k, propagate.tol) == (config.knn_k, config.tol)

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_propagate_rejects_non_finite_tol(self, tmp_path, capsys, tol):
        gfile = tmp_path / "g.t"
        save_tensor(gfile, np.array([[0, 1, 1.0]]))
        lfile = tmp_path / "l.t"
        save_tensor(lfile, np.eye(2))
        code = main([
            "propagate", "--graph", str(gfile), "--labels", str(lfile),
            "--tol", tol, "--out", str(tmp_path / "r.t"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: tol must be positive and finite")
        assert not (tmp_path / "r.t").exists()

    def test_graph_rejects_bad_rank(self, tmp_path, capsys):
        feat = tmp_path / "feat.t"
        save_tensor(feat, np.zeros((2, 2, 2)))
        code = main(["graph", "--features", str(feat), "--out", str(tmp_path / "g.t")])
        assert code == 1
        assert "error: ValueError:" in capsys.readouterr().err


class TestDice:
    def test_identical_masks_print_one(self, tmp_path, capsys):
        mask = np.ones((4, 4))
        a = tmp_path / "a.t"
        b = tmp_path / "b.t"
        save_tensor(a, mask, DTYPE_U8)
        save_tensor(b, mask, DTYPE_U8)
        assert main(["dice", "--pred", str(a), "--gt", str(b)]) == 0
        out = capsys.readouterr().out
        assert "DSC: 1.0" in out
        assert "score convention" in out

    def test_missing_file_errors(self, tmp_path, capsys):
        code = main(["dice", "--pred", str(tmp_path / "x.t"), "--gt", str(tmp_path / "y.t")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestNonFinitePayload:
    """A NaN or Inf payload names its file, as every other load error does."""

    def test_episode_names_nan_auxiliary_file(self, tmp_path, capsys):
        synth_dir = tmp_path / "ep"
        spec = write_spec(tmp_path)
        assert main(["synth", "--spec", str(spec), "--out-dir", str(synth_dir)]) == 0
        bad = synth_dir / "aux_001.t"
        data = load_tensor(bad).data
        data[0, 3, 5] = np.nan
        dims = b"".join(d.to_bytes(4, "little") for d in data.shape)
        bad.write_bytes(MAGIC + bytes([DTYPE_F64, data.ndim]) + dims + data.tobytes())
        capsys.readouterr()
        code = main(["episode", "--manifest", str(synth_dir / "manifest.json"),
                     "--out-dir", str(tmp_path / "run")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: ValueError: {bad}: tensor data contains NaN or Inf\n"
        )

    def test_dice_names_inf_float32_file(self, tmp_path, capsys):
        gt = tmp_path / "gt.t"
        save_tensor(gt, np.ones((2, 2)), DTYPE_U8)
        pred = tmp_path / "pred.t"
        payload = np.array([[1.0, np.inf], [0.0, 1.0]], dtype="<f4").tobytes()
        dims = (2).to_bytes(4, "little") * 2
        pred.write_bytes(MAGIC + bytes([DTYPE_F32, 2]) + dims + payload)
        assert main(["dice", "--pred", str(pred), "--gt", str(gt)]) == 1
        assert capsys.readouterr().err == (
            f"error: ValueError: {pred}: tensor data contains NaN or Inf\n"
        )


class TestSynthAndEpisode:
    def test_synth_writes_runnable_episode(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        synth_dir = tmp_path / "ep"
        assert main(["synth", "--spec", str(spec), "--out-dir", str(synth_dir)]) == 0
        for name in ("support_features.t", "support_mask.t", "query_features.t",
                     "query_mask.t", "manifest.json", "spec.json", "aux_000.t"):
            assert (synth_dir / name).exists()

        out_dir = tmp_path / "run"
        code = main([
            "episode", "--manifest", str(synth_dir / "manifest.json"),
            "--out-dir", str(out_dir),
        ])
        assert code == 0
        diag = json.loads((out_dir / "diagnostics.json").read_text())
        assert diag["dsc"] >= 0.95
        assert diag["n_query"] == 256
        assert 0.0 <= diag["residual_inf"] < 1.0
        mask = load_tensor(out_dir / "predicted_mask.t").data
        assert set(np.unique(mask)) <= {0.0, 1.0}
        conf = load_tensor(out_dir / "confidence.t").data
        assert conf.shape == (16, 16)

    def test_synth_deterministic(self, tmp_path):
        spec = write_spec(tmp_path)
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        main(["synth", "--spec", str(spec), "--out-dir", str(d1)])
        main(["synth", "--spec", str(spec), "--out-dir", str(d2)])
        for f in sorted(d1.iterdir()):
            assert f.read_bytes() == (d2 / f.name).read_bytes()

    def test_episode_matches_api(self, tmp_path):
        spec_doc = write_spec(tmp_path, seed=4)
        synth_dir = tmp_path / "ep"
        main(["synth", "--spec", str(spec_doc), "--out-dir", str(synth_dir)])
        out_dir = tmp_path / "run"
        main(["episode", "--manifest", str(synth_dir / "manifest.json"), "--out-dir", str(out_dir)])
        ep, _ = pp.synth_episode(two_blob_spec(4))
        res = pp.run_episode(ep)
        assert np.array_equal(load_tensor(out_dir / "confidence.t").data, res.confidence.values)
        assert np.array_equal(load_tensor(out_dir / "predicted_mask.t").data, res.mask_poisson)

    def test_synth_directory_loads_back_exactly(self, tmp_path):
        spec_path = write_spec(tmp_path, seed=5)
        main(["synth", "--spec", str(spec_path), "--out-dir", str(tmp_path / "ep")])
        back = load_episode_manifest(tmp_path / "ep" / "manifest.json")
        ep, truth = pp.synth_episode(load_synth_spec(spec_path))
        assert len(back.auxiliary) == len(ep.auxiliary) == 3
        pairs = [
            (back.support[0], ep.support[0]),
            (back.support[1], ep.support[1]),
            *zip(back.auxiliary, ep.auxiliary),
            (back.query, ep.query),
            (back.query_mask, truth),
        ]
        for loaded, made in pairs:
            assert np.array_equal(loaded.data, made.data)


GOLDEN_SPEC_JSON = """{
  "bg_mean": [
    0.0,
    0.0
  ],
  "center": [
    7,
    8
  ],
  "channels": 2,
  "fg_mean": [
    1.5,
    -0.25
  ],
  "height": 16,
  "n_auxiliary": 1,
  "noise_scale": 1.0,
  "seed": 0,
  "shape": "rect",
  "size": [
    8,
    6
  ],
  "width": 16
}
"""

GOLDEN_MANIFEST_JSON = """{
  "auxiliary_features": [
    "aux_000.t"
  ],
  "config": {},
  "query_features": "query_features.t",
  "query_mask": "query_mask.t",
  "support_features": "support_features.t",
  "support_mask": "support_mask.t"
}
"""


class TestSynthSpec:
    def test_echo_and_manifest_bytes(self, tmp_path):
        spec = write_spec(
            tmp_path, channels=2, fg_mean=[1.5, -0.25], bg_mean=[0, 0],
            shape="rect", size=[8, 6], center=[7, 8], n_auxiliary=1,
        )
        assert main(["synth", "--spec", str(spec), "--out-dir", str(tmp_path / "ep")]) == 0
        assert (tmp_path / "ep" / "spec.json").read_text() == GOLDEN_SPEC_JSON
        assert (tmp_path / "ep" / "manifest.json").read_text() == GOLDEN_MANIFEST_JSON

    def test_first_missing_key_in_field_order(self, tmp_path):
        doc = {k: v for k, v in SPEC_DOC.items() if k not in ("seed", "height")}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="^height: required key missing"):
            load_synth_spec(path)

    def test_unknown_key_named(self, tmp_path):
        with pytest.raises(ManifestError, match="^colour: unknown synth key"):
            load_synth_spec(write_spec(tmp_path, colour="red"))

    @pytest.mark.parametrize("center", [[1.0, 2.0, 3.0], "7,8", [7.0, "8"]])
    def test_bad_center_rejected(self, tmp_path, center):
        with pytest.raises(ManifestError, match="^center: "):
            load_synth_spec(write_spec(tmp_path, center=center))

    def test_list_size_becomes_tuple(self, tmp_path):
        spec = load_synth_spec(write_spec(tmp_path, shape="rect", size=[8, 6]))
        assert spec.size == (8, 6) and isinstance(spec.size, tuple)
        assert spec.center == (7.75, 8.45)

    @pytest.mark.parametrize("shape, size", [("rect", 3.0), ("disk", [3, 3])])
    def test_size_must_fit_shape(self, tmp_path, capsys, shape, size):
        path = write_spec(tmp_path, shape=shape, size=size)
        assert main(["synth", "--spec", str(path), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ManifestError: ") and f"size: a {shape} needs" in err
        assert err.count("\n") == 1 and "Traceback" not in err


class TestManifestErrors:
    @pytest.mark.parametrize(
        "command, key, values",
        [
            ("episode", "knn_k", {"knn_k": "ten"}),
            ("episode", "knn_k", {"knn_k": True}),
            ("episode", "knn_k", {"knn_k": 10.0}),
            ("episode", "tol", {"tol": "1e-6"}),
            ("episode", "prediction_mode", {"prediction_mode": 1}),
            ("episode", "sim_weight", {"sim_weight": 5}),
            ("episode", "h_w1", {"h_w1": ["w.t"], "h_w2": "w2.t"}),
            ("synth", "seed", {"seed": "x"}),
            ("synth", "height", {"height": 16.5}),
            ("synth", "noise_scale", {"noise_scale": "1"}),
        ],
    )
    def test_wrong_type_named(self, tmp_path, capsys, command, key, values):
        if command == "synth":
            path = write_spec(tmp_path, **values)
            argv = ["synth", "--spec", str(path)]
        else:
            path = tmp_path / "m.json"
            path.write_text(json.dumps({
                "support_features": "s.t",
                "support_mask": "m.t",
                "query_features": "q.t",
                "config": values,
            }))
            argv = ["episode", "--manifest", str(path)]
        assert main([*argv, "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ManifestError: {key}: expected ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "config, stage",
        [
            ({"window": [3, 3]}, "support-pooling"),
            ({"tol": 0.0}, "propagation"),
            ({"knn_k": 0}, "graph-build"),
            ({"tol": float("inf")}, "propagation"),
        ],
    )
    def test_stage_failure_named(self, tmp_path, capsys, config, stage):
        synth_dir = tmp_path / "ep"
        assert main(["synth", "--spec", str(write_spec(tmp_path)), "--out-dir", str(synth_dir)]) == 0
        manifest = synth_dir / "manifest.json"
        doc = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**doc, "config": config}))
        capsys.readouterr()
        assert main(["episode", "--manifest", str(manifest), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ValueError: stage {stage}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_missing_key_named(self, tmp_path, capsys):
        man = tmp_path / "m.json"
        man.write_text(json.dumps({"support_mask": "x.t"}))
        code = main(["episode", "--manifest", str(man), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ManifestError:")
        assert "support_features" in err

    def test_unknown_config_key_named(self, tmp_path, capsys):
        man = tmp_path / "m.json"
        man.write_text(
            json.dumps(
                {
                    "support_features": "s.t",
                    "support_mask": "m.t",
                    "query_features": "q.t",
                    "config": {"windows": [4, 4]},
                }
            )
        )
        code = main(["episode", "--manifest", str(man), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert "windows" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["label_threshold", "prediction_threshold", "t_max"])
    def test_threshold_keys_unknown(self, tmp_path, capsys, key):
        # >= 0.5 is foreground by construction, and the solve's iteration cap
        # is the vertex count; neither has a knob
        man = tmp_path / "m.json"
        man.write_text(json.dumps({
            "support_features": "s.t",
            "support_mask": "m.t",
            "query_features": "q.t",
            "config": {key: 0.5},
        }))
        assert main(["episode", "--manifest", str(man), "--out-dir", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: ManifestError: {key}: unknown config key\n"

    def test_bad_json_reported(self, tmp_path, capsys):
        man = tmp_path / "m.json"
        man.write_text("{not json")
        code = main(["episode", "--manifest", str(man), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert "error: ManifestError:" in capsys.readouterr().err


class TestParamLoading:
    def test_similarity_params_via_manifest(self, tmp_path):
        spec = write_spec(tmp_path, seed=5)
        synth_dir = tmp_path / "ep"
        main(["synth", "--spec", str(spec), "--out-dir", str(synth_dir)])
        # identity-on-query weights: similarity map equals the query features
        weight = np.concatenate([np.eye(8), np.zeros((8, 8))], axis=1)
        save_tensor(synth_dir / "w.t", weight)
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        manifest["config"] = {"sim_weight": "w.t"}
        (synth_dir / "manifest.json").write_text(json.dumps(manifest))
        out_dir = tmp_path / "run"
        assert main([
            "episode", "--manifest", str(synth_dir / "manifest.json"),
            "--out-dir", str(out_dir),
        ]) == 0
        ep, _ = pp.synth_episode(two_blob_spec(5))
        calibrated = load_tensor(out_dir / "calibrated.t").data
        assert calibrated.shape == (8, 16, 16)

    def test_calibration_params_require_both_layers(self, tmp_path, capsys):
        spec = write_spec(tmp_path, seed=6)
        synth_dir = tmp_path / "ep"
        main(["synth", "--spec", str(spec), "--out-dir", str(synth_dir)])
        save_tensor(synth_dir / "w1.t", np.eye(1))
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        manifest["config"] = {"h_w1": "w1.t"}
        (synth_dir / "manifest.json").write_text(json.dumps(manifest))
        code = main([
            "episode", "--manifest", str(synth_dir / "manifest.json"),
            "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "h_w1" in capsys.readouterr().err

    def test_orphan_bias_key_rejected(self, tmp_path, capsys):
        spec = write_spec(tmp_path, seed=6)
        synth_dir = tmp_path / "ep2"
        main(["synth", "--spec", str(spec), "--out-dir", str(synth_dir)])
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        manifest["config"] = {"h_b1": "b1.t"}
        (synth_dir / "manifest.json").write_text(json.dumps(manifest))
        code = main([
            "episode", "--manifest", str(synth_dir / "manifest.json"),
            "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "h_b1" in capsys.readouterr().err

    def test_full_calibration_mlp_via_manifest(self, tmp_path):
        spec = write_spec(tmp_path, seed=7)
        synth_dir = tmp_path / "ep3"
        main(["synth", "--spec", str(spec), "--out-dir", str(synth_dir)])
        # scale-by-two MLP on the single similarity channel
        save_tensor(synth_dir / "w1.t", 2.0 * np.eye(1))
        save_tensor(synth_dir / "w2.t", np.eye(1))
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        manifest["config"] = {"h_w1": "w1.t", "h_w2": "w2.t"}
        (synth_dir / "manifest.json").write_text(json.dumps(manifest))
        out_dir = tmp_path / "run3"
        assert main([
            "episode", "--manifest", str(synth_dir / "manifest.json"),
            "--out-dir", str(out_dir),
        ]) == 0
        ep, _ = pp.synth_episode(two_blob_spec(7))
        base = pp.run_episode(ep)
        scaled = load_tensor(out_dir / "calibrated.t").data
        # ReLU(2v) then identity: doubles the nonnegative contributions
        assert scaled.shape == base.calibrated.data.shape

import dataclasses
import functools
import re
import typing

import numpy as np
import pytest

import poissonprop as pp
from _util import UNIT8, aligned_rect_spec, head_config, head_spec, two_blob_spec
from poissonprop import Episode, EpisodeConfig, predict_mask, run_episode, to_triplets
from poissonprop.episode import _query_mask
from poissonprop.errors import DisconnectedGraph
from poissonprop.tensor import FeatureMap, SoftMask

_FMAP, _MASK = FeatureMap(np.zeros((2, 4, 4))), SoftMask(np.zeros((4, 4)))


@functools.cache
def _same_sign_results():
    """Six episodes whose class means lie on the same side of the origin."""
    results = []
    for size in (4.0, 6.0):
        for seed in range(3):
            spec = dataclasses.replace(
                two_blob_spec(seed), size=size, fg_mean=8 * UNIT8, bg_mean=3 * UNIT8
            )
            results.append(run_episode(pp.synth_episode(spec)[0]))
    return tuple(results)


class TestPredictMask:
    def test_boundary_is_foreground(self):
        mask = predict_mask(np.full((2, 2), 0.5))
        assert np.array_equal(mask, np.ones((2, 2), dtype=np.uint8))

    def test_zero_confidence_all_background(self):
        assert np.all(predict_mask(np.zeros((2, 2))) == 0)

    def test_calibrated_mode_uses_channel_mean(self):
        ep, _ = pp.synth_episode(two_blob_spec(3))
        res = run_episode(ep)
        calibrated = (res.calibrated.data.mean(axis=0) >= 0.5).astype(np.uint8)
        assert np.array_equal(res.mask_calibrated, calibrated)


def _scores(u_fg):
    """(n, 2) scores whose last len(u_fg) rows are the query block, with
    background -u_fg; the three rows before it must not affect the mask."""
    u = np.concatenate([np.full(3, 50.0), u_fg])
    return np.stack([-u, u], axis=1)


class TestQueryMask:
    def test_isodata_moves_past_the_sign(self):
        # from 0 the split is {0.2 x3, 3 x3} against {-1 x2}, the midpoint of their
        # means is 0.3, then {3 x3} against the rest gives 1.36, where it stays
        u_fg = np.array([-1.0, -1.0, 0.2, 0.2, 0.2, 3.0, 3.0, 3.0])
        mask = _query_mask(np.array([0, 1]), _scores(u_fg), 2, 4)
        assert np.array_equal(mask, [[0, 0, 0, 0], [0, 1, 1, 1]])
        assert mask.dtype == np.uint8

    def test_threshold_is_the_midpoint_of_its_split(self):
        u_fg = np.random.default_rng(0).standard_normal(64) ** 3
        fg = _query_mask(np.array([1, 0]), _scores(u_fg), 8, 8).ravel().astype(bool)
        midpoint = (u_fg[fg].mean() + u_fg[~fg].mean()) / 2
        assert np.array_equal(fg, u_fg >= midpoint)

    def test_one_side_keeps_the_sign(self):
        u_fg = np.array([0.0, 1.0, 2.0, 3.0])
        assert np.all(_query_mask(np.array([0, 1]), _scores(u_fg), 2, 2) == 1)
        assert np.all(_query_mask(np.array([0, 1]), _scores(u_fg - 4.0), 2, 2) == 0)

    @pytest.mark.parametrize("label", [0, 1])
    def test_one_class_support_predicts_its_class(self, label):
        u_fg = np.array([-1.0, 1.0, -2.0, 2.0])
        mask = _query_mask(np.full(5, label), _scores(u_fg), 2, 2)
        assert np.array_equal(mask, np.full((2, 2), label, dtype=np.uint8))


class TestEpisodeValidation:
    def test_shape_agreement_enforced(self):
        sup = FeatureMap(np.zeros((2, 4, 4)))
        mask = SoftMask(np.zeros((4, 4)))
        with pytest.raises(ValueError, match="query"):
            Episode(support=(sup, mask), auxiliary=(), query=FeatureMap(np.zeros((2, 4, 8))))
        with pytest.raises(ValueError, match="auxiliary"):
            Episode(
                support=(sup, mask),
                auxiliary=(FeatureMap(np.zeros((3, 4, 4))),),
                query=FeatureMap(np.zeros((2, 4, 4))),
            )
        with pytest.raises(ValueError, match="mask"):
            Episode(
                support=(sup, SoftMask(np.zeros((2, 2)))),
                auxiliary=(),
                query=FeatureMap(np.zeros((2, 4, 4))),
            )

    @pytest.mark.parametrize("part, value, message", [
        ("auxiliary", (_FMAP, FeatureMap(np.zeros((2, 4, 8)))),
         "auxiliary map 1 shape (2, 4, 8) != support (2, 4, 4)"),
        ("query", FeatureMap(np.zeros((3, 4, 4))), "query shape (3, 4, 4) != support (2, 4, 4)"),
        ("support", (_FMAP, SoftMask(np.zeros((2, 2)))),
         "support mask (2, 2) != spatial dims (4, 4)"),
        ("query_mask", SoftMask(np.zeros((4, 5))), "query mask (4, 5) != spatial dims (4, 4)"),
    ], ids=["auxiliary", "query", "support-mask", "query-mask"])
    def test_mismatch_message_names_part(self, part, value, message):
        parts = {"support": (_FMAP, _MASK), "auxiliary": (_FMAP, _FMAP), "query": _FMAP,
                 "query_mask": _MASK}
        with pytest.raises(ValueError) as err:
            Episode(**{**parts, part: value})
        assert str(err.value) == message

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EpisodeConfig(prediction_mode="argmax")


_WRONG = {int: 2.5, float: "1e-6", str: 1}
_SCALAR_FIELDS = [
    (cls, name, kind)
    for cls in (EpisodeConfig, pp.SynthSpec)
    for name, kind in typing.get_type_hints(cls).items()
    if kind in _WRONG
]


@pytest.mark.parametrize(
    "cls, name, kind", _SCALAR_FIELDS, ids=[f"{c.__name__}.{n}" for c, n, _ in _SCALAR_FIELDS]
)
def test_scalar_field_types(cls, name, kind):
    """A bool or another type is rejected for every int, float or str field,
    naming it; numpy integers and floats are accepted."""
    base = EpisodeConfig() if cls is EpisodeConfig else two_blob_spec(0)
    for value in (True, _WRONG[kind]):
        message = f"{name}: expected {kind.__name__}, got {value!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(base, **{name: value})
    if kind is not str:
        numpy_value = (np.int64 if kind is int else np.float32)(getattr(base, name))
        assert getattr(dataclasses.replace(base, **{name: numpy_value}), name) == numpy_value


@pytest.mark.parametrize("window", [[4, 4], (4,), (4, 4, 4), (4.0, 4.0), (True, 4), "4x4"])
def test_config_window_is_two_integers(window):
    message = f"window: expected two integers (h, w), got {window!r}"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        EpisodeConfig(window=window)
    assert EpisodeConfig(window=(np.int64(2), 8)).window == (2, 8)


_LAYER = pp.LinearParams(np.eye(16), np.zeros(16))


@pytest.mark.parametrize("name, value, kind", [
    ("sim_params", np.eye(16), "LinearParams"),
    ("sim_params", pp.TwoLayerParams(_LAYER, _LAYER), "LinearParams"),
    ("calibration_params", _LAYER, "TwoLayerParams"),
], ids=["sim-array", "sim-two-layer", "calibration-one-layer"])
def test_config_params_types(name, value, kind):
    # each used to fail later, in an error naming no stage, or (a one-layer
    # calibration head) to run without its rectified second layer
    message = f"{name}: expected {kind}, got {value!r}"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        EpisodeConfig(**{name: value})


class TestRunEpisode:
    def test_two_blob_quality(self):
        ep, truth = pp.synth_episode(two_blob_spec(0))
        res = run_episode(ep)
        accuracy = (res.mask_poisson == truth.data).mean()
        assert accuracy >= 0.95
        assert res.dsc_poisson >= 0.95
        assert res.dsc_calibrated >= 0.95

    def test_determinism_across_runs(self):
        ep, _ = pp.synth_episode(two_blob_spec(1))
        a = run_episode(ep)
        b = run_episode(ep)
        assert np.array_equal(a.confidence.values, b.confidence.values)
        assert np.array_equal(a.calibrated.data, b.calibrated.data)
        assert np.array_equal(a.mask_poisson, b.mask_poisson)
        assert np.array_equal(a.propagation.scores, b.propagation.scores)
        assert np.array_equal(a.graph.weights.toarray(), b.graph.weights.toarray())

    def test_stage_composability(self):
        ep, _ = pp.synth_episode(two_blob_spec(3))
        res = run_episode(ep)
        cfg = ep.config
        sup_map, sup_mask = ep.support

        protos = pp.local_prototype_pool(sup_map, cfg.window)
        grid = pp.downsample_mask(sup_mask, cfg.window)
        labels = pp.assign_prototype_labels(grid)
        aux = [pp.local_prototype_pool(amap, cfg.window) for amap in ep.auxiliary]
        points = np.concatenate([protos, *aux, ep.query.data.reshape(ep.query.channels, -1).T])
        graph = pp.build_weight_graph(points, cfg.knn_k)
        one_hot = np.zeros((len(protos), 2))
        one_hot[np.arange(len(protos)), labels] = 1.0
        source = pp.build_source(one_hot, graph.n)
        prop = pp.solve_iterative(graph, source, cfg.tol)
        conf = pp.extract_confidence_map(prop, 16, 16)
        proto_vec = pp.masked_average_pool(sup_map, sup_mask)
        sim = pp.similarity_map(ep.query, proto_vec, cfg.sim_params)
        fused = pp.fuse_confidence(sim, conf)
        calibrated = pp.spatial_consistency_calibrate(fused, cfg.calibration_params)

        assert np.array_equal(res.support_prototypes, protos)
        assert np.array_equal(res.vertex_set.labels, labels)
        assert np.array_equal(res.global_prototype, proto_vec)
        assert np.array_equal(to_triplets(res.graph), to_triplets(graph))
        assert np.array_equal(res.propagation.scores, prop.scores)
        assert np.array_equal(res.confidence.values, conf.values)
        assert np.array_equal(res.similarity.data, sim.data)
        assert np.array_equal(res.calibrated.data, calibrated.data)

    def test_empty_auxiliary_runs(self):
        ep, truth = pp.synth_episode(two_blob_spec(4, n_auxiliary=0))
        assert len(ep.auxiliary) == 0
        res = run_episode(ep)
        assert res.vertex_set.n_a == 0
        assert res.vertex_set.n == res.vertex_set.n_s + 256
        assert res.dsc_poisson >= 0.95

    def test_result_ignores_discarded_auxiliary(self):
        ep_a, _ = pp.synth_episode(two_blob_spec(5, n_auxiliary=0))
        ep_b, _ = pp.synth_episode(two_blob_spec(5, n_auxiliary=0))
        other, _ = pp.synth_episode(two_blob_spec(6, n_auxiliary=3))
        ep_b = dataclasses.replace(ep_b, auxiliary=())
        res_a = run_episode(ep_a)
        res_b = run_episode(ep_b)
        assert np.array_equal(res_a.confidence.values, res_b.confidence.values)
        assert np.array_equal(res_a.mask_poisson, res_b.mask_poisson)

    def test_self_segmentation_iou(self):
        ep, truth = pp.synth_episode(aligned_rect_spec(0))
        ep = dataclasses.replace(ep, query=ep.support[0], query_mask=truth)
        res = run_episode(ep)
        grid = res.grid_mask.data >= 0.5
        footprint = np.kron(grid, np.ones((4, 4), dtype=bool))
        region = res.confidence.values >= 0.5
        iou = (region & footprint).sum() / (region | footprint).sum()
        assert iou >= 0.9

    def test_intermediates_exposed(self):
        ep, _ = pp.synth_episode(two_blob_spec(7))
        res = run_episode(ep)
        assert res.support_prototypes.shape == (16, 8)
        assert res.auxiliary_prototypes.shape == (48, 8)
        assert res.global_prototype.shape == (8,)
        assert res.vertex_set.labels.shape == (16,)
        assert res.vertex_set.n == 16 + 48 + 256
        assert res.similarity.data.shape == (1, 16, 16)
        assert res.fused.data.shape == (1, 16, 16)
        assert set(np.unique(res.predicted_mask)) <= {0, 1}

    def test_exact_half_window_is_foreground(self):
        # the top-left 2x6 window holds 6 of its 12 pixels: the grid value is
        # exactly 0.5, which the inclusive label threshold makes foreground
        rng = np.random.default_rng(70)
        mask = np.zeros((8, 12))
        mask[0, :6] = 1.0
        mask[6:, 6:] = 1.0
        sup, query = (FeatureMap(rng.standard_normal((4, 8, 12))) for _ in range(2))
        ep = Episode(
            support=(sup, SoftMask(mask)),
            auxiliary=(),
            query=query,
            config=EpisodeConfig(window=(2, 6)),
        )
        res = run_episode(ep)
        assert res.grid_mask.data[0, 0] == 0.5
        assert res.vertex_set.labels[0] == 1

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="calibrated mode with the default cosine channel: a calibrated "
        "pixel is (1/N) * sum of the same-sign fused values, so the mask is "
        "empty unless the foreground covers more than about half the image",
    )
    def test_calibrated_mode_small_foreground(self):
        spec = dataclasses.replace(two_blob_spec(0), size=4.0)  # 20 % foreground
        ep, _ = pp.synth_episode(spec)
        res = run_episode(ep)
        assert res.dsc_poisson == 1.0
        assert res.mask_calibrated.any()
        assert res.dsc_calibrated >= 0.9

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="calibrated mode with the default cosine channel is a test on the "
        "cosine's sign: with both class means on the same side of the origin every "
        "pixel shares one sign, and the calibrated mask is empty (dsc 0.000 on all six)",
    )
    def test_calibrated_mode_same_sign_classes(self):
        scores = [res.dsc_calibrated for res in _same_sign_results()]
        assert min(scores) >= 0.5, scores

    def test_poisson_mode_same_sign_classes(self):
        # the episodes the calibrated-mode xfail uses are easy for poisson mode
        scores = [res.dsc_poisson for res in _same_sign_results()]
        assert min(scores) >= 0.85, scores

    def test_poisson_mode_small_foreground(self):
        # support from one draw; auxiliary maps, query and truth from another, so
        # no rule can lean on the support and query sharing one geometry draw
        side, fraction, separation = 32, 0.05, 4.0

        def draw(seed):
            return pp.synth_episode(pp.SynthSpec(
                channels=8, height=side, width=side,
                fg_mean=0.6 * separation * UNIT8, bg_mean=-0.4 * separation * UNIT8,
                noise_scale=1.0, shape="disk", center=(0.484 * side, 0.528 * side),
                size=float(np.sqrt(fraction * side * side / np.pi)),
                seed=seed, n_auxiliary=3,
            ))

        scores, areas = [], []
        for seed in range(8):
            support, _ = draw(seed)
            query, truth = draw(seed + 1000)
            res = run_episode(dataclasses.replace(query, support=support.support))
            scores.append(res.dsc_poisson)
            areas.append(res.mask_poisson.sum() / truth.data.sum())
        assert np.median(scores) >= 0.8, scores
        assert np.median(areas) <= 1.5, areas

    def test_mode_selects_mask(self):
        ep, _ = pp.synth_episode(two_blob_spec(8))
        res_p = run_episode(ep)
        cfg = dataclasses.replace(ep.config, prediction_mode="calibrated")
        res_c = run_episode(dataclasses.replace(ep, config=cfg))
        assert np.array_equal(res_p.predicted_mask, res_p.mask_poisson)
        assert np.array_equal(res_c.predicted_mask, res_c.mask_calibrated)


class TestDegenerateEpisodes:
    def test_single_labeled_vertex_returns_zero_with_warning(self):
        # mild separation: two lone prototypes must not disconnect the graph
        spec = two_blob_spec(9, n_auxiliary=1, separation=1.0)
        ep, _ = pp.synth_episode(spec, config=EpisodeConfig(window=(16, 16)))
        with pytest.warns(UserWarning):
            res = run_episode(ep)
        assert res.vertex_set.n_s == 1
        assert np.all(res.propagation.scores == 0.0)
        assert np.all(res.confidence.values == 0.5)

    def test_single_class_support_warns_once(self):
        ep, _ = pp.synth_episode(two_blob_spec(12))
        full = SoftMask(np.ones((16, 16)))
        ep = dataclasses.replace(ep, support=(ep.support[0], full))
        with pytest.warns(UserWarning, match="one class") as record:
            res = run_episode(ep)
        assert len(record) == 1
        assert np.all(res.propagation.scores == 0.0)

    def test_support_without_foreground_prototype_predicts_no_foreground(self):
        # 4 truth pixels split across four 4x4 windows: no window is half
        # foreground, so every prototype is labelled background
        def spec(seed):
            return dataclasses.replace(two_blob_spec(seed), center=(7.5, 7.5), size=1.0)

        with pytest.warns(UserWarning, match="share one class"):
            results = [run_episode(pp.synth_episode(spec(s))[0]) for s in range(4)]
        for res in results:
            assert res.mask_poisson.sum() == 0

    @pytest.mark.parametrize("head", [False, True], ids=["cosine", "head"])
    def test_all_zero_support_mask_predicts_no_foreground(self, head):
        # an empty support pools to the zero prototype, so the similarity
        # branch cannot veto the one-class answer of the "poisson" mask
        spec, config = (head_spec(0), head_config(0)) if head else (two_blob_spec(10), None)
        ep, _ = pp.synth_episode(spec, config=config)
        empty = SoftMask(np.zeros(ep.support[1].data.shape))
        ep = dataclasses.replace(ep, support=(ep.support[0], empty))
        with pytest.warns(UserWarning, match="share one class") as record:
            res = run_episode(ep)
        assert len(record) == 1
        assert not res.mask_poisson.any()
        assert np.array_equal(res.global_prototype, np.zeros(8))
        if head:  # the head maps (pixel, 0)
            params = ep.config.sim_params
            pairs = np.concatenate([ep.query.data.reshape(8, -1), np.zeros((8, 32 * 32))])
            assert np.allclose(res.similarity.data.reshape(64, -1), params.apply(pairs))
        else:  # cosine 0 with every pixel, so every map downstream is 0
            for fmap in (res.similarity, res.fused, res.calibrated):
                assert not fmap.data.any()

    @pytest.mark.parametrize("n_auxiliary", [0, 3])
    def test_empty_support_matches_one_pixel_support(self, n_auxiliary):
        # both supports label every grid cell background, so the graph, the
        # scores and the "poisson" mask agree byte for byte; only the
        # similarity branch sees the difference
        ep, _ = pp.synth_episode(two_blob_spec(10, n_auxiliary=n_auxiliary))
        one_pixel = np.zeros((16, 16))
        one_pixel[8, 8] = 1.0
        results = []
        for mask in (np.zeros((16, 16)), one_pixel):
            support = (ep.support[0], SoftMask(mask))
            with pytest.warns(UserWarning, match="share one class") as record:
                results.append(run_episode(dataclasses.replace(ep, support=support)))
            assert len(record) == 1
        empty, pixel = results
        assert np.array_equal(to_triplets(empty.graph), to_triplets(pixel.graph))
        assert empty.propagation.scores.tobytes() == pixel.propagation.scores.tobytes()
        assert empty.confidence.values.tobytes() == pixel.confidence.values.tobytes()
        assert not empty.mask_poisson.any() and not pixel.mask_poisson.any()
        assert not empty.global_prototype.any() and pixel.global_prototype.any()

    def test_disconnected_episode_names_components(self):
        # radius 5 splits the two blobs: the truth follows the split, so a
        # per-component answer would be easy to get silently wrong
        ep, _ = pp.synth_episode(dataclasses.replace(two_blob_spec(0), size=5.0))
        with pytest.raises(DisconnectedGraph, match="propagation") as err:
            run_episode(ep)
        assert str(err.value).endswith(
            "component 0: 223 vertices, labelled per class [12, 0]; "
            "component 1: 97 vertices, labelled per class [0, 4]"
        )

    def test_stage_name_attached_to_errors(self):
        ep, _ = pp.synth_episode(two_blob_spec(11))
        ep = dataclasses.replace(ep, config=dataclasses.replace(ep.config, knn_k=10_000))
        with pytest.raises(pp.errors.KTooLarge, match="graph-build"):
            run_episode(ep)

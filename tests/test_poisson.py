import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from _util import (
    UNIT8,
    TooLargeForDirect,
    degree_weighted_center,
    random_connected_system,
    solve_direct,
    two_blob_spec,
)
from poissonprop import (
    PropagationResult,
    SynthSpec,
    build_source,
    build_weight_graph,
    extract_confidence_map,
    from_triplets,
    laplacian_apply,
    run_episode,
    solve_iterative,
    synth_episode,
)
from poissonprop.errors import DisconnectedGraph, NoLabels, ShapeMismatch
from poissonprop.poisson import ConfidenceMap, LabelSource

K2 = from_triplets([[0, 1, 1.0]])


class TestBuildSource:
    def test_two_one_hot_labels(self):
        src = build_source(np.eye(2), 2)
        assert np.array_equal(src.values, [[0.5, -0.5], [-0.5, 0.5]])

    def test_three_labels_uneven(self):
        labels = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        src = build_source(labels, 5)
        expected = np.array(
            [
                [1 / 3, 1 / 3, -2 / 3, 0.0, 0.0],
                [-1 / 3, -1 / 3, 2 / 3, 0.0, 0.0],
            ]
        )
        assert np.allclose(src.values, expected, atol=1e-12)

    def test_columns_sum_to_zero(self):
        rng = np.random.default_rng(30)
        labels = np.zeros((7, 3))
        labels[np.arange(7), rng.integers(0, 3, 7)] = 1.0
        labels[:3] = np.eye(3)
        src = build_source(labels, 20)
        assert np.allclose(src.values.sum(axis=1), 0.0, atol=1e-12)
        assert np.all(src.values[:, 7:] == 0.0)

    def test_single_label_warns_and_zeroes(self):
        with pytest.warns(UserWarning, match="single|one class"):
            src = build_source(np.array([[1.0, 0.0]]), 4)
        assert np.all(src.values == 0.0)

    def test_missing_class_warns(self):
        labels = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.warns(UserWarning, match=r"classes \[2\] have no labeled vertex"):
            src = build_source(labels, 4)
        assert np.all(src.values[2] == 0.0)
        assert np.any(src.values[:2])

    def test_no_labels(self):
        with pytest.raises(NoLabels):
            build_source(np.zeros((0, 2)), 4)

    def test_invalid_one_hot(self):
        with pytest.raises(ValueError, match="one-hot"):
            build_source(np.array([[0.5, 0.5]]), 4)

    def test_sizes_derived_from_values(self):
        src = build_source(np.eye(3), 5)
        assert (src.k, src.n, src.n_s) == (3, 5, 3)
        with pytest.raises(TypeError):
            LabelSource(k=3, n=5, n_s=3, values=src.values)

    def test_values_are_derived_from_labels(self):
        # the source is built from labels only, so a non-zero-sum one cannot exist
        with pytest.raises(TypeError):
            LabelSource(np.eye(2), 3, values=np.ones((2, 3)))
        rng = np.random.default_rng(33)
        for n_s in (1, 2, 7, 100):
            labels = np.eye(4)[rng.integers(0, 4, n_s)]
            src = LabelSource(labels, n_s + 5)
            assert np.array_equal(src.labels, labels)
            assert np.abs(src.values.sum(axis=1)).max() <= 1e-15 * n_s

    def test_labels_copied_from_caller(self):
        labels = np.eye(2)
        src = LabelSource(labels, 3)
        labels[0] = [0.0, 1.0]
        assert np.array_equal(src.labels, np.eye(2))
        assert np.array_equal(src.values, [[0.5, -0.5, 0.0], [-0.5, 0.5, 0.0]])


class TestIterative:
    def test_first_step_on_two_vertices(self):
        src = build_source(np.eye(2), 2)
        res = solve_iterative(K2, src)
        assert np.array_equal(res.scores, [[0.25, -0.25], [-0.25, 0.25]])
        assert np.allclose(res.scores, solve_direct(K2, src).scores, atol=1e-12)
        assert (res.iterations, res.converged, res.residual_inf) == (1, True, 0.0)

    def test_unconverged_stop_warns(self):
        # no residual reaches 1e-300 relative, so the solve runs to its cap
        graph, source = random_connected_system(0)
        iterates = []
        with pytest.warns(UserWarning, match="unconverged after n iterations"):
            res = solve_iterative(
                graph, source, tol=1e-300, on_iterate=lambda t, s: iterates.append(s.copy())
            )
        assert (res.iterations, res.converged) == (graph.n, False)
        assert res.final_step == pytest.approx(np.abs(iterates[-1] - iterates[-2]).max())
        residual = source.values.T - laplacian_apply(graph, res.scores)
        assert res.residual_inf == np.abs(residual).max()
        assert res.residual_inf > 1e-300 * np.abs(source.values).max()

    def test_unconverged_warning_registered_once(self):
        # per-call text would store one registry entry, and print one line, per
        # solve; a RuntimeWarning from the iterations past convergence shows too
        systems = [random_connected_system(seed) for seed in range(10)]
        assert len({graph.n for graph, _ in systems}) > 1
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("default")
            for graph, source in systems:
                res = solve_iterative(graph, source, tol=1e-300)
                assert (res.iterations, res.converged) == (graph.n, False)
        assert [w.category for w in record] == [UserWarning]

    def test_zero_source_fixed_point(self):
        with pytest.warns(UserWarning):
            src = build_source(np.array([[1.0, 0.0]]), 2)
        res = solve_iterative(K2, src)
        assert np.all(res.scores == 0.0)
        assert res.converged
        assert res.iterations == 0

    def test_unlabeled_class_column_stays_zero(self):
        graph, _ = random_connected_system(1)
        labels = np.zeros((6, 3))
        labels[:3, 0] = 1.0
        labels[3:, 1] = 1.0
        with pytest.warns(UserWarning, match=r"classes \[2\]"):
            src = build_source(labels, graph.n)
        with np.errstate(all="raise"):
            res = solve_iterative(graph, src, tol=1e-8)
        assert res.converged
        assert np.all(res.scores[:, 2] == 0.0)
        direct = solve_direct(graph, src)
        assert np.abs(res.scores[:, :2] - direct.scores[:, :2]).max() < 1e-6

    @pytest.mark.parametrize("seed", range(1, 6))
    @pytest.mark.parametrize("split", [(1, 5), (2, 4), (5, 1)])
    def test_missing_last_class_stays_exactly_zero(self, seed, split):
        # uneven counts make the label means inexact, so deriving the last
        # class as minus the others' sum would leave it rounding noise
        graph, _ = random_connected_system(seed)
        labels = np.zeros((6, 3))
        labels[: split[0], 0] = 1.0
        labels[split[0] :, 1] = 1.0
        with pytest.warns(UserWarning, match=r"classes \[2\]"):
            src = build_source(labels, graph.n)
        res = solve_iterative(graph, src, tol=1e-8)
        assert res.converged
        assert res.scores[:, 2].tobytes() == bytes(8 * graph.n)

    def test_scores_independent_of_blas_threads(self):
        script = (
            "import sys; from _util import random_connected_system; "
            "import poissonprop as pp; "
            "res = pp.solve_iterative(*random_connected_system(2)); "
            "sys.stdout.write(res.scores.tobytes().hex())"
        )
        root = Path(__file__).resolve().parent
        path = os.pathsep.join([str(root.parent / "src"), str(root)])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            )
            outputs.append(proc.stdout)
        assert outputs[0] and outputs[0] == outputs[1]

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_calibrated_head_geometry_converges(self, seed):
        # default config on calibrated-head's 32x32 geometry (n = 1152): the
        # Jacobi fixed point stopped at a 1000-step cap there, 5e-2 off in confidence
        side = 32
        spec = SynthSpec(
            channels=8,
            height=side,
            width=side,
            fg_mean=0.6 * 6.0 * UNIT8,
            bg_mean=-0.4 * 6.0 * UNIT8,
            noise_scale=1.0,
            shape="disk",
            center=(0.484 * side, 0.528 * side),
            size=0.4375 * side,
            seed=seed,
            n_auxiliary=1,
        )
        episode, _ = synth_episode(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            result = run_episode(episode)
        prop = result.propagation
        assert result.graph.n == 1152
        assert prop.converged and prop.iterations <= 100
        exact = extract_confidence_map(solve_direct(result.graph, result.source), side, side)
        assert np.abs(result.confidence.values - exact.values).max() < 1e-5

    def test_one_channel_episode_converges_past_1000_iterations(self):
        # a C=1 map gives a near-path kNN graph, where CG needs about n/2
        # iterations: more than 1000 here, but within the cap of n
        spec = replace(
            two_blob_spec(1, n_auxiliary=4, separation=6.0),
            channels=1,
            height=40,
            width=40,
            fg_mean=[3.6],
            bg_mean=[-2.4],
            center=(19.36, 21.12),
            size=17.5,
        )
        episode, _ = synth_episode(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            result = run_episode(episode)
        prop, n = result.propagation, result.graph.n
        assert n == 2100
        assert prop.converged and 1000 < prop.iterations <= n
        residual = result.source.values.T - laplacian_apply(result.graph, prop.scores)
        assert prop.residual_inf == np.abs(residual).max()

    def test_disconnected_graph(self):
        g = from_triplets([[0, 1, 1.0], [2, 3, 1.0]])
        src = build_source(np.eye(2), 4)
        with pytest.raises(DisconnectedGraph):
            solve_iterative(g, src)

    def test_disconnected_graph_names_components(self):
        g = from_triplets([[0, 1, 1.0], [2, 3, 1.0], [4, 5, 1.0], [5, 6, 1.0]])
        labels = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        message = (
            "component 0: 2 vertices, labelled per class [1, 1]; "
            "component 1: 2 vertices, labelled per class [0, 1]; "
            "component 2: 3 vertices, labelled per class [0, 0]"
        )
        with pytest.raises(DisconnectedGraph, match=r"3 connected components.*: ") as err:
            solve_iterative(g, build_source(labels, 7))
        assert str(err.value).endswith(message)
        # a zero source still names the class its labels share
        with pytest.warns(UserWarning, match="one class"):
            zero = build_source(labels[[1, 2]], 7)
        with pytest.raises(DisconnectedGraph) as err:
            solve_iterative(g, zero)
        assert str(err.value).endswith(
            "component 0: 2 vertices, labelled per class [0, 2]; "
            "component 1: 2 vertices, labelled per class [0, 0]; "
            "component 2: 3 vertices, labelled per class [0, 0]"
        )

    def test_source_size_mismatch(self):
        src = build_source(np.eye(2), 3)
        with pytest.raises(ShapeMismatch):
            solve_iterative(K2, src)

    def test_matches_direct_oracle(self):
        for seed in (0, 1, 2):
            graph, source = random_connected_system(seed)
            it = solve_iterative(graph, source, tol=1e-8)
            direct = solve_direct(graph, source)
            a = degree_weighted_center(it.scores, graph.degrees)
            b = degree_weighted_center(direct.scores, graph.degrees)
            assert np.abs(a - b).max() < 1e-6

    def test_conservation_at_every_iterate(self):
        graph, source = random_connected_system(3)
        sums = []
        solve_iterative(
            graph,
            source,
            tol=1e-12,
            on_iterate=lambda t, s: sums.append(np.abs(graph.degrees @ s).max()),
        )
        assert max(sums) < 1e-9

    def test_residual_decay_at_doubling_checkpoints(self):
        graph, source = random_connected_system(4)
        rhs = source.values.T
        norms = {}

        def record(t, scores):
            if t & (t - 1) == 0:  # powers of two
                norms[t] = np.abs(rhs - laplacian_apply(graph, scores)).sum()

        solve_iterative(graph, source, tol=1e-15, on_iterate=record)
        checkpoints = sorted(norms)
        for t in checkpoints:
            if 2 * t in norms:
                assert norms[2 * t] <= norms[t] + 1e-12

    def test_residual_inf_is_true_residual(self):
        graph, source = random_connected_system(6)
        with pytest.warns(UserWarning, match="unconverged"):
            stopped = solve_iterative(graph, source, tol=1e-300)
        assert stopped.converged is False
        solved = solve_iterative(graph, source, tol=1e-10)
        for res in (stopped, solved):
            residual = source.values.T - laplacian_apply(graph, res.scores)
            assert res.residual_inf == np.abs(residual).max()
        assert solved.converged and solved.residual_inf < 1e-8

    def test_callers_see_vertex_major_arrays(self):
        # the solve runs on (k, n) arrays; on_iterate and the result still get
        # (n, k), and no later update reaches an array already handed out
        graph, source = random_connected_system(1)
        seen = []
        res = solve_iterative(
            graph, source, on_iterate=lambda t, s: seen.append((s, s.copy()))
        )
        assert len(seen) == res.iterations > 1
        for iterate, at_call in seen:
            assert iterate.shape == (graph.n, source.k)
            assert np.array_equal(iterate, at_call)
        assert res.scores.shape == (graph.n, source.k) and res.scores.flags.c_contiguous
        assert np.array_equal(res.scores, seen[-1][1])

    def test_class_swap_negates_solution(self):
        graph, _ = random_connected_system(5)
        n = graph.n
        labels = np.zeros((4, 2))
        labels[:2, 0] = 1.0
        labels[2:, 1] = 1.0
        src = build_source(labels, n)
        swapped = build_source(labels[:, ::-1], n)
        res = solve_iterative(graph, src)
        neg = solve_iterative(graph, swapped)
        assert np.array_equal(neg.scores, -res.scores)

    def test_three_classes_reported_over_every_column(self):
        # two classes are solved and the third derived from them; the step and
        # the true residual still cover all three
        graph, source = random_connected_system(4)
        assert source.k == 3 and np.all(source.labels.sum(axis=0) > 0)
        iterates = []
        res = solve_iterative(
            graph, source, tol=1e-10, on_iterate=lambda t, s: iterates.append(s.copy())
        )
        residual = np.abs(source.values.T - laplacian_apply(graph, res.scores))
        assert res.converged and res.residual_inf == residual.max()
        assert res.final_step == pytest.approx(np.abs(iterates[-1] - iterates[-2]).max())
        assert np.array_equal(res.scores, iterates[-1])

    def test_two_classes_negate_bitwise_at_inexact_label_means(self):
        # at n_s = 3 the source rows are not exact negatives, but the scores are
        graph, _ = random_connected_system(2)
        src = build_source(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]), graph.n)
        assert not np.array_equal(src.values[1], -src.values[0])
        res = solve_iterative(graph, src)
        assert np.array_equal(res.scores[:, 1], -res.scores[:, 0])

    def test_block_permutation_equivariance(self):
        graph, source = random_connected_system(6)
        n, n_s = graph.n, source.n_s
        rng = np.random.default_rng(99)
        perm = np.concatenate([rng.permutation(n_s), n_s + rng.permutation(n - n_s)])
        w_perm = graph.weights.toarray()[np.ix_(perm, perm)]
        from poissonprop.graph import WeightedGraph

        g2 = WeightedGraph(w_perm)
        src2 = LabelSource(source.labels[perm[:n_s]], n)
        base = solve_iterative(graph, source)
        permuted = solve_iterative(g2, src2)
        assert np.allclose(permuted.scores, base.scores[perm], atol=1e-12)

    def test_parameter_validation(self):
        src = build_source(np.eye(2), 2)
        with pytest.raises(ValueError):
            solve_iterative(K2, src, tol=0.0)

    @pytest.mark.parametrize("tol", [np.inf, np.nan])
    def test_non_finite_tol_rejected(self, tol):
        # inf once stopped after one step as "converged"; nan never stopped
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            solve_iterative(K2, build_source(np.eye(2), 2), tol=tol)


class TestDirect:
    def test_two_vertex_value(self):
        src = build_source(np.eye(2), 2)
        res = solve_direct(K2, src)
        assert np.allclose(res.scores, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-12)

    def test_residual_on_own_output(self):
        graph, source = random_connected_system(7)
        res = solve_direct(graph, source)
        residual = laplacian_apply(graph, res.scores) - source.values.T
        assert np.abs(residual).max() < 1e-9
        assert res.residual_inf == np.abs(residual).max()

    def test_degree_weighted_sum_zero(self):
        graph, source = random_connected_system(8)
        res = solve_direct(graph, source)
        assert np.abs(graph.degrees @ res.scores).max() < 1e-9

    def test_zero_source_returns_zero(self):
        with pytest.warns(UserWarning):
            src = build_source(np.array([[1.0, 0.0]]), 2)
        res = solve_direct(K2, src)
        assert np.allclose(res.scores, 0.0, atol=1e-15)

    def test_size_guard(self):
        n = 2001
        edges = [[i, i + 1, 1.0] for i in range(n - 1)]
        g = from_triplets(edges)
        src = build_source(np.eye(2), n)
        with pytest.raises(TooLargeForDirect):
            solve_direct(g, src)

    def test_disconnected_graph(self):
        g = from_triplets([[0, 1, 1.0], [2, 3, 1.0]])
        src = build_source(np.eye(2), 4)
        with pytest.raises(DisconnectedGraph):
            solve_direct(g, src)


def _result(scores):
    return PropagationResult(
        scores=np.asarray(scores, dtype=np.float64),
        iterations=1,
        final_step=0.0,
        converged=True,
        residual_inf=0.0,
    )


class TestConfidenceMap:
    def test_zero_scores_give_half(self):
        conf = extract_confidence_map(_result(np.zeros((4, 2))), 2, 2)
        assert np.array_equal(conf.values, np.full((2, 2), 0.5))

    def test_strong_logit(self):
        scores = np.zeros((4, 2))
        scores[0] = [0.0, 10.0]
        conf = extract_confidence_map(_result(scores), 2, 2)
        assert conf.values[0, 0] == pytest.approx(1.0 / (1.0 + np.exp(-10.0)), abs=1e-12)

    def test_channel_swap_complements(self):
        rng = np.random.default_rng(31)
        scores = rng.standard_normal((6, 2))
        conf = extract_confidence_map(_result(scores), 2, 3)
        flipped = extract_confidence_map(_result(scores[:, ::-1]), 2, 3)
        assert np.allclose(flipped.values, 1.0 - conf.values, atol=1e-12)

    def test_rows_map_row_major(self):
        scores = np.zeros((4, 2))
        scores[1] = [-5.0, 5.0]  # pixel (0, 1)
        conf = extract_confidence_map(_result(scores), 2, 2)
        assert conf.values[0, 1] > 0.99
        assert conf.values[0, 0] == 0.5

    def test_query_block_is_tail(self):
        scores = np.zeros((6, 2))
        scores[:2, 0] = 100.0  # non-query vertices must be ignored
        conf = extract_confidence_map(_result(scores), 2, 2)
        assert np.array_equal(conf.values, np.full((2, 2), 0.5))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            extract_confidence_map(_result(np.zeros((4, 2))), 2, 3)
        with pytest.raises(ShapeMismatch):
            extract_confidence_map(_result(np.zeros((3, 2))), 2, 2)

    def test_nan_rejected(self):
        # an infinite score makes a NaN softmax; it must not become background
        nan = r"^confidence map contains NaN or Inf$"
        with pytest.raises(ValueError, match=nan), np.errstate(invalid="ignore"):
            extract_confidence_map(_result([[0.0, np.inf], [0.0, 1.0]]), 1, 2)
        with pytest.raises(ValueError, match=nan):
            ConfidenceMap(np.array([[np.nan, 0.5]]))

    def test_three_class_softmax_normalized(self):
        rng = np.random.default_rng(32)
        scores = rng.standard_normal((8, 3))
        conf = extract_confidence_map(_result(scores), 2, 4)
        ex = np.exp(scores - scores.max(axis=1, keepdims=True))
        probs = ex / ex.sum(axis=1, keepdims=True)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.array_equal(conf.values, probs[:, 2].reshape(2, 4))

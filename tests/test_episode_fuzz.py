"""Hypothesis fuzz of whole episodes: any synthetic episode ends in finite,
conserved, deterministic outputs or in a named library error."""

import warnings

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

import poissonprop as pp
from poissonprop.errors import PoissonPropError


@st.composite
def synth_specs(draw):
    height = 4 * draw(st.integers(2, 16))  # 8-64 px, whole 4x4 windows
    width = 4 * draw(st.integers(2, 16))
    channels = draw(st.integers(1, 64))
    separation = draw(st.floats(1.0, 12.0))
    seed = draw(st.integers(0, 2**32 - 1))
    direction = np.random.default_rng(seed).standard_normal(channels)
    direction /= np.linalg.norm(direction)
    shape = draw(st.sampled_from(["disk", "rect"]))
    if shape == "disk":
        size = draw(st.floats(1.0, 0.5 * max(height, width)))
    else:
        size = (draw(st.integers(1, height)), draw(st.integers(1, width)))
    return pp.SynthSpec(
        channels=channels,
        height=height,
        width=width,
        fg_mean=0.6 * separation * direction,
        bg_mean=-0.4 * separation * direction,
        noise_scale=draw(st.sampled_from([0.0, 1.0])),  # 0: duplicate points
        shape=shape,
        center=(draw(st.floats(0.0, height - 1.0)), draw(st.floats(0.0, width - 1.0))),
        size=size,
        seed=seed,
        n_auxiliary=draw(st.integers(0, 5)),
    )


def _run(ep):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # unconverged, one class
        return pp.run_episode(ep)


def _output_bytes(res):
    return [
        pp.to_triplets(res.graph).tobytes(),
        res.propagation.scores.tobytes(),
        res.confidence.values.tobytes(),
        res.calibrated.data.tobytes(),
        res.mask_poisson.tobytes(),
        res.mask_calibrated.tobytes(),
    ]


@given(synth_specs())
# derandomized: the same 15 examples on every run keep the suite's cost
# fixed; a zero-noise example can spend seconds in the kNN screen (see
# test_graph_build_memory_on_duplicate_points)
@settings(max_examples=15, deadline=None, derandomize=True)
def test_episode_outputs_sound_or_named_error(spec):
    ep, _ = pp.synth_episode(spec)
    try:
        res = _run(ep)
    except PoissonPropError as err:  # anything else fails the test
        event(type(err).__name__)
        return
    scores = res.propagation.scores
    for values in (scores, res.confidence.values, res.similarity.data, res.calibrated.data):
        assert np.all(np.isfinite(values))
    assert 0.0 <= res.confidence.values.min() and res.confidence.values.max() <= 1.0
    degrees = res.graph.degrees
    assert np.all(np.abs(degrees @ scores) <= 1e-9 * (degrees @ np.abs(scores)) + 1e-300)
    assert _output_bytes(_run(ep)) == _output_bytes(res)

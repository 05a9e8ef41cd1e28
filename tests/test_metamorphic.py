"""Metamorphic tests of whole episodes (Chen, Cheung and Yiu, 1998): a
transformed episode whose answer the pipeline's design fixes exactly.

- Scaling every map by 4 or by 1/4 scales every prototype, pixel and squared
  distance by a power of two, which is exact, and the self-tuning kernel
  divides the scale out: the graph, the scores, the confidence map and
  the "poisson" mask keep their bytes.
- Negating every map is exact too: squared distances, dot products and
  norms keep their bytes, so the similarity map does as well, and the
  global prototype is negated.
- Reversing the auxiliary maps permutes the auxiliary block of the
  graph. The scores may move by rounding in the solver's sums, but the
  "poisson" mask stays the same.

An episode that ends in a library error must end in the same one after
the transformation. Swapping the support's labels is left out: a support
grid cell at exactly 0.5 is foreground on both sides of the swap, so it
is not a pure relabelling.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import poissonprop as pp
from poissonprop.errors import PoissonPropError


@st.composite
def synth_specs(draw):
    side = draw(st.sampled_from([16, 32]))
    channels = draw(st.integers(1, 16))
    separation = draw(st.floats(1.0, 12.0))
    seed = draw(st.integers(0, 2**32 - 1))
    direction = np.random.default_rng(seed).standard_normal(channels)
    direction /= np.linalg.norm(direction)
    shape = draw(st.sampled_from(["disk", "rect"]))
    if shape == "disk":
        size = draw(st.floats(1.0, 0.5 * side))
    else:
        size = (draw(st.integers(1, side)), draw(st.integers(1, side)))
    return pp.SynthSpec(
        channels=channels,
        height=side,
        width=side,
        fg_mean=0.6 * separation * direction,
        bg_mean=-0.4 * separation * direction,
        noise_scale=1.0,
        shape=shape,
        center=(draw(st.floats(0.0, side - 1.0)), draw(st.floats(0.0, side - 1.0))),
        size=size,
        seed=seed,
        n_auxiliary=draw(st.integers(0, 4)),
    )


def _outcome(ep):
    """The episode's result, or the class of the library error it ends in."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # unconverged, one class
            return pp.run_episode(ep)
    except PoissonPropError as err:  # anything else fails the test
        event(type(err).__name__)
        return type(err)


def _both_outcomes(ep, transformed):
    """Both results, or None once both sides are seen to end in the same error."""
    base, other = _outcome(ep), _outcome(transformed)
    assert isinstance(base, type) == isinstance(other, type)
    if isinstance(base, type):
        assert base is other
        return None
    return base, other


def _scaled(ep, factor):
    def scale(fmap):
        return pp.FeatureMap(factor * fmap.data)

    sup_map, sup_mask = ep.support
    return dataclasses.replace(
        ep,
        support=(scale(sup_map), sup_mask),
        auxiliary=tuple(map(scale, ep.auxiliary)),
        query=scale(ep.query),
    )


def _assert_poisson_bytes_equal(base, other):
    assert np.array_equal(pp.to_triplets(other.graph), pp.to_triplets(base.graph))
    assert other.propagation.scores.tobytes() == base.propagation.scores.tobytes()
    assert other.confidence.values.tobytes() == base.confidence.values.tobytes()
    assert np.array_equal(other.mask_poisson, base.mask_poisson)


# derandomized, as the episode fuzz: the same examples on every run keep the
# suite's cost fixed
@pytest.mark.parametrize("factor", [4.0, 0.25])
@given(spec=synth_specs())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_power_of_two_scale_keeps_bytes(factor, spec):
    ep, _ = pp.synth_episode(spec)
    outcomes = _both_outcomes(ep, _scaled(ep, factor))
    if outcomes is not None:
        _assert_poisson_bytes_equal(*outcomes)


@given(synth_specs())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_negation_keeps_bytes(spec):
    ep, _ = pp.synth_episode(spec)
    outcomes = _both_outcomes(ep, _scaled(ep, -1.0))
    if outcomes is None:
        return
    base, negated = outcomes
    _assert_poisson_bytes_equal(base, negated)
    assert negated.similarity.data.tobytes() == base.similarity.data.tobytes()
    assert np.array_equal(negated.global_prototype, -base.global_prototype)


@given(synth_specs())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_auxiliary_order_keeps_mask(spec):
    ep, _ = pp.synth_episode(spec)
    event(f"{len(ep.auxiliary)} auxiliary maps")
    outcomes = _both_outcomes(ep, dataclasses.replace(ep, auxiliary=ep.auxiliary[::-1]))
    if outcomes is None:
        return
    base, reversed_ = outcomes
    assert np.array_equal(reversed_.mask_poisson, base.mask_poisson)

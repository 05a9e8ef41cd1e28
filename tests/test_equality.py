"""Equality of the array-holding containers is identity, and never raises.

A generated field-by-field ``__eq__`` would compare their arrays as a
tuple, which raises "truth value of an array ... is ambiguous" for two
equal-valued but distinct objects.
"""

import numpy as np
import pytest

import poissonprop as pp
from _util import two_blob_spec
from poissonprop.poisson import ConfidenceMap, LabelSource, PropagationResult
from poissonprop.scc import LinearParams


def _episode_result():
    ep, _ = pp.synth_episode(two_blob_spec(0, n_auxiliary=0))
    return pp.run_episode(ep)


FACTORIES = {
    "Tensor": lambda: pp.Tensor(np.ones((2, 2))),
    "FeatureMap": lambda: pp.FeatureMap(np.ones((1, 2, 2))),
    "SoftMask": lambda: pp.SoftMask(np.full((2, 2), 0.5)),
    "ConfidenceMap": lambda: ConfidenceMap(np.full((2, 2), 0.5)),
    "LabelSource": lambda: LabelSource(np.eye(2), 3),
    "PropagationResult": lambda: PropagationResult(np.zeros((3, 2)), 1, 0.0, True, 0.0),
    "WeightedGraph": lambda: pp.WeightedGraph(np.array([[0.0, 1.0], [1.0, 0.0]])),
    "VertexSet": lambda: pp.VertexSet(np.zeros((3, 2)), labels=np.array([1, 0]), n_a=0),
    "LinearParams": lambda: LinearParams(np.eye(2), np.zeros(2)),
    "SynthSpec": lambda: two_blob_spec(0),
    "EpisodeResult": _episode_result,
}


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_equality_is_identity(name):
    a, b = FACTORIES[name](), FACTORIES[name]()
    assert (a == b) is False
    assert (a == a) is True

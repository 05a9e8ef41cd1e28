"""The claims this library reproduces, each measured on synthetic episodes
and citing its source. The baselines live in ``tests/_util.py``."""

import numpy as np
import pytest

import poissonprop as pp
from _util import UNIT8, drift_episode, laplace_mask
from poissonprop import dsc, predict_mask, run_episode
from poissonprop.errors import DisconnectedGraph


def test_poisson_beats_laplace_at_low_label_rate():
    # Calder et al., "Poisson Learning" (ICML 2020): at low label rates Laplace
    # learning degenerates towards a constant and Poisson learning stays
    # accurate. 8x8 windows on a 32x32 support give 16 labels among 1088
    # vertices; Laplace is solved on each episode's own graph. Measured medians:
    # Poisson 0.806 (each seed 0.772-0.840), Laplace 0.019
    side, fraction, separation = 32, 0.15, 3.0
    poisson, laplace = [], []
    for seed in range(8):
        spec = pp.SynthSpec(
            channels=8, height=side, width=side,
            fg_mean=0.6 * separation * UNIT8, bg_mean=-0.4 * separation * UNIT8,
            noise_scale=1.0, shape="disk", center=(0.484 * side, 0.528 * side),
            size=float(np.sqrt(fraction * side * side / np.pi)), seed=seed, n_auxiliary=3,
        )
        ep, _ = pp.synth_episode(spec, pp.EpisodeConfig(window=(8, 8)))
        res = run_episode(ep)
        assert res.vertex_set.n_s == 16
        poisson.append(res.dsc_poisson)
        laplace.append(dsc(laplace_mask(res), predict_mask(ep.query_mask.data)))
    assert np.median(poisson) >= 0.6, poisson
    assert np.median(laplace) <= 0.2, laplace


def test_auxiliary_maps_bridge_drift():
    # the paper's semi-supervised claim: unlabelled maps between the support and
    # a drifted query carry the labels that the support alone cannot. Measured
    # medians at drift 4.5: 0.400 with no auxiliary maps, 0.944 with 6
    def median_dsc(n_auxiliary):
        return np.median([
            run_episode(drift_episode(seed, 4.5, n_auxiliary)).dsc_poisson
            for seed in range(8)
        ])

    bridged, alone = median_dsc(6), median_dsc(0)
    assert bridged >= 0.9, bridged
    assert bridged > alone + 0.3, (bridged, alone)


@pytest.mark.parametrize(
    "drift, too_few, enough, disconnected, at_least",
    [(6.0, 3, 6, 0, 6), (8.0, 6, 12, 3, 4)],
    ids=["drift-6", "drift-8"],
)
def test_auxiliary_maps_bridge_drift_limits(drift, too_few, enough, disconnected, at_least):
    # where the paper's semi-supervised claim stops: a larger drift needs more
    # auxiliary maps, and with too few the mask is no better than all-foreground
    # (DSC 0.40) or the graph falls apart. Measured over seeds 0-7: at drift 6,
    # medians 0.400 with 3 maps and 0.936 with 6, and 7 of 8 graphs without maps
    # disconnect; at drift 8, 0.400 with 6 maps and 0.942 with 12, and 4 of 8
    # graphs with 3 maps disconnect
    def median_dsc(n_auxiliary):
        return np.median([
            run_episode(drift_episode(seed, drift, n_auxiliary)).dsc_poisson
            for seed in range(8)
        ])

    def disconnects(seed):
        try:
            run_episode(drift_episode(seed, drift, disconnected))
        except DisconnectedGraph:
            return True
        return False

    assert median_dsc(too_few) <= 0.45
    assert median_dsc(enough) >= 0.85
    assert sum(map(disconnects, range(8))) >= at_least

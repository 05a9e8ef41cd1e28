"""Command-line surface.

Subcommands: graph, propagate, episode, dice, synth. Any library error
exits nonzero after printing one machine-parsable line to stderr:

    error: <ErrorClass>: <message>
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import graph as graph_mod
from . import poisson
from .episode import EpisodeConfig, run_episode
from .errors import PoissonPropError
from .manifest import load_episode_manifest, load_synth_spec
from .metrics import dsc
from .synth import synth_episode
from .tensorfile import DTYPE_U8, load_tensor, save_tensor

DSC_NOTE = "[score convention: 2|A∩B| / (|A|+|B|), higher is better]"


def _cmd_graph(args) -> int:
    points = load_tensor(args.features).data
    if points.ndim != 2:
        raise ValueError(f"--features must be a rank-2 (n, C) tensor, got rank {points.ndim}")
    g = graph_mod.build_weight_graph(points, args.k)
    triplets = graph_mod.to_triplets(g)
    save_tensor(args.out, triplets)
    print(f"graph: {g.n} vertices, {triplets.shape[0]} edges")
    return 0


def _cmd_propagate(args) -> int:
    triplets = load_tensor(args.graph).data
    g = graph_mod.from_triplets(triplets)
    labels = load_tensor(args.labels).data
    source = poisson.build_source(labels, g.n)
    result = poisson.solve_iterative(g, source, tol=args.tol)
    save_tensor(args.out, result.scores)
    print(f"iterations: {result.iterations}")
    print(f"final_step: {result.final_step!r}")
    print(f"converged: {str(result.converged).lower()}")
    print(f"residual_inf: {result.residual_inf!r}")
    return 0


def _cmd_episode(args) -> int:
    ep = load_episode_manifest(args.manifest)
    result = run_episode(ep)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_tensor(out_dir / "confidence.t", result.confidence.values)
    save_tensor(out_dir / "calibrated.t", result.calibrated.data)
    save_tensor(out_dir / "predicted_mask.t", result.predicted_mask, DTYPE_U8)
    diag = {
        "prediction_mode": result.config.prediction_mode,
        "iterations": result.propagation.iterations,
        "final_step": result.propagation.final_step,
        "converged": result.propagation.converged,
        "residual_inf": result.propagation.residual_inf,
        "n_vertices": result.vertex_set.n,
        "n_support": result.vertex_set.n_s,
        "n_auxiliary": result.vertex_set.n_a,
        "n_query": result.vertex_set.n_q,
        "dsc_poisson": result.dsc_poisson,
        "dsc_calibrated": result.dsc_calibrated,
        "dsc": result.dsc_score,
    }
    (out_dir / "diagnostics.json").write_text(
        json.dumps(diag, sort_keys=True, indent=2) + "\n"
    )
    print(f"episode: {result.propagation.iterations} iterations")
    if result.dsc_score is not None:
        print(f"dsc: {result.dsc_score!r}")
    return 0


def _cmd_dice(args) -> int:
    pred = load_tensor(args.pred).data
    truth = load_tensor(args.gt).data
    score = dsc(pred, truth)
    print(f"DSC: {score!r}  {DSC_NOTE}")
    return 0


def _cmd_synth(args) -> int:
    spec = load_synth_spec(args.spec)
    ep, truth = synth_episode(spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    support_map, support_mask = ep.support
    save_tensor(out_dir / "support_features.t", support_map.data)
    save_tensor(out_dir / "support_mask.t", support_mask.data, DTYPE_U8)
    aux_names = []
    for i, aux in enumerate(ep.auxiliary):
        name = f"aux_{i:03d}.t"
        save_tensor(out_dir / name, aux.data)
        aux_names.append(name)
    save_tensor(out_dir / "query_features.t", ep.query.data)
    save_tensor(out_dir / "query_mask.t", truth.data, DTYPE_U8)
    manifest = {
        "support_features": "support_features.t",
        "support_mask": "support_mask.t",
        "auxiliary_features": aux_names,
        "query_features": "query_features.t",
        "query_mask": "query_mask.t",
        "config": {},
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )
    # every spec field, arrays as lists (tuples are JSON arrays already)
    echo = dataclasses.asdict(spec)
    (out_dir / "spec.json").write_text(
        json.dumps(echo, default=np.ndarray.tolist, sort_keys=True, indent=2) + "\n"
    )
    print(f"synth: wrote episode for seed {spec.seed} to {out_dir}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poissonprop",
        description="Graph-based label propagation over feature-map prototypes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="build and serialize a kNN weight graph")
    p.add_argument("--features", required=True, help="rank-2 (n, C) tensor file")
    p.add_argument("--k", type=int, default=EpisodeConfig.knn_k, help="neighbors per vertex")
    p.add_argument("--out", required=True, help="output edge-triplet tensor file")
    p.set_defaults(handler=_cmd_graph)

    p = sub.add_parser("propagate", help="solve the graph Poisson system")
    p.add_argument("--graph", required=True, help="edge-triplet tensor file")
    p.add_argument("--labels", required=True, help="rank-2 (n_s, k) one-hot tensor file")
    p.add_argument("--tol", type=float, default=EpisodeConfig.tol)
    p.add_argument("--out", required=True, help="output (n, k) solution tensor file")
    p.set_defaults(handler=_cmd_propagate)

    p = sub.add_parser("episode", help="run the full pipeline from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=_cmd_episode)

    p = sub.add_parser("dice", help="score two binary masks")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.set_defaults(handler=_cmd_dice)

    p = sub.add_parser("synth", help="generate a synthetic episode")
    p.add_argument("--spec", required=True, help="synth spec JSON file")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=_cmd_synth)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (PoissonPropError, ValueError, OSError) as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

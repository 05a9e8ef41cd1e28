"""Human-writable JSON documents: episode manifests and synth specs.

Episode manifest keys (paths are resolved relative to the manifest):

    support_features    tensor file, rank 3 (C, H, W)
    support_mask        tensor file, rank 2 (H, W), values in [0, 1]
    auxiliary_features  list of tensor files, rank 3 each (optional)
    query_features      tensor file, rank 3
    query_mask          tensor file, rank 2 (optional, enables scoring)
    config              object of overrides (optional), keys:
        window [h, w], knn_k, tol, t_max, label_threshold,
        prediction_threshold, prediction_mode ("poisson"|"calibrated"),
        sim_weight, sim_bias           tensor files for the similarity map
        h_w1, h_b1, h_w2, h_b2         tensor files for the calibration MLP

Synth spec keys: channels, height, width, fg_mean, bg_mean,
noise_scale, shape ("rect"|"disk"), center [i, j], size ([h, w] or
radius), seed, n_auxiliary (optional).
"""

from __future__ import annotations

import json
from pathlib import Path

from .episode import Episode, EpisodeConfig
from .errors import ManifestError
from .scc import LinearParams, TwoLayerParams
from .synth import SynthSpec
from .tensor import FeatureMap, SoftMask
from .tensorfile import load_tensor

_CONFIG_KEYS = {
    "window",
    "knn_k",
    "tol",
    "t_max",
    "label_threshold",
    "prediction_threshold",
    "prediction_mode",
    "sim_weight",
    "sim_bias",
    "h_w1",
    "h_b1",
    "h_w2",
    "h_b2",
}

_MANIFEST_KEYS = {
    "support_features",
    "support_mask",
    "auxiliary_features",
    "query_features",
    "query_mask",
    "config",
}


def _read_json(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise ManifestError(f"{path}: {err}") from err
    if not isinstance(doc, dict):
        raise ManifestError(f"{path}: top level must be an object")
    return doc


def _require(doc: dict, key: str):
    if key not in doc:
        raise ManifestError(f"{key}: required key missing")
    return doc[key]


def _load_feature_map(base: Path, key: str, rel) -> FeatureMap:
    if not isinstance(rel, str):
        raise ManifestError(f"{key}: expected a file path string")
    tensor = load_tensor(base / rel)
    if tensor.data.ndim != 3:
        raise ManifestError(f"{key}: expected a rank-3 tensor, got rank {tensor.data.ndim}")
    return FeatureMap(tensor.data)


def _load_mask(base: Path, key: str, rel) -> SoftMask:
    if not isinstance(rel, str):
        raise ManifestError(f"{key}: expected a file path string")
    tensor = load_tensor(base / rel)
    if tensor.data.ndim != 2:
        raise ManifestError(f"{key}: expected a rank-2 tensor, got rank {tensor.data.ndim}")
    try:
        return SoftMask(tensor.data)
    except ValueError as err:
        raise ManifestError(f"{key}: {err}") from err


def _load_linear(base: Path, cfg: dict, weight_key: str, bias_key: str) -> LinearParams:
    weight = load_tensor(base / cfg[weight_key]).data
    if weight.ndim != 2:
        raise ManifestError(f"{weight_key}: weight must be rank 2")
    bias = None
    if bias_key in cfg:
        bias = load_tensor(base / cfg[bias_key]).data
        if bias.ndim != 1:
            raise ManifestError(f"{bias_key}: bias must be rank 1")
    try:
        return LinearParams(weight, bias)
    except ValueError as err:
        raise ManifestError(f"{weight_key}: {err}") from err


def _parse_config(base: Path, cfg) -> EpisodeConfig:
    if not isinstance(cfg, dict):
        raise ManifestError("config: expected an object")
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise ManifestError(f"{sorted(unknown)[0]}: unknown config key")
    kwargs = {}
    if "window" in cfg:
        window = cfg["window"]
        if (
            not isinstance(window, list)
            or len(window) != 2
            or not all(isinstance(v, int) and v > 0 for v in window)
        ):
            raise ManifestError("window: expected two positive integers")
        kwargs["window"] = tuple(window)
    for key, target in (
        ("knn_k", "knn_k"),
        ("tol", "tol"),
        ("t_max", "t_max"),
        ("label_threshold", "label_threshold"),
        ("prediction_threshold", "prediction_threshold"),
        ("prediction_mode", "prediction_mode"),
    ):
        if key in cfg:
            kwargs[target] = cfg[key]
    if "sim_weight" in cfg:
        kwargs["sim_params"] = _load_linear(base, cfg, "sim_weight", "sim_bias")
    elif "sim_bias" in cfg:
        raise ManifestError("sim_bias: given without sim_weight")
    mlp_keys = [k for k in ("h_w1", "h_b1", "h_w2", "h_b2") if k in cfg]
    if mlp_keys and not {"h_w1", "h_w2"} <= set(cfg):
        raise ManifestError(
            f"{mlp_keys[0]}: calibration MLP needs both h_w1 and h_w2"
        )
    if mlp_keys:
        first = _load_linear(base, cfg, "h_w1", "h_b1")
        second = _load_linear(base, cfg, "h_w2", "h_b2")
        try:
            kwargs["calibration_params"] = TwoLayerParams(first, second)
        except ValueError as err:
            raise ManifestError(f"h_w2: {err}") from err
    try:
        return EpisodeConfig(**kwargs)
    except (TypeError, ValueError) as err:
        raise ManifestError(f"config: {err}") from err


def load_episode_manifest(path) -> Episode:
    """Load an episode manifest and every file it references."""
    path = Path(path)
    doc = _read_json(path)
    unknown = set(doc) - _MANIFEST_KEYS
    if unknown:
        raise ManifestError(f"{sorted(unknown)[0]}: unknown manifest key")
    base = path.parent
    config = _parse_config(base, doc.get("config", {}))
    support = _load_feature_map(base, "support_features", _require(doc, "support_features"))
    support_mask = _load_mask(base, "support_mask", _require(doc, "support_mask"))
    aux_entries = doc.get("auxiliary_features", [])
    if not isinstance(aux_entries, list):
        raise ManifestError("auxiliary_features: expected a list of paths")
    auxiliary = tuple(
        _load_feature_map(base, f"auxiliary_features[{i}]", rel)
        for i, rel in enumerate(aux_entries)
    )
    query = _load_feature_map(base, "query_features", _require(doc, "query_features"))
    query_mask = None
    if "query_mask" in doc:
        query_mask = _load_mask(base, "query_mask", doc["query_mask"])
    try:
        return Episode(
            support=(support, support_mask),
            auxiliary=auxiliary,
            query=query,
            query_mask=query_mask,
            config=config,
        )
    except ValueError as err:
        raise ManifestError(f"{path}: {err}") from err


def load_synth_spec(path, seed_override: int | None = None) -> SynthSpec:
    """Load a synth spec document, optionally overriding its seed."""
    doc = _read_json(path)
    for key in ("channels", "height", "width", "fg_mean", "bg_mean",
                "noise_scale", "shape", "center", "size", "seed"):
        _require(doc, key)
    unknown = set(doc) - {
        "channels", "height", "width", "fg_mean", "bg_mean", "noise_scale",
        "shape", "center", "size", "seed", "n_auxiliary",
    }
    if unknown:
        raise ManifestError(f"{sorted(unknown)[0]}: unknown synth key")
    size = doc["size"]
    if isinstance(size, list):
        size = tuple(size)
    center = doc["center"]
    if not isinstance(center, list) or len(center) != 2:
        raise ManifestError("center: expected [row, col]")
    try:
        return SynthSpec(
            channels=doc["channels"],
            height=doc["height"],
            width=doc["width"],
            fg_mean=doc["fg_mean"],
            bg_mean=doc["bg_mean"],
            noise_scale=doc["noise_scale"],
            shape=doc["shape"],
            center=tuple(center),
            size=size,
            seed=doc["seed"] if seed_override is None else seed_override,
            n_auxiliary=doc.get("n_auxiliary", 2),
        )
    except (TypeError, ValueError) as err:
        raise ManifestError(f"{path}: {err}") from err

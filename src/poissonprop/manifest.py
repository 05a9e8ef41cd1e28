"""Human-writable JSON documents: episode manifests and synth specs.

Episode manifest keys (paths are resolved relative to the manifest):

    support_features    tensor file, rank 3 (C, H, W)
    support_mask        tensor file, rank 2 (H, W), values in [0, 1]
    auxiliary_features  list of tensor files, rank 3 each (optional)
    query_features      tensor file, rank 3
    query_mask          tensor file, rank 2 (optional, enables scoring)
    config              object of overrides (optional), keys:
        window [h, w], knn_k, tol, prediction_mode ("poisson"|"calibrated"),
        sim_weight, sim_bias           tensor files for the similarity map
        h_w1, h_b1, h_w2, h_b2         tensor files for the calibration MLP

Config values are checked for type on load: an integer (not a boolean)
for knn_k, a number for tol, strings for prediction_mode and files.
Synth spec keys are the fields of SynthSpec; those without a default
are required.
"""

from __future__ import annotations

import json
import typing
from dataclasses import MISSING, fields
from pathlib import Path

from .episode import Episode, EpisodeConfig
from .errors import ManifestError
from .scc import LinearParams, TwoLayerParams
from .synth import SynthSpec
from .tensor import FeatureMap, SoftMask
from .tensorfile import load_tensor

# JSON values a field of each type accepts; a bool is not a number
_ACCEPTS = {int: (int,), float: (int, float), str: (str,)}


def _scalar_fields(cls) -> dict:
    """Fields of dataclass ``cls`` that take a JSON scalar, with their types."""
    return {k: t for k, t in typing.get_type_hints(cls).items() if t in _ACCEPTS}


# scalar config keys go to EpisodeConfig as they are; file keys name the
# (weight, bias) tensors of the similarity map and of each MLP layer
_SCALAR_KEYS = _scalar_fields(EpisodeConfig)
_FILE_KEYS = ("sim_weight", "sim_bias", "h_w1", "h_b1", "h_w2", "h_b2")
_CONFIG_KEYS = {"window", *_SCALAR_KEYS, *_FILE_KEYS}

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


def _typed(key: str, value, kind: type):
    """``value``, if a field of type ``kind`` accepts it."""
    if isinstance(value, bool) or not isinstance(value, _ACCEPTS[kind]):
        raise ManifestError(f"{key}: expected {kind.__name__}, got {value!r}")
    return value


def _load_array(base: Path, key: str, rel, rank: int):
    data = load_tensor(base / _typed(key, rel, str)).data
    if data.ndim != rank:
        raise ManifestError(f"{key}: expected a rank-{rank} tensor, got rank {data.ndim}")
    return data


def _load_feature_map(base: Path, key: str, rel) -> FeatureMap:
    return FeatureMap(_load_array(base, key, rel, 3))


def _load_mask(base: Path, key: str, rel) -> SoftMask:
    data = _load_array(base, key, rel, 2)
    try:
        return SoftMask(data)
    except ValueError as err:
        raise ManifestError(f"{key}: {err}") from err


def _load_linear(base: Path, cfg: dict, weight_key: str, bias_key: str) -> LinearParams:
    weight = _load_array(base, weight_key, cfg[weight_key], 2)
    bias = None
    if bias_key in cfg:
        bias = _load_array(base, bias_key, cfg[bias_key], 1)
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
    kwargs = {
        key: _typed(key, cfg[key], kind)
        for key, kind in _SCALAR_KEYS.items()
        if key in cfg
    }
    if "window" in cfg:
        window = cfg["window"]
        if (
            not isinstance(window, list)
            or len(window) != 2
            or not all(type(v) is int and v > 0 for v in window)
        ):
            raise ManifestError("window: expected two positive integers")
        kwargs["window"] = tuple(window)
    if "sim_weight" in cfg:
        kwargs["sim_params"] = _load_linear(base, cfg, "sim_weight", "sim_bias")
    elif "sim_bias" in cfg:
        raise ManifestError("sim_bias: given without sim_weight")
    mlp_keys = [k for k in _FILE_KEYS[2:] if k in cfg]
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


def load_synth_spec(path) -> SynthSpec:
    """Load a synth spec document."""
    doc = _read_json(path)
    spec_fields = fields(SynthSpec)
    for f in spec_fields:
        if f.default is MISSING:
            _require(doc, f.name)
    unknown = set(doc) - {f.name for f in spec_fields}
    if unknown:
        raise ManifestError(f"{sorted(unknown)[0]}: unknown synth key")
    for key, kind in _scalar_fields(SynthSpec).items():
        if key in doc:
            _typed(key, doc[key], kind)
    center = doc["center"]
    if not isinstance(center, list) or len(center) != 2:
        raise ManifestError("center: expected [row, col]")
    doc["center"] = tuple(_typed("center", v, float) for v in center)
    if isinstance(doc["size"], list):
        doc["size"] = tuple(doc["size"])
    try:
        return SynthSpec(**doc)
    except (TypeError, ValueError) as err:
        raise ManifestError(f"{path}: {err}") from err

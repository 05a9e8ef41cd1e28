"""The episode-directory format, read and written here only:
``load_episode_manifest`` reads a manifest, ``load_synth_spec`` a synth
spec, and ``write_synth_directory`` writes both.

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
are required. A synth directory holds ``<key>.t`` per single-file key,
``aux_NNN.t``, ``manifest.json`` and the ``spec.json`` echo.
"""

from __future__ import annotations

import json
import typing
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np

from .episode import Episode, EpisodeConfig
from .errors import ManifestError
from .scc import LinearParams, TwoLayerParams
from .synth import SynthSpec, synth_episode
from .tensor import FeatureMap, SoftMask
from .tensorfile import DTYPE_F64, DTYPE_U8, load_tensor, save_tensor

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

# manifest keys naming one tensor file each, in Episode field order, with
# the dtype code a synth directory writes each in
_TENSOR_KEYS = {
    "support_features": DTYPE_F64,
    "support_mask": DTYPE_U8,
    "query_features": DTYPE_F64,
    "query_mask": DTYPE_U8,
}
_MANIFEST_KEYS = {*_TENSOR_KEYS, "auxiliary_features", "config"}


def _read_json(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise ManifestError(f"{path}: {err}") from err
    if not isinstance(doc, dict):
        raise ManifestError(f"{path}: top level must be an object")
    return doc


def _keyed(key, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a ValueError or TypeError names ``key``."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError) as err:
        raise ManifestError(f"{key}: {err}") from err


def _require(doc: dict, key: str):
    if key not in doc:
        raise ManifestError(f"{key}: required key missing")
    return doc[key]


def _typed(key: str, value, kind: type):
    """``value``, if a field of type ``kind`` accepts it."""
    if isinstance(value, bool) or not isinstance(value, _ACCEPTS[kind]):
        raise ManifestError(f"{key}: expected {kind.__name__}, got {value!r}")
    return value


def _check_keys(doc: dict, known: set, kind: str, scalars: dict) -> dict:
    """Reject the first key of ``doc`` outside ``known``; return the scalar
    fields (``scalars``: key -> type) that ``doc`` sets, each type-checked."""
    unknown = set(doc) - known
    if unknown:
        raise ManifestError(f"{sorted(unknown)[0]}: unknown {kind} key")
    return {key: _typed(key, doc[key], t) for key, t in scalars.items() if key in doc}


def _load_array(base: Path, key: str, rel, rank: int):
    data = load_tensor(base / _typed(key, rel, str)).data
    if data.ndim != rank:
        raise ManifestError(f"{key}: expected a rank-{rank} tensor, got rank {data.ndim}")
    return data


def _load_feature_map(base: Path, key: str, rel) -> FeatureMap:
    return FeatureMap(_load_array(base, key, rel, 3))


def _load_mask(base: Path, key: str, rel) -> SoftMask:
    return _keyed(key, SoftMask, _load_array(base, key, rel, 2))


def _load_linear(base: Path, cfg: dict, weight_key: str, bias_key: str) -> LinearParams:
    weight = _load_array(base, weight_key, cfg[weight_key], 2)
    bias = None
    if bias_key in cfg:
        bias = _load_array(base, bias_key, cfg[bias_key], 1)
    return _keyed(weight_key, LinearParams, weight, bias)


def _parse_config(base: Path, cfg) -> EpisodeConfig:
    if not isinstance(cfg, dict):
        raise ManifestError("config: expected an object")
    kwargs = _check_keys(cfg, _CONFIG_KEYS, "config", _SCALAR_KEYS)
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
        kwargs["calibration_params"] = _keyed("h_w2", TwoLayerParams, first, second)
    return _keyed("config", EpisodeConfig, **kwargs)


def load_episode_manifest(path) -> Episode:
    """Load an episode manifest and every file it references."""
    path = Path(path)
    doc = _read_json(path)
    _check_keys(doc, _MANIFEST_KEYS, "manifest", {})
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
    query_mask = _load_mask(base, "query_mask", doc["query_mask"]) if "query_mask" in doc else None
    return _keyed(
        path, Episode, support=(support, support_mask), auxiliary=auxiliary,
        query=query, query_mask=query_mask, config=config,
    )


def load_synth_spec(path) -> SynthSpec:
    """Load a synth spec document."""
    doc = _read_json(path)
    spec_fields = fields(SynthSpec)
    for f in spec_fields:
        if f.default is MISSING:
            _require(doc, f.name)
    _check_keys(doc, {f.name for f in spec_fields}, "synth", _scalar_fields(SynthSpec))
    for key in ("center", "size"):
        if isinstance(doc[key], list):
            doc[key] = tuple(doc[key])
    return _keyed(path, SynthSpec, **doc)


def write_synth_directory(spec: SynthSpec, out_dir) -> None:
    """Write ``spec``'s episode to ``out_dir`` as a manifest directory
    that ``load_episode_manifest`` reads back exactly, with a ``spec.json``
    echo that ``load_synth_spec`` reads back."""
    ep, _ = synth_episode(spec)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    aux_names = [f"aux_{i:03d}.t" for i in range(len(ep.auxiliary))]
    manifest = {"auxiliary_features": aux_names, "config": {}}
    for (key, code), item in zip(_TENSOR_KEYS.items(), (*ep.support, ep.query, ep.query_mask)):
        manifest[key] = f"{key}.t"
        save_tensor(out_dir / manifest[key], item.data, code)
    for name, aux in zip(aux_names, ep.auxiliary):
        save_tensor(out_dir / name, aux.data, DTYPE_F64)
    for name, doc in (("manifest.json", manifest), ("spec.json", asdict(spec))):
        text = json.dumps(doc, default=np.ndarray.tolist, sort_keys=True, indent=2)
        (out_dir / name).write_text(text + "\n")  # spec arrays become lists

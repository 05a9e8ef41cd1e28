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

File entries must be strings. Every other value goes to the container
it belongs to (EpisodeConfig, SynthSpec, FeatureMap, SoftMask,
LinearParams), whose own check fails as a ManifestError that names the
key. Synth spec keys are the fields of SynthSpec; those without a
default are required. A synth directory holds ``<key>.t`` per
single-file key, ``aux_NNN.t``, ``manifest.json`` and the ``spec.json``
echo.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np

from .episode import Episode, EpisodeConfig
from .errors import ManifestError
from .scc import LinearParams, TwoLayerParams
from .synth import SynthSpec, synth_episode
from .tensor import FeatureMap, SoftMask
from .tensorfile import DTYPE_F64, DTYPE_U8, load_tensor, save_tensor

# value keys go to EpisodeConfig as they are; file keys name the
# (weight, bias) tensors of the similarity map and of each MLP layer
_VALUE_KEYS = {f.name for f in fields(EpisodeConfig)} - {"sim_params", "calibration_params"}
_FILE_KEYS = ("sim_weight", "sim_bias", "h_w1", "h_b1", "h_w2", "h_b2")
_CONFIG_KEYS = {*_VALUE_KEYS, *_FILE_KEYS}

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


def _check_keys(doc: dict, known: set, kind: str) -> None:
    """Reject the first key of ``doc`` outside ``known``."""
    unknown = set(doc) - known
    if unknown:
        raise ManifestError(f"{sorted(unknown)[0]}: unknown {kind} key")


def _load(base: Path, key: str, rel, build, *args):
    """``build(array, *args)`` on the tensor file at path ``rel``; a bad
    path or a ``build`` error names ``key``."""
    if not isinstance(rel, str):
        raise ManifestError(f"{key}: expected str, got {rel!r}")
    return _keyed(key, build, load_tensor(base / rel).data, *args)


def _load_linear(base: Path, cfg: dict, weight_key: str, bias_key: str) -> LinearParams:
    bias = _load(base, bias_key, cfg[bias_key], np.asarray) if bias_key in cfg else None
    return _load(base, weight_key, cfg[weight_key], LinearParams, bias)


def _parse_config(base: Path, cfg) -> EpisodeConfig:
    if not isinstance(cfg, dict):
        raise ManifestError("config: expected an object")
    _check_keys(cfg, _CONFIG_KEYS, "config")
    kwargs = {key: cfg[key] for key in _VALUE_KEYS if key in cfg}
    if isinstance(kwargs.get("window"), list):
        kwargs["window"] = tuple(kwargs["window"])
    if "sim_weight" in cfg:
        kwargs["sim_params"] = _load_linear(base, cfg, "sim_weight", "sim_bias")
    elif "sim_bias" in cfg:
        raise ManifestError("sim_bias: given without sim_weight")
    mlp_keys = [k for k in _FILE_KEYS[2:] if k in cfg]
    if mlp_keys and not {"h_w1", "h_w2"} <= set(cfg):
        raise ManifestError(f"{mlp_keys[0]}: calibration MLP needs both h_w1 and h_w2")
    if mlp_keys:
        first = _load_linear(base, cfg, "h_w1", "h_b1")
        second = _load_linear(base, cfg, "h_w2", "h_b2")
        kwargs["calibration_params"] = _keyed("h_w2", TwoLayerParams, first, second)
    return _keyed("config", EpisodeConfig, **kwargs)


def load_episode_manifest(path) -> Episode:
    """Load an episode manifest and every file it references."""
    path = Path(path)
    doc = _read_json(path)
    _check_keys(doc, _MANIFEST_KEYS, "manifest")
    base = path.parent
    config = _parse_config(base, doc.get("config", {}))
    support = _load(base, "support_features", _require(doc, "support_features"), FeatureMap)
    support_mask = _load(base, "support_mask", _require(doc, "support_mask"), SoftMask)
    aux_entries = doc.get("auxiliary_features", [])
    if not isinstance(aux_entries, list):
        raise ManifestError("auxiliary_features: expected a list of paths")
    auxiliary = tuple(
        _load(base, f"auxiliary_features[{i}]", rel, FeatureMap)
        for i, rel in enumerate(aux_entries)
    )
    query = _load(base, "query_features", _require(doc, "query_features"), FeatureMap)
    query_mask = None
    if "query_mask" in doc:
        query_mask = _load(base, "query_mask", doc["query_mask"], SoftMask)
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
    _check_keys(doc, {f.name for f in spec_fields}, "synth")
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

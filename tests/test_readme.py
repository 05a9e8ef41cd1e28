"""The README's knob lists match the code, so a removed knob cannot linger."""

import ast
import json
import re
from dataclasses import fields
from pathlib import Path

from poissonprop import EpisodeConfig
from poissonprop.manifest import _CONFIG_KEYS, _SCALAR_KEYS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_manifest_example_lists_every_config_key():
    section = README.split("## Episode manifest\n", 1)[1]
    example = re.search(r"```json\n(.*?)```", section, re.S)
    assert set(json.loads(example.group(1))["config"]) == _CONFIG_KEYS


def test_defaults_sentence_names_every_knob_with_its_default():
    sentence = README.split("knobs with defaults", 1)[1].split("\n\n", 1)[0]
    named = dict(re.findall(r"`(\w+)=([^`]+)`", sentence))
    assert set(_SCALAR_KEYS) <= set(named)
    defaults = {f.name: f.default for f in fields(EpisodeConfig)}
    for knob, text in named.items():
        assert knob in defaults, f"README names a removed knob {knob!r}"
        assert ast.literal_eval(text) == defaults[knob], knob

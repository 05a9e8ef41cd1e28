"""The README's knob lists match the code, so a removed knob cannot linger."""

import argparse
import ast
import json
import re
from dataclasses import fields
from pathlib import Path

from poissonprop import EpisodeConfig
from poissonprop.cli import _PARSER
from poissonprop.manifest import _CONFIG_KEYS, _MANIFEST_KEYS, _VALUE_KEYS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_manifest_example_lists_every_config_key():
    section = README.split("## Episode manifest\n", 1)[1]
    example = re.search(r"```json\n(.*?)```", section, re.S)
    doc = json.loads(example.group(1))
    assert set(doc) == _MANIFEST_KEYS
    assert set(doc["config"]) == _CONFIG_KEYS


def test_defaults_sentence_names_every_knob_with_its_default():
    sentence = README.split("knobs with defaults", 1)[1].split("\n\n", 1)[0]
    named = dict(re.findall(r"`(\w+)=([^`]+)`", sentence))
    assert _VALUE_KEYS <= set(named)
    defaults = {f.name: f.default for f in fields(EpisodeConfig)}
    for knob, text in named.items():
        assert knob in defaults, f"README names a removed knob {knob!r}"
        assert ast.literal_eval(text) == defaults[knob], knob


def test_cli_block_flags_match_parser():
    section = README.split("## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    documented = {
        (sub, flag)
        for sub, rest in re.findall(r"^poissonprop (\w+)(.*)$", block, re.M)
        for flag in re.findall(r"(--[\w-]+)", rest.split("#")[0])
    }
    subparsers = next(a for a in _PARSER._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {
        (sub, flag)
        for sub, parser in subparsers.choices.items()
        for action in parser._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }
    assert documented == parsed

"""The config validator of ``cli.load_config`` against jsonschema.

``load_config`` interprets ``CONFIG_SCHEMA`` itself, so that the CLI does not
import jsonschema; here jsonschema is the reference.  The corpus is every
shipped instance plus one mutation per schema keyword.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import jsonschema
import pytest

from nilorbit import cli

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = sorted((ROOT / "instances").glob("*.json"))
BASE = json.loads((ROOT / "instances" / "heisenberg_pair.json").read_text())

_DROP = object()


def _mutated(path: tuple, value):
    """BASE with the value at ``path`` replaced (or dropped, for _DROP)."""
    doc = copy.deepcopy(BASE)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is _DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


MUTATIONS = {
    "unexpected_key": _mutated(("surprise",), 1),
    "missing_group": _mutated(("group",), _DROP),
    "missing_dim": _mutated(("group", "dim"), _DROP),
    "group_extra_key": _mutated(("group", "rank"), 2),
    "dim_true": _mutated(("group", "dim"), True),
    "dim_string": _mutated(("group", "dim"), "3"),
    "dim_below_minimum": _mutated(("group", "dim"), 1),
    "dim_integral_float": _mutated(("group", "dim"), 2.0),
    "dim_fraction": _mutated(("group", "dim"), 2.5),
    "blocks_below_minimum": _mutated(("group", "blocks"), [3, 1]),
    "floor_mode_enum": _mutated(("floor_mode",), "ceil"),
    "precision_enum": _mutated(("precision",), "quad"),
    "closure_enum": _mutated(("declared_closure",), "partial"),
    "window_manual": _mutated(("window",), "manual"),
    "window_auto": _mutated(("window",), "auto"),
    "window_gamma_null": _mutated(("window",), {"gamma": None}),
    "window_gamma_number": _mutated(("window",), {"gamma": 0.6}),
    "window_extra_key": _mutated(("window",), {"gamma": "3/5", "order": 2}),
    "window_empty": _mutated(("window",), {}),
    "N_grid_zero": _mutated(("N_grid",), [0]),
    "N_grid_fraction": _mutated(("N_grid",), [1.5]),
    "N_grid_number": _mutated(("N_grid",), 7),
    "N_grid_list": _mutated(("N_grid",), [10, 100]),
    "N_grid_empty": _mutated(("N_grid",), []),
    "test_without_type": _mutated(("tests", 0), {"k": [1, 0]}),
    "test_type_enum": _mutated(("tests", 0, "type"), "cube"),
    "test_extra_key": _mutated(("tests", 0, "weight"), 1),
    "coords_bool": _mutated(("tests", 0), {"type": "bump", "coords": [0, True]}),
    "k_float": _mutated(("tests", 0, "k"), [1.0, 0]),
    "generator_bool": _mutated(("generators", 0, 0), False),
    "generator_null": _mutated(("generators", 0, 0), None),
    "generator_not_list": _mutated(("generators", 0), "phi"),
    "base_point_object": _mutated(("base_point", 0), {}),
    "allow_beyond_cap_1": _mutated(("allow_beyond_cap",), 1),
    "allow_beyond_cap_true": _mutated(("allow_beyond_cap",), True),
    "N_cap_zero": _mutated(("N_cap",), 0),
    "N_cap_float": _mutated(("N_cap",), 1e7),
    "N_cap_huge_integer": _mutated(("N_cap",), 10 ** 400),
    "seed_string": _mutated(("seed",), "0"),
    "functions_string": _mutated(("functions",), "t"),
    "functions_number": _mutated(("functions", 1), 3),
    "top_level_list": [],
    "top_level_string": "x",
    "top_level_null": None,
    "top_level_number": 3,
}
CORPUS = {**{p.stem: json.loads(p.read_text()) for p in INSTANCES}, **MUTATIONS}
REFERENCE = jsonschema.validators.validator_for(cli.CONFIG_SCHEMA)(cli.CONFIG_SCHEMA)


def _write(tmp_path, doc) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_validator_agrees_with_jsonschema(name, tmp_path):
    doc = CORPUS[name]
    path = _write(tmp_path, doc)
    if REFERENCE.is_valid(doc):
        assert cli.load_config(path) == doc
    else:
        with pytest.raises(cli.ConfigError, match="^config schema violation: \\$"):
            cli.load_config(path)


def test_corpus_covers_both_verdicts():
    valid = {name for name, doc in CORPUS.items() if REFERENCE.is_valid(doc)}
    assert {p.stem for p in INSTANCES} | {"dim_integral_float", "window_auto"} <= valid
    assert len(CORPUS) - len(valid) >= 30


@pytest.mark.parametrize("name", sorted(n for n, d in CORPUS.items()
                                        if not REFERENCE.is_valid(d)))
def test_rejected_configs_exit_2(name, tmp_path, capsys):
    rc = cli.main(["window", _write(tmp_path, CORPUS[name])])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_CONFIG
    assert "config schema violation" in err and "Traceback" not in err


def test_violation_names_the_json_path(tmp_path):
    with pytest.raises(cli.ConfigError, match=r"\$\.tests\[0\]\.coords\[1\]: True"):
        cli.load_config(_write(tmp_path, MUTATIONS["coords_bool"]))
    with pytest.raises(cli.ConfigError, match=r"\$\.group: 'dim' is a required"):
        cli.load_config(_write(tmp_path, MUTATIONS["missing_dim"]))

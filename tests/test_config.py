import json

import pytest

from graphamp import ConfigError, ExperimentConfig, load, loads

GOOD = """
{
  "model": {"kind": "lasso", "d": 200, "aspect": 0.5, "lam": 1.2,
            "noise_sigma": 0.5},
  "T": 6,
  "amp_seeds": [0, 1],
  "se_samples": 500,
  "quadrature": "mc",
  "out": "out_dir"
}
"""


def test_loads_good_config():
    cfg = loads(GOOD)
    assert cfg.kind == "lasso"
    assert cfg.T == 6
    assert cfg.amp_seeds == (0, 1)
    assert cfg.model["lam"] == 1.2
    assert cfg.quadrature == "mc"
    assert cfg.out == "out_dir"


def test_unknown_top_level_key_is_rejected_by_name():
    raw = json.loads(GOOD)
    raw["bogus"] = 1
    with pytest.raises(ConfigError, match="bogus: unknown key"):
        loads(json.dumps(raw))


def test_unknown_model_key_names_the_kind():
    raw = json.loads(GOOD)
    raw["model"]["bogus"] = 1
    with pytest.raises(ConfigError, match="model.bogus: unknown key"):
        loads(json.dumps(raw))


def test_missing_required_model_key():
    raw = json.loads(GOOD)
    del raw["model"]["lam"]
    with pytest.raises(ConfigError, match="model.lam: missing required"):
        loads(json.dumps(raw))


def test_unknown_model_kind_lists_choices():
    raw = json.loads(GOOD)
    raw["model"]["kind"] = "percptron"
    with pytest.raises(ConfigError, match="unknown model 'percptron'"):
        loads(json.dumps(raw))


def test_json_syntax_error_reports_line_and_column():
    with pytest.raises(ConfigError, match=r"line 1, column 11"):
        loads('{"model": }')


def test_int_literal_too_long_to_read_is_a_parse_error():
    # json refuses an int literal of more digits than int() may read
    with pytest.raises(ConfigError, match="JSON parse error: Exceeds the limit"):
        loads('{"model": {"kind": "lasso", "d": 1' + "0" * 5000 + "}}")


def test_bool_is_not_an_int():
    raw = json.loads(GOOD)
    raw["T"] = True
    with pytest.raises(ConfigError, match="T: expected int, got bool"):
        loads(json.dumps(raw))


def test_int_promotes_to_float_where_float_expected():
    raw = json.loads(GOOD)
    raw["model"]["lam"] = 1
    cfg = loads(json.dumps(raw))
    assert cfg.model["lam"] == 1.0
    assert isinstance(cfg.model["lam"], float)


def test_bad_quadrature_value():
    raw = json.loads(GOOD)
    raw["quadrature"] = "simpson"
    with pytest.raises(ConfigError, match="expected 'gh' or 'mc'"):
        loads(json.dumps(raw))


def test_empty_seed_list_is_rejected():
    raw = json.loads(GOOD)
    raw["amp_seeds"] = []
    with pytest.raises(ConfigError, match="amp_seeds: must be non-empty"):
        loads(json.dumps(raw))


def test_nonpositive_iterations_rejected():
    raw = json.loads(GOOD)
    raw["T"] = 0
    with pytest.raises(ConfigError, match="T: must be >= 1"):
        loads(json.dumps(raw))


def test_canonical_json_is_key_sorted_and_stable():
    cfg = loads(GOOD)
    text = cfg.canonical_json()
    parsed = json.loads(text)
    assert list(parsed) == sorted(parsed)
    assert text == loads(GOOD).canonical_json()


def test_config_hash_tracks_content_not_formatting():
    cfg = loads(GOOD)
    spaced = GOOD.replace("\n", "\n ")
    assert loads(spaced).config_hash() == cfg.config_hash()
    raw = json.loads(GOOD)
    raw["T"] = 7
    assert loads(json.dumps(raw)).config_hash() != cfg.config_hash()
    assert len(cfg.config_hash()) == 16


def test_load_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load(str(tmp_path / "nope.json"))


def test_load_reads_from_disk(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(GOOD)
    cfg = load(str(p))
    assert cfg == loads(GOOD)


def test_defaults_match_documented_values():
    cfg = ExperimentConfig(model={"kind": "lasso"}, T=3)
    assert cfg.se_samples == 2000
    assert cfg.quadrature == "gh"
    assert cfg.observables == ("norm_sq", "mse", "overlap")


def test_workers_key_is_rejected():
    # the worker count comes from --workers only
    raw = json.loads(GOOD)
    raw["workers"] = 2
    with pytest.raises(ConfigError, match="workers: unknown key"):
        loads(json.dumps(raw))


# the gate thresholds and the SE chunk size are fixed, not settings
DROPPED = {"tolerances": {"rel": 0.04}, "se_chunk": 64}


@pytest.mark.parametrize("key", sorted(DROPPED))
def test_dropped_settings_are_rejected(key):
    raw = json.loads(GOOD)
    raw[key] = DROPPED[key]
    with pytest.raises(ConfigError, match=f"{key}: unknown key"):
        loads(json.dumps(raw))


def test_unknown_observable_is_rejected_by_index():
    raw = json.loads(GOOD)
    raw["observables"] = ["mse", "nrm_sq"]
    with pytest.raises(ConfigError, match="observables\\[1\\]: unknown "
                                          "observable 'nrm_sq'"):
        loads(json.dumps(raw))


@pytest.mark.parametrize("key, value", [("signal_weight", 123.0),
                                        ("planted", True)])
def test_unread_multilayer_keys_are_rejected(key, value):
    raw = {"model": {"kind": "multilayer", "d0": 10, "dims": [8, 6],
                     "activations": ["linear", "relu"], key: value}, "T": 2}
    with pytest.raises(ConfigError, match=f"model.{key}: unknown key"):
        loads(json.dumps(raw))

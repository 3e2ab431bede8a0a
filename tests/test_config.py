"""Config tree: defaults, validation paths, suggestions, round trips."""

import copy
import json
import re
from dataclasses import MISSING, fields

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from renderopt.bench import CostModel, RenderPolicy, WorkloadConfig
from renderopt.config import DEFAULTS, load_config, parse_config
from renderopt.diffusion import DenoiserConfig, NoiseSchedule, TrainSettings
from renderopt.errors import ConfigError
from renderopt.game import SolverSettings
from renderopt.prerender import EncodingSpec, GridWorld, TimingModel


def _key_paths(node, keys=()):
    """(keys, dotted path) of every value below the root of `node`."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        sub = keys + (key,)
        yield sub, "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in sub)[1:]
        if isinstance(value, (dict, list)):
            yield from _key_paths(value, sub)


KEY_PATHS = list(_key_paths(DEFAULTS))

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


class TestDefaults:
    def test_empty_text_yields_documented_defaults(self):
        cfg = parse_config("")
        assert cfg.data["prerender"]["spacing"] == 0.02
        assert cfg.data["diffusion"]["steps"] == 700
        assert cfg.data["diffusion"]["beta_start"] == 0.0001
        assert cfg.data["diffusion"]["beta_end"] == 0.04
        assert cfg.data["diffusion"]["learning_rate"] == 0.0001
        assert cfg.data["bench"]["mdp_discount"] == 0.95
        assert cfg.data["bench"]["ro_samples"] == 21
        assert cfg.data["bench"]["scenes"] == 20
        assert cfg.data["bench"]["frames_per_scene"] == 3600
        assert cfg.seed == 0

    def test_empty_file_loads(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        assert load_config(path).data == parse_config("").data

    def test_none_path_loads_defaults(self):
        assert load_config(None).data == DEFAULTS


class TestValidation:
    def test_negative_learning_rate_names_key_path(self):
        with pytest.raises(ConfigError, match="diffusion.learning_rate"):
            parse_config(json.dumps({"diffusion": {"learning_rate": -0.1}}))

    def test_unknown_top_key_suggests_neighbor(self):
        with pytest.raises(ConfigError, match="diffusoin.*did you mean 'diffusion'"):
            parse_config(json.dumps({"diffusoin": {}}))

    def test_unknown_nested_key_names_full_path(self):
        with pytest.raises(ConfigError, match="prerender.timing.bandwdith"):
            parse_config(json.dumps({"prerender": {"timing": {"bandwdith": 1}}}))

    def test_cross_field_rules(self):
        with pytest.raises(ConfigError, match="frames_per_scene"):
            parse_config(json.dumps({"bench": {"frames_per_scene": 100}}))
        with pytest.raises(ConfigError, match="d_model"):
            parse_config(json.dumps({"diffusion": {"d_model": 62, "heads": 4}}))
        with pytest.raises(ConfigError, match="beta_start"):
            parse_config(json.dumps({"diffusion": {"beta_start": 0.05}}))
        with pytest.raises(ConfigError, match="stride"):
            parse_config(json.dumps({"bench": {"stride": 33}}))

    def test_game_section_rules(self):
        with pytest.raises(ConfigError, match="game.nodes"):
            parse_config(json.dumps({"game": {"nodes": []}}))
        with pytest.raises(ConfigError, match=r"game.nodes\[0\].alpha"):
            parse_config(json.dumps({"game": {"nodes": [
                {"id": "a", "alpha": -1.0, "beta": 0.0, "demand_max": 1.0}]}}))
        with pytest.raises(ConfigError, match="game.cloud"):
            parse_config(json.dumps({"game": {"cloud": {
                "unit_cost": 0.5, "price_min": 0.4, "price_max": 2.0,
                "capacity": 8.0}}}))
        with pytest.raises(ConfigError, match=r"game.nodes\[0\].beta: missing"):
            parse_config(json.dumps({"game": {"nodes": [
                {"id": "a", "alpha": 1.0, "demand_max": 1.0}]}}))
        with pytest.raises(ConfigError, match=r"game.nodes\[0\].alpah: unknown key"):
            parse_config(json.dumps({"game": {"nodes": [{"alpah": 1.0}]}}))

    def test_unprintable_unknown_key_named_on_one_line(self):
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps({"diffusion": {"a\nb": 1}}))
        assert str(info.value) == "diffusion.'a\\nb': unknown key"

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigError, match="prerender.spacing"):
            parse_config(json.dumps({"prerender": {"spacing": True}}))

    def test_parse_error_reported(self):
        with pytest.raises(ConfigError, match="parse error"):
            parse_config("{not json")
        with pytest.raises(ConfigError, match="parse error"):
            parse_config('{"a": ' + "[" * 100_000 + "]" * 100_000 + "}")

    def test_type_follows_default(self):
        with pytest.raises(ConfigError, match="prerender.width: must be an integer"):
            parse_config(json.dumps({"prerender": {"width": 20.0}}))
        with pytest.raises(ConfigError, match="out_dir: must be a non-empty string"):
            parse_config(json.dumps({"out_dir": ""}))

    def test_readme_error_example(self):
        with pytest.raises(ConfigError) as info:
            parse_config('{"diffusion": {"learning_rate": -1}}')
        assert str(info.value) == "diffusion.learning_rate: must be a positive number, got -1"

    @hyp_settings(max_examples=400, deadline=None)
    @given(target=st.sampled_from(KEY_PATHS), value=JSON_VALUES)
    def test_any_replaced_value_loads_or_names_its_key(self, target, value):
        keys, path = target
        tree = copy.deepcopy(DEFAULTS)
        node = tree
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        try:
            parse_config(json.dumps(tree))
        except ConfigError as exc:
            msg = str(exc)
            if not re.match(re.escape(path) + r"[.:\[]", msg):
                # a rule tying two keys of one object may be reported on the
                # partner key; the message then names the replaced one
                parent, _, leaf = path.rpartition(".")
                assert parent and msg.startswith(parent + ".") and leaf in msg, msg

    def test_missing_file_reported(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/config.json")


class TestRoundTrip:
    def test_serialize_parse_idempotent(self):
        first = parse_config(json.dumps({"seed": 7, "diffusion": {"epochs": 3}}))
        second = parse_config(first.serialize())
        assert first.data == second.data
        assert first.serialize() == second.serialize()

    def test_digest_stable_under_key_order(self):
        a = parse_config('{"seed": 1, "out_dir": "x"}')
        b = parse_config('{"out_dir": "x", "seed": 1}')
        assert a.digest() == b.digest()

    def test_digest_sensitive_to_values(self):
        a = parse_config('{"seed": 1}')
        b = parse_config('{"seed": 2}')
        assert a.digest() != b.digest()

    def test_user_overrides_survive(self):
        cfg = parse_config(json.dumps({"bench": {"scenes": 5, "fps": 30,
                                                 "frames_per_scene": 1800}}))
        assert cfg.data["bench"]["scenes"] == 5
        assert cfg.data["bench"]["frames_per_scene"] == 1800
        assert cfg.data["bench"]["ro_samples"] == 21


class TestSingleSource:
    # dataclasses whose field defaults repeat a leaf of the config section
    SECTIONS = [
        (SolverSettings, "game.solver"), (GridWorld, "prerender"),
        (TimingModel, "prerender.timing"), (EncodingSpec, "prerender.encoding"),
        (NoiseSchedule, "diffusion"), (DenoiserConfig, "diffusion"),
        (TrainSettings, "diffusion"), (WorkloadConfig, "bench"), (CostModel, "bench"),
        (RenderPolicy, "bench"),
    ]

    @pytest.mark.parametrize("cls, path", SECTIONS, ids=[c.__name__ for c, _ in SECTIONS])
    def test_dataclass_defaults_match_config_defaults(self, cls, path):
        section = DEFAULTS
        for key in path.split("."):
            section = section[key]
        shared = {f.name: f.default for f in fields(cls)
                  if f.default is not MISSING and f.name in section}
        assert shared
        assert shared == {name: section[name] for name in shared}

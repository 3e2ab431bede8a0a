"""Config tree: defaults, validation paths, suggestions, round trips."""

import copy
import json
import re
from dataclasses import fields

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st
from oracles import CONFIG_DEFAULTS

from renderopt.bench import CostModel, RenderPolicy, WorkloadConfig, generate_workload
from renderopt.config import (DEFAULTS, SECTIONS, BenchTrainSettings, DiffusionSettings,
                              RunSettings, WalkSettings, load_config, parse_config)
from renderopt.diffusion import DenoiserConfig, NoiseSchedule, TrainSettings
from renderopt.errors import ConfigError, shown
from renderopt.game import CloudParams, SolverSettings
from renderopt.prerender import MAX_WALK_STEPS, EncodingSpec, GridWorld, TimingModel


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
        assert cfg.run.seed == 0

    def test_empty_file_loads(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        assert load_config(path).data == parse_config("").data

    def test_none_path_loads_defaults(self):
        assert load_config(None).data == DEFAULTS

    def test_defaults_equal_the_written_tree(self):
        # key order and JSON types included: 8000 and 8000.0 compare equal in Python
        data = load_config(None).data
        assert json.dumps(data) == json.dumps(CONFIG_DEFAULTS)
        assert ({path for _, path in _key_paths(data)}
                == {path for _, path in _key_paths(CONFIG_DEFAULTS)})

    def test_each_key_belongs_to_exactly_one_class(self):
        owners: dict = {}
        for sec in SECTIONS.values():
            for f in fields(sec["cls"]):
                if f.name not in sec["not_keys"]:
                    owners.setdefault((sec["path"], f.name), []).append(sec["cls"].__name__)
        assert {key: names for key, names in owners.items() if len(names) > 1} == {}
        keys = set()
        for sec in SECTIONS.values():
            section = CONFIG_DEFAULTS
            for key in filter(None, sec["path"].split(".")):
                section = section[key]
            if sec["entries"]:
                section = section[0]
            keys |= {(sec["path"], k) for k, v in section.items() if not isinstance(v, dict)}
        assert set(owners) == keys

    def test_bench_scenes_follow_diffusion_seq_len(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"diffusion": {"seq_len": 32}, "bench": {"scenes": 2}}))
        cfg = load_config(path)
        assert cfg.workload.seq_len == 32
        scenes = generate_workload(cfg.workload, seed=0).scenes
        assert [sc.user.sequence_raw.shape[0] for sc in scenes] == [32, 32]


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

    def test_key_given_twice_refused(self):
        # refused where the text is read, before the tree is checked: a nested
        # unknown key given twice is reported as given twice, its name cut
        for text, key in (('{"seed": 1, "seed": 1}', "'seed'"),
                          ('{"game": {"cloud": {"unit_cost": 0.3, "unit_cost": 0.5}}}',
                           "'unit_cost'"),
                          ('{"diffusion": {"%s": 1, "%s": 2}}' % ("k" * 99, "k" * 99),
                           shown("k" * 99))):
            with pytest.raises(ConfigError) as info:
                parse_config(text)
            assert str(info.value) == f"config: key {key} given twice"

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

    # rules of the keys that only the command line reads, each in its own class
    SETTINGS_RULES = [
        ({"seed": -1}, "seed: must be a non-negative integer, got -1"),
        ({"prerender": {"steps": 0}},
         f"prerender.steps: must be an integer in [1, {MAX_WALK_STEPS}], got 0"),
        ({"prerender": {"panorama_work": 0.0}},
         "prerender.panorama_work: must be a positive number, got 0.0"),
        ({"diffusion": {"seq_len": 15}},
         "diffusion.seq_len: must be an even integer in [2, 128], got 15"),
        ({"diffusion": {"seq_len": 130}},
         "diffusion.seq_len: must be an even integer in [2, 128], got 130"),
        ({"diffusion": {"dataset_users": 1}},
         "diffusion.dataset_users: must be an integer in [2, 10000], got 1"),
        ({"bench": {"train": {"users": 10_001}}},
         "bench.train.users: must be an integer in [2, 10000], got 10001"),
        ({"diffusion": {"infer_noise_step": 0}},
         "diffusion.infer_noise_step: must be an integer >= 1, got 0"),
        # the stride divides it, but a step is at least 1
        ({"diffusion": {"infer_noise_step": -35}},
         "diffusion.infer_noise_step: must be an integer >= 1, got -35"),
        ({"diffusion": {"stride": 3}},
         "diffusion.stride: must be a positive divisor of infer_noise_step (140), got 3"),
        ({"bench": {"train": {"learning_rate": 0.0}}},
         "bench.train.learning_rate: must be a positive number, got 0.0"),
    ]

    # a value at the edge of each rule's range
    EDGES_ACCEPTED = {"dataset_users": {"diffusion": {"dataset_users": 2}},
                      "train.users": {"bench": {"train": {"users": 2}}},
                      "ro_samples": {"bench": {"ro_samples": 1}},
                      "beta_end": {"diffusion": {"beta_end": 0.9999}}}

    @pytest.mark.parametrize("payload", EDGES_ACCEPTED.values(), ids=EDGES_ACCEPTED)
    def test_edge_value_accepted(self, payload):
        parse_config(json.dumps(payload))

    @pytest.mark.parametrize("beta_end", [1, 1.0, 1.5, 1.9999])
    def test_beta_end_of_one_or_more_refused(self, beta_end):
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps({"diffusion": {"beta_end": beta_end}}))
        assert str(info.value) == (
            f"diffusion.beta_end: must be in (beta_start (0.0001), 1), got {beta_end}")

    # a rule whose requirement repeats another of the user's values: a huge one is cut there too
    HUGE = 10 ** 200
    ECHOED_IN_REQUIREMENT = {
        "infer_noise_step": ({"diffusion": {"infer_noise_step": HUGE}}, "diffusion.stride: "
                             f"must be a positive divisor of infer_noise_step ({shown(HUGE)})"),
        "t_noise": ({"bench": {"t_noise": HUGE}},
                    f"bench.stride: must be a positive divisor of t_noise ({shown(HUGE)})"),
        "heads": ({"diffusion": {"heads": HUGE}},
                  f"diffusion.d_model: must be divisible by heads ({shown(HUGE)})"),
        "fps": ({"bench": {"fps": HUGE}},
                f"bench.frames_per_scene: must be fps * 60 = {shown(HUGE * 60)} "),
        "scenes": ({"bench": {"scenes": HUGE}}, "bench.regions_per_scene: "
                   f"must be an integer in [2, 100000 // scenes ({shown(HUGE)})]"),
        "lod_low": ({"bench": {"lod_low": HUGE}},
                    f"bench.lod_high: must be > lod_low ({shown(HUGE)})"),
        "unit_cost": ({"game": {"cloud": {"unit_cost": HUGE}}},
                      f"game.cloud.price_min: must be >= unit_cost ({shown(HUGE)})"),
        "price_min": ({"game": {"cloud": {"price_min": HUGE}}},
                      f"game.cloud.price_max: must be > price_min ({shown(HUGE)})"),
    }

    @pytest.mark.parametrize("payload, start", ECHOED_IN_REQUIREMENT.values(),
                             ids=ECHOED_IN_REQUIREMENT)
    def test_huge_value_cut_where_a_requirement_repeats_it(self, payload, start):
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(payload))
        assert str(info.value).startswith(start) and len(str(info.value)) <= 160, str(info.value)

    @pytest.mark.parametrize("payload, message", SETTINGS_RULES,
                             ids=[m.split(":")[0] for _, m in SETTINGS_RULES])
    def test_settings_class_rule_message(self, payload, message):
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(payload))
        assert str(info.value) == message

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
        with pytest.raises(FileNotFoundError):
            load_config("/nonexistent/config.json")


class TestRoundTrip:
    def test_serialize_parse_idempotent(self):
        first = parse_config(json.dumps({"seed": 7, "diffusion": {"epochs": 3}}))
        second = parse_config(json.dumps(first.data))
        assert first.data == second.data
        assert first.digest() == second.digest()

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
    # dataclasses whose field defaults are leaves of the config section
    SECTIONS = [
        (SolverSettings, "game.solver"), (GridWorld, "prerender"),
        (TimingModel, "prerender.timing"), (EncodingSpec, "prerender.encoding"),
        (NoiseSchedule, "diffusion"), (DenoiserConfig, "diffusion"),
        (TrainSettings, "diffusion"), (WorkloadConfig, "bench"), (CostModel, "bench"),
        (RenderPolicy, "bench"), (CloudParams, "game.cloud"), (RunSettings, ""),
        (WalkSettings, "prerender"), (DiffusionSettings, "diffusion"),
        (BenchTrainSettings, "bench.train"),
    ]

    @pytest.mark.parametrize("cls, path", SECTIONS, ids=[c.__name__ for c, _ in SECTIONS])
    def test_dataclass_defaults_match_config_defaults(self, cls, path):
        section = CONFIG_DEFAULTS
        for key in filter(None, path.split(".")):
            section = section[key]
        shared = {f.name: f.default for f in fields(cls) if f.name in section}
        assert shared
        assert shared == {name: section[name] for name in shared}

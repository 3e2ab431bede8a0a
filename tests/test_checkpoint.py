"""Checkpoint container: fidelity, header validation, cross-load behaviour."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from renderopt.cli import EXIT_CONFIG, main
from renderopt.diffusion import (AttentionGatedDenoiser, DenoiserConfig, NoiseSchedule,
                                 Standardizer, load_checkpoint, save_checkpoint)
from renderopt.diffusion.checkpoint import FORMAT_VERSION
from renderopt.diffusion.denoiser import param_shapes


def test_save_load_preserves_weights_and_predictions(smoke_trained, tmp_path):
    result, schedule, standardizer = smoke_trained
    path = tmp_path / "model.npz"
    save_checkpoint(path, result.model, schedule, standardizer)
    loaded, loaded_schedule, loaded_std = load_checkpoint(path)

    assert set(loaded.params) == set(result.model.params)
    for key in result.model.params:
        assert np.array_equal(loaded.params[key], result.model.params[key])
    assert loaded.step_count == result.model.step_count
    assert loaded_schedule.steps == schedule.steps
    assert np.array_equal(loaded_schedule.alpha_bar, schedule.alpha_bar)
    assert np.array_equal(loaded_std.mean, standardizer.mean)

    rng = np.random.default_rng(0)
    m_t = rng.standard_normal((16, 6))
    cond = rng.standard_normal(4)
    assert np.array_equal(loaded.predict(m_t, 140.0, cond),
                          result.model.predict(m_t, 140.0, cond))


def test_unsupported_format_version_rejected(smoke_trained, tmp_path):
    result, schedule, standardizer = smoke_trained
    path = tmp_path / "model.npz"
    save_checkpoint(path, result.model, schedule, standardizer)
    with np.load(path) as archive:
        arrays = {k: archive[k] for k in archive.files}
    meta = json.loads(bytes(arrays["meta"]).decode())
    meta["format_version"] = FORMAT_VERSION + 1
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    with pytest.raises(ValueError, match="format"):
        load_checkpoint(bad)


def test_shape_header_mismatch_rejected(smoke_trained, tmp_path):
    result, schedule, standardizer = smoke_trained
    path = tmp_path / "model.npz"
    save_checkpoint(path, result.model, schedule, standardizer)
    with np.load(path) as archive:
        arrays = {k: archive[k] for k in archive.files}
    arrays["param.out.b"] = np.zeros(7)
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    with pytest.raises(ValueError, match="shape"):
        load_checkpoint(bad)


# --- load-time validation on a tiny checkpoint -----------------------------

TINY = DenoiserConfig(d_model=8, heads=2)


def _tiny_archive() -> tuple[dict, dict]:
    """(arrays without meta, meta) of a freshly initialised tiny checkpoint."""
    buf = io.BytesIO()
    save_checkpoint(buf, AttentionGatedDenoiser(TINY, seed=0), NoiseSchedule(),
                    Standardizer(mean=np.zeros(6), std=np.ones(6)))
    buf.seek(0)
    with np.load(buf) as archive:
        arrays = {k: archive[k] for k in archive.files}
    meta = json.loads(bytes(arrays.pop("meta")).decode())
    return arrays, meta


def _pack(arrays: dict, meta) -> io.BytesIO:
    buf = io.BytesIO()
    np.savez(buf, **arrays, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))
    buf.seek(0)
    return buf


def _extra_tensor(arrays, meta):
    arrays["param.enc.mlp.w3"] = np.zeros((8, 8))


def _config_implies_other_shapes(arrays, meta):
    # header self-consistent for d_model 16, tensors still the d_model 8 ones
    meta["config"]["d_model"] = 16
    meta["shapes"] = {k: list(v) for k, v in
                      param_shapes(DenoiserConfig(d_model=16, heads=2)).items()}


def _locate(meta: dict, path: str) -> tuple[dict, str]:
    """The object holding a header key path, and the key; tensor names
    under `shapes` contain dots themselves."""
    *parents, leaf = path.split(".", 1) if path.startswith("shapes.") else path.split(".")
    node = meta
    for key in parents:
        node = node[key]
    return node, leaf


def _set(path, value):
    def edit(arrays, meta):
        node, leaf = _locate(meta, path)
        node[leaf] = value
    return edit


def _drop(path):
    def edit(arrays, meta):
        node, leaf = _locate(meta, path)
        del node[leaf]
    return edit


def _poison(key, index, value):
    def edit(arrays, meta):
        arrays[key] = arrays[key].copy()
        arrays[key].reshape(-1)[index] = value
    return edit


def _drop_tensor(key):
    def edit(arrays, meta):
        del arrays[key]
    return edit


def _drop_standardizer(arrays, meta):
    del arrays["standardizer.mean"], arrays["standardizer.std"]


CORRUPTIONS = [
    ("missing-tensor", _drop_tensor("param.enc.mlp.w2"), "checkpoint tensor param.enc.mlp.w2: missing"),
    ("extra-tensor", _extra_tensor, "checkpoint tensor 'param.enc.mlp.w3': not a tensor"),
    ("tensor-shape", _set("shapes.out.b", [7]), "checkpoint header shapes.out.b: must be [6]"),
    ("config-shapes", _config_implies_other_shapes,
     "checkpoint tensor param.in.w: shape (6, 8) does not match (6, 16)"),
    ("missing-config-key", _drop("config.heads"), "checkpoint header: missing key config.heads"),
    ("missing-section", _drop("schedule"), "checkpoint header: missing key schedule"),
    ("missing-step-count", _drop("step_count"), "checkpoint header: missing key step_count"),
    ("missing-version", _drop("format_version"),
     "checkpoint header: missing key format_version"),
    ("string-int", _set("config.d_model", "8"),
     "checkpoint header config.d_model: must be an integer, got '8'"),
    ("bool-int", _set("config.heads", True),
     "checkpoint header config.heads: must be an integer, got True"),
    ("float-int", _set("step_count", 2.5),
     "checkpoint header step_count: must be an integer, got 2.5"),
    ("nan-number", _set("schedule.beta_end", float("nan")),
     "checkpoint header schedule.beta_end: must be a finite number, got nan"),
    ("section-type", _set("config", [8]), "checkpoint header config: must be an object"),
    ("invalid-config", _set("config.d_model", 7), "checkpoint header config.d_model: must be even"),
    ("invalid-schedule", _set("schedule.beta_start", 2.0),
     "checkpoint header schedule.beta_start: must be in (0, 1)"),
    ("unknown-config-key", _set("config.layers", 3),
     "checkpoint header config: unknown key 'layers'"),
    ("negative-step-count", _set("step_count", -1),
     "checkpoint header step_count: must be an integer >= 0"),
    ("nan-weight", _poison("param.enc.attn.wq", 5, np.nan),
     "checkpoint tensor param.enc.attn.wq: holds non-finite values"),
    ("inf-weight", _poison("param.out.b", 0, np.inf),
     "checkpoint tensor param.out.b: holds non-finite values"),
    ("inf-standardizer", _poison("standardizer.mean", 2, -np.inf),
     "checkpoint tensor standardizer.mean: holds non-finite values"),
    ("zero-std", _poison("standardizer.std", 1, 0.0),
     "checkpoint tensor standardizer.std: holds a value <= 0"),
    ("half-standardizer", _drop_tensor("standardizer.std"),
     "checkpoint tensor standardizer.std: missing"),
    ("no-standardizer", _drop_standardizer, "checkpoint tensor standardizer.mean: missing"),
    ("integer-tensor", lambda arrays, meta: arrays.update({"param.out.b": np.zeros(6, int)}),
     "checkpoint tensor param.out.b: not a floating-point array"),
]


@pytest.mark.parametrize("edit, message", [c[1:] for c in CORRUPTIONS],
                         ids=[c[0] for c in CORRUPTIONS])
def test_corrupt_checkpoint_rejected_naming_the_problem(edit, message):
    arrays, meta = _tiny_archive()
    edit(arrays, meta)
    with pytest.raises(ValueError) as info:
        load_checkpoint(_pack(arrays, meta))
    assert str(info.value).startswith(message)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("payload", [b"", b"not an archive at all", b"PK\x03\x04broken"],
                         ids=["empty", "text", "truncated-zip"])
def test_unreadable_archive_rejected(tmp_path, payload):
    path = tmp_path / "model.npz"
    path.write_bytes(payload)
    with pytest.raises(ValueError, match="not a readable .npz archive"):
        load_checkpoint(path)


def test_single_array_file_rejected(tmp_path):
    path = tmp_path / "model.npy"
    np.save(path, np.zeros(3))
    with pytest.raises(ValueError, match="not a readable .npz archive"):
        load_checkpoint(path)


def test_no_meta_entry_rejected():
    arrays, _ = _tiny_archive()
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    buf.seek(0)
    with pytest.raises(ValueError, match="checkpoint has no meta header"):
        load_checkpoint(buf)


def test_loading_draws_no_random_weights(monkeypatch):
    arrays, meta = _tiny_archive()

    def forbidden(*args, **kwargs):
        raise AssertionError("load_checkpoint drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", forbidden)
    model, _, _ = load_checkpoint(_pack(arrays, meta))
    assert list(model.params) == [k[len("param."):] for k in arrays if k.startswith("param.")]


@pytest.mark.parametrize("command", ["diffusion-infer", "bench-run"])
def test_cli_exits_config_with_one_line(tmp_path, capsys, command):
    arrays, meta = _tiny_archive()
    _drop_tensor("param.enc.mlp.w2")(arrays, meta)
    path = tmp_path / "model.npz"
    path.write_bytes(_pack(arrays, meta).getvalue())
    argv = [command, "--checkpoint", str(path), "--out-dir", str(tmp_path / "out")]
    if command == "bench-run":
        argv += ["--policies", "proposed,none"]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"{command}: error: checkpoint tensor param.enc.mlp.w2: missing\n"


@pytest.mark.parametrize("command", ["diffusion-infer", "bench-run"])
def test_cli_rejects_checkpoint_without_standardizer(tmp_path, capsys, command):
    arrays, meta = _tiny_archive()
    _drop_standardizer(arrays, meta)
    path = tmp_path / "model.npz"
    path.write_bytes(_pack(arrays, meta).getvalue())
    argv = [command, "--checkpoint", str(path), "--out-dir", str(tmp_path / "out")]
    if command == "bench-run":
        argv += ["--policies", "proposed,none"]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"{command}: error: checkpoint tensor standardizer.mean: missing\n"
    assert not (tmp_path / "out").exists()


def _header_paths(meta: dict, prefix: str = "") -> list[str]:
    paths = []
    for key, value in meta.items():
        path = f"{prefix}{key}"
        paths.append(path)
        if isinstance(value, dict) and key != "shapes":
            paths.extend(_header_paths(value, f"{path}."))
    return paths


_, _META = _tiny_archive()
HEADER_PATHS = _header_paths(_META) + [f"shapes.{k}" for k in ("in.w", "out.b", "enc.attn.wq")]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                 max_size=3),
    max_leaves=6)


@hyp_settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(HEADER_PATHS), value=st.none() | JSON_VALUES,
       delete=st.booleans())
def test_any_header_edit_loads_or_names_a_key(path, value, delete):
    """Whatever one header key is replaced with (or if it is deleted), loading
    either succeeds or raises one ValueError line about the checkpoint; a
    deleted key, or a value of the wrong JSON type for an integer key, is
    named in it."""
    arrays, meta = _tiny_archive()
    (_drop(path) if delete else _set(path, value))(arrays, meta)
    try:
        load_checkpoint(_pack(arrays, meta))
    except ValueError as exc:
        message = str(exc)
        assert message.startswith("checkpoint ") and "\n" not in message
        int_leaf = path in ("format_version", "step_count") or path.startswith("config.")
        if delete or (int_leaf and (type(value) is not int)):
            assert path in message
    else:
        assert not delete

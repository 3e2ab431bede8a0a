"""Checkpoint container: fidelity, header validation, cross-load behaviour."""

import ast
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st
from hypothesis.extra import numpy as hnp

from renderopt import errors
from renderopt.cli import EXIT_CONFIG, main
from renderopt.diffusion import (AttentionGatedDenoiser, DenoiserConfig, NoiseSchedule,
                                 Standardizer, load_checkpoint, save_checkpoint)
from renderopt.diffusion.checkpoint import ENTRIES, FORMAT_VERSION
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
    arrays["params"] = np.append(arrays["params"], 0.0)
    bad = tmp_path / "bad.npz"
    np.savez(bad, **arrays)
    with pytest.raises(ValueError, match="shape"):
        load_checkpoint(bad)


def test_archive_holds_exactly_four_entries(smoke_trained, tmp_path):
    result, schedule, standardizer = smoke_trained
    path = tmp_path / "model.npz"
    save_checkpoint(path, result.model, schedule, standardizer)
    with np.load(path) as archive:
        assert archive.files == list(ENTRIES)
        meta = json.loads(bytes(archive["meta"]).decode())
        params = archive["params"]
    assert set(meta) == {"format_version", "config", "schedule", "step_count"}
    assert params.dtype == np.dtype("<f8") and params.ndim == 1
    expected = np.concatenate([result.model.params[k].ravel()
                               for k in param_shapes(result.model.config)])
    assert np.array_equal(params, expected)


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


def _size(config: DenoiserConfig) -> int:
    return sum(int(np.prod(shape)) for shape in param_shapes(config).values())


TINY_SIZE = _size(TINY)
WIDE_SIZE = _size(DenoiserConfig(d_model=16, heads=2))


def _extra_tensor(arrays, meta):
    arrays["param.enc.mlp.w3"] = np.zeros((8, 8))


def _config_implies_other_shapes(arrays, meta):
    # header valid for d_model 16, weights still the d_model 8 ones
    meta["config"]["d_model"] = 16


def _params_as_matrix(arrays, meta):
    arrays["params"] = arrays["params"].reshape(-1, 1)


def _locate(meta: dict, path: str) -> tuple[dict, str]:
    """The object holding a header key path, and the key."""
    *parents, leaf = path.split(".")
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
    ("missing-tensor", _drop_tensor("params"), "checkpoint tensor params: missing"),
    ("extra-tensor", _extra_tensor, "checkpoint entry 'param.enc.mlp.w3': not one of meta, "
     "params, standardizer.mean, standardizer.std"),
    ("tensor-shape", _params_as_matrix,
     f"checkpoint tensor params: shape ({TINY_SIZE}, 1) does not match ({TINY_SIZE},)"),
    ("config-shapes", _config_implies_other_shapes,
     f"checkpoint tensor params: shape ({TINY_SIZE},) does not match ({WIDE_SIZE},)"),
    ("missing-config-key", _drop("config.heads"), "checkpoint header config.heads: missing"),
    ("missing-section", _drop("schedule"), "checkpoint header schedule: missing"),
    ("missing-step-count", _drop("step_count"), "checkpoint header step_count: missing"),
    ("missing-version", _drop("format_version"), "checkpoint header format_version: missing"),
    ("string-int", _set("config.d_model", "8"),
     "checkpoint header config.d_model: must be an integer, got '8'"),
    ("bool-int", _set("config.heads", True),
     "checkpoint header config.heads: must be an integer, got True"),
    ("float-int", _set("step_count", 2.5),
     "checkpoint header step_count: must be an integer, got 2.5"),
    ("nan-number", _set("schedule.beta_end", float("nan")),
     "checkpoint header schedule.beta_end: must be a finite number, got nan"),
    ("section-type", _set("config", [8]),
     "checkpoint header config: expected an object, got list"),
    ("invalid-config", _set("config.d_model", 7), "checkpoint header config.d_model: must be even"),
    ("invalid-schedule", _set("schedule.beta_start", 2.0),
     "checkpoint header schedule.beta_start: must be in (0, 1)"),
    ("unknown-config-key", _set("config.layers", 3),
     "checkpoint header config.layers: unknown key"),
    ("negative-step-count", _set("step_count", -1),
     "checkpoint header step_count: must be an integer >= 0"),
    ("nan-weight", _poison("params", 5, np.nan),
     "checkpoint tensor params: holds non-finite values"),
    ("inf-weight", _poison("params", -1, np.inf),
     "checkpoint tensor params: holds non-finite values"),
    ("inf-standardizer", _poison("standardizer.mean", 2, -np.inf),
     "checkpoint tensor standardizer.mean: holds non-finite values"),
    ("zero-std", _poison("standardizer.std", 1, 0.0),
     "checkpoint tensor standardizer.std: holds a value <= 0"),
    ("half-standardizer", _drop_tensor("standardizer.std"),
     "checkpoint tensor standardizer.std: missing"),
    ("no-standardizer", _drop_standardizer, "checkpoint tensor standardizer.mean: missing"),
    ("integer-tensor", lambda arrays, meta: arrays.update({"params": np.zeros(TINY_SIZE, int)}),
     "checkpoint tensor params: not a floating-point array"),
    ("huge-schedule", _set("schedule.steps", 10**12),
     "checkpoint header schedule.steps: must be an integer in [1, 100000], got 1000000000000"),
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


@pytest.mark.parametrize("raw", [np.array(10**12),
                                 np.frombuffer(b"{}", np.uint8).astype(np.uint16),
                                 np.frombuffer(b"\xff", np.uint8)],
                         ids=["0-d-integer", "uint16-json", "not-utf8"])
def test_meta_must_be_utf8_json_bytes(raw):
    # bytes() of a 0-d integer array would allocate that many zero bytes
    arrays, _ = _tiny_archive()
    buf = io.BytesIO()
    np.savez(buf, **arrays, meta=raw)
    buf.seek(0)
    with pytest.raises(ValueError, match="^checkpoint header: not UTF-8 JSON bytes$"):
        load_checkpoint(buf)


def test_loading_draws_no_random_weights(monkeypatch):
    arrays, meta = _tiny_archive()

    def forbidden(*args, **kwargs):
        raise AssertionError("load_checkpoint drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", forbidden)
    model, _, _ = load_checkpoint(_pack(arrays, meta))
    assert list(model.params) == list(param_shapes(TINY))
    assert np.array_equal(np.concatenate([p.ravel() for p in model.params.values()]),
                          arrays["params"])


def test_loaded_tensors_are_views_of_one_vector():
    arrays, meta = _tiny_archive()
    model, _, _ = load_checkpoint(_pack(arrays, meta))
    base = model.params["in.w"].base
    assert base is not None and base.size == TINY_SIZE
    assert all(p.base is base for p in model.params.values())
    for name, shape in param_shapes(TINY).items():
        assert model.params[name].shape == shape


def _format_1_archive() -> io.BytesIO:
    """The tiny checkpoint in the previous layout: one `param.<name>` entry per
    tensor and the tensor shapes in the header."""
    arrays, meta = _tiny_archive()
    model, _, _ = load_checkpoint(_pack(arrays, meta))
    old = {f"param.{k}": v for k, v in model.params.items()}
    old["standardizer.mean"], old["standardizer.std"] = (arrays["standardizer.mean"],
                                                         arrays["standardizer.std"])
    meta.update(format_version=1, shapes={k: list(v.shape) for k, v in model.params.items()})
    return _pack(old, meta)


def test_format_1_archive_rejected():
    with pytest.raises(ValueError) as info:
        load_checkpoint(_format_1_archive())
    assert str(info.value) == f"checkpoint format 1 != supported {FORMAT_VERSION}"


@pytest.mark.parametrize("command", ["diffusion-infer", "bench-run"])
def test_cli_rejects_format_1_archive(tmp_path, capsys, command):
    path = tmp_path / "model.npz"
    path.write_bytes(_format_1_archive().getvalue())
    argv = [command, "--checkpoint", str(path), "--out-dir", str(tmp_path / "out")]
    if command == "bench-run":
        argv += ["--policies", "proposed,none"]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"{command}: error: checkpoint format 1 != supported 2\n"


def test_cli_rejects_huge_schedule_in_header(tmp_path, capsys):
    arrays, meta = _tiny_archive()
    meta["schedule"]["steps"] = 10**12
    path = tmp_path / "model.npz"
    path.write_bytes(_pack(arrays, meta).getvalue())
    argv = ["diffusion-infer", "--checkpoint", str(path), "--out-dir", str(tmp_path / "out")]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "diffusion-infer: error: checkpoint header schedule.steps: must be an integer in "
        "[1, 100000], got 1000000000000\n")


@pytest.mark.parametrize("command", ["diffusion-infer", "bench-run"])
def test_cli_exits_config_with_one_line(tmp_path, capsys, command):
    arrays, meta = _tiny_archive()
    _drop_tensor("params")(arrays, meta)
    path = tmp_path / "model.npz"
    path.write_bytes(_pack(arrays, meta).getvalue())
    argv = [command, "--checkpoint", str(path), "--out-dir", str(tmp_path / "out")]
    if command == "bench-run":
        argv += ["--policies", "proposed,none"]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"{command}: error: checkpoint tensor params: missing\n"


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
        if isinstance(value, dict):
            paths.extend(_header_paths(value, f"{path}."))
    return paths


_, _META = _tiny_archive()
HEADER_PATHS = _header_paths(_META)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                 max_size=3),
    max_leaves=6)


def _json_type_ok(default, value) -> bool:
    """Whether `value` has the JSON type the header key holding `default` takes:
    an object, an integer (not a bool), or a finite number."""
    if isinstance(default, dict):
        return isinstance(value, dict)
    if isinstance(default, int):
        return type(value) is int
    return type(value) is int or type(value) is float and math.isfinite(value)


@hyp_settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(HEADER_PATHS), value=st.none() | JSON_VALUES,
       delete=st.booleans())
def test_any_header_edit_loads_or_names_a_key(path, value, delete):
    """Whatever one header key is replaced with (or if it is deleted), loading
    either succeeds or raises one ValueError line about the checkpoint; a
    deleted key, or a value of the wrong JSON type for its key (object,
    integer or number), is named at the start of it."""
    node, leaf = _locate(_META, path)
    named = delete or not _json_type_ok(node[leaf], value)
    arrays, meta = _tiny_archive()
    (_drop(path) if delete else _set(path, value))(arrays, meta)
    try:
        load_checkpoint(_pack(arrays, meta))
    except ValueError as exc:
        message = str(exc)
        assert message.startswith("checkpoint ") and "\n" not in message
        if named:
            assert message.startswith(f"checkpoint header {path}: ")
    else:
        assert not named


def test_errors_module_imports_no_package_module():
    """`diffusion.checkpoint` and `config` both import the JSON-tree validator
    from `errors`; an import of the package there would close the cycle
    config -> diffusion -> checkpoint -> errors -> ..."""
    tree = ast.parse(Path(errors.__file__).read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += ["." * node.level + (node.module or "") for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert [m for m in modules if m.startswith(".") or m.split(".")[0] == "renderopt"] == []


SMALL_ARRAYS = hnp.arrays(
    dtype=hnp.scalar_dtypes() | hnp.byte_string_dtypes(max_len=4)
    | hnp.unicode_string_dtypes(max_len=4),
    shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
ENTRY_NAMES = st.text(st.characters(codec="ascii", categories=["L", "N"], include_characters="._"),
                      min_size=1, max_size=12).filter(lambda name: name not in ENTRIES)


@hyp_settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(ENTRIES), action=st.sampled_from(["drop", "replace", "add"]),
       array=SMALL_ARRAYS, extra=ENTRY_NAMES)
def test_any_entry_edit_loads_or_names_the_entry(key, action, array, extra):
    """Drop one of the four entries, replace it with an arbitrary small array,
    or add a fifth one: loading either returns the stored weights bit for bit
    or raises one ValueError line naming the entry (the header for `meta`)."""
    arrays, meta = _tiny_archive()
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    weights = arrays["params"]
    name = key
    if action == "drop":
        del arrays[key]
    elif action == "replace":
        arrays[key] = array
    else:
        arrays[extra] = array
        name = extra
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    buf.seek(0)
    try:
        model, _, _ = load_checkpoint(buf)
    except ValueError as exc:
        message = str(exc)
        assert message.startswith("checkpoint ") and "\n" not in message
        assert ("header" if name == "meta" else name) in message
    else:
        assert action == "replace" and key != "meta"
        flat = np.concatenate([p.ravel() for p in model.params.values()])
        assert np.array_equal(flat, arrays["params"])
        if key != "params":
            assert flat.tobytes() == weights.tobytes()

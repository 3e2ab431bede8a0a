"""The one module the diffusion's kernel-dependent floats come from."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

SRC = Path(__file__).resolve().parents[1] / "src"
DOOR = SRC / "renderopt" / "diffusion" / "elementary.py"
# numpy's float64 functions whose last bits differ between its SIMD kernel sets
KERNEL_VARYING = {"exp", "tanh", "log", "log1p", "expm1"}


def _kernel_varying_uses(path: Path) -> list[str]:
    """`<path>:<line> numpy.<name>` for each use of a KERNEL_VARYING name
    through a numpy import in the module at `path`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "numpy"}
    where = path.relative_to(SRC.parent)
    uses = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in KERNEL_VARYING
                and isinstance(node.value, ast.Name) and node.value.id in aliases):
            uses.append(f"{where}:{node.lineno} numpy.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            uses.extend(f"{where}:{node.lineno} numpy.{alias.name}" for alias in node.names
                        if alias.name in KERNEL_VARYING)
    return uses


def test_kernel_varying_functions_come_from_elementary_alone():
    uses = [use for path in sorted(SRC.rglob("*.py")) if path != DOOR
            for use in _kernel_varying_uses(path)]
    assert not uses, "\n".join(uses)


@hyp_settings(max_examples=100, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
@pytest.mark.parametrize("name, reference, lo, hi", [("exp", math.exp, -745.0, 709.0),
                                                      ("tanh", math.tanh, -20.0, 20.0)],
                         ids=["exp", "tanh"])
def test_within_8_ulp_of_libm(name, reference, lo, hi, data, seed):
    from renderopt.diffusion import elementary
    # hypothesis favours round values, where most kernels are exact; a seeded
    # uniform sample adds the ordinary ones, in an array long enough that the
    # vector loop runs
    drawn = data.draw(st.lists(st.floats(lo, hi), max_size=20))
    x = np.array([*drawn, *np.random.default_rng(seed).uniform(lo, hi, 1000)])
    got = getattr(elementary, name)(x)
    expected = np.array([reference(v) for v in x])
    # a result has the sign of its argument under both, so its bits count ulps
    ulps = np.abs(got.view(np.int64) - expected.view(np.int64))
    assert ulps.max() <= 8, x[int(ulps.argmax())]

"""The benchmark's traced run wraps program functions by name: the SPANNED
table of perfbench/spans.py, plus Tensor.__init__ and RlcModel.score, which
Tracer.install patches as counters.  Installing fails when any of these names
disappears, so each must still resolve to a callable."""

import importlib
import importlib.util
import os

import pytest

SPANS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench", "spans.py")


def _spanned() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANNED


COUNTED = (("clarikit.tensor.autodiff", "Tensor", "__init__"), ("clarikit.rlc", "RlcModel", "score"))


@pytest.mark.parametrize(
    "module_name, class_name, attr",
    [site[:3] for site in _spanned()] + list(COUNTED),
    ids=lambda value: value or "-",
)
def test_traced_name_resolves_to_callable(module_name, class_name, attr):
    owner = importlib.import_module(module_name)
    if class_name is not None:
        owner = getattr(owner, class_name)
    assert callable(getattr(owner, attr))

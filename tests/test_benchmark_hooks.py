"""The benchmark under perfbench/ times the library by wrapping module
attributes listed in ``perfbench/layers.py:LAYER_CALLS``.  A rename or removal
of one of them would only surface when the traced benchmark runs; this test
makes it fail the ordinary suite instead."""

import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
    finally:
        sys.path.remove(str(PERFBENCH))
    return layers


def test_every_layer_call_resolves_to_a_callable(layers):
    assert layers.LAYER_CALLS
    for module, attr, name in layers.LAYER_CALLS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"

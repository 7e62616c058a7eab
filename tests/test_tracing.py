"""The benchmark's tracer (perfbench/tracing.py) rebinds package functions by
name; these tests fail when a rename or a dropped import would break it."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_functions(tracing):
    """(module, name) of every function the tracer times."""
    return [
        (importlib.import_module(f"stellarinv.{layer}"), fn)
        for layer, fn in (name.split(".") for name in tracing.FUNCTIONS)
    ]


def test_every_traced_name_resolves_in_its_module():
    for module, fn in traced_functions(load_tracing()):
        assert callable(getattr(module, fn, None)), f"{module.__name__}.{fn}"


def test_install_and_undo():
    tracing = load_tracing()
    traced = traced_functions(tracing)
    originals = [getattr(module, fn) for module, fn in traced]
    restore = tracing.install(tracing.Tracer())
    try:
        assert all(getattr(module, fn) is not f for (module, fn), f in zip(traced, originals))
    finally:
        restore()
    assert all(getattr(module, fn) is f for (module, fn), f in zip(traced, originals))

"""The benchmark's tracer (perfbench/tracing.py) rebinds package functions by
name; these tests fail when a rename or a dropped import would break it."""
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import stellarinv

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


def test_package_names_read_before_install_are_traced_and_restored():
    tracing = load_tracing()
    public = [fn for _, fn in traced_functions(tracing) if fn in stellarinv.__all__]
    originals = {fn: getattr(stellarinv, fn) for fn in public}
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert all(getattr(stellarinv, fn) is not f for fn, f in originals.items())
        stellarinv.find_roots(stellarinv.majorana_polynomial(stellarinv.ghz_state(3)))
    finally:
        restore()
    assert {"states.majorana_polynomial", "roots.find_roots"} <= {s[0] for s in tracer.spans}
    assert all(getattr(stellarinv, fn) is f for fn, f in originals.items())


def test_name_first_read_while_traced_is_restored():
    # a fresh interpreter, where the package's find_roots has never been read
    code = (
        "import importlib.util, sys\n"
        "import stellarinv.roots\n"
        "spec = importlib.util.spec_from_file_location('tracing', sys.argv[1])\n"
        "tracing = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracing)\n"
        "import stellarinv\n"
        "original = stellarinv.roots.find_roots\n"
        "restore = tracing.install(tracing.Tracer())\n"
        "traced = stellarinv.find_roots is not original\n"
        "restore()\n"
        "print(traced, stellarinv.find_roots is original)\n"
    )
    src = os.path.dirname(os.path.dirname(stellarinv.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code, str(TRACING)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout == "True True\n"

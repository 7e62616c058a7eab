"""Output-drift guard: ``invariants`` and ``roots`` reports against stored
golden files.

Each case reads ``data/golden/<name>.state.json`` and compares the reports
with ``data/golden/<name>.invariants.json`` and ``<name>.roots.json``.
Keys, strings, integers and list shapes must match exactly, so the roots
report pins the cluster representatives, their order and multiplicities;
floats agree to 1e-12 relative (1e-14 absolute near zero), so last-bit
differences of vectorized arithmetic do not count as drift.  After a
deliberate output change, regenerate a file with
``stellarinv {invariants,roots} <state> [flags] -o <golden>`` and say why in
CHANGES.md.
"""
import json
import math
from pathlib import Path

import pytest

from stellarinv.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

CASES = {
    "ghz4_mu": [],  # generate ghz4-family --mu 0.3 0.2
    "w5": [],  # generate w -n 5
    "dicke4_2": [],  # generate dicke -n 4 --weight 2
    "random8": [],  # fixed random Dicke amplitudes, n = 8
    "random3": ["--oracle-check"],  # fixed random Dicke amplitudes, n = 3
    "majorana5_inf": [],  # majorana basis with a point at infinity
}

REL_TOL = 1e-12
ABS_TOL = 1e-14


def mismatches(got, want, path="$"):
    """Paths at which ``got`` differs from ``want`` beyond the tolerances."""
    if type(got) is not type(want):
        return [f"{path}: {got!r} is not a {type(want).__name__}"]
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for key in want for m in mismatches(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float):
        if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_invariants_match_golden(name, capsys):
    code = main(["invariants", str(GOLDEN / f"{name}.state.json"), *CASES[name]])
    out = capsys.readouterr().out
    assert code == 0
    want = json.loads((GOLDEN / f"{name}.invariants.json").read_text())
    assert mismatches(json.loads(out), want) == []


@pytest.mark.parametrize("name", sorted(CASES))
def test_roots_match_golden(name, capsys):
    code = main(["roots", str(GOLDEN / f"{name}.state.json")])
    out = capsys.readouterr().out
    assert code == 0
    want = json.loads((GOLDEN / f"{name}.roots.json").read_text())
    assert mismatches(json.loads(out), want) == []


def test_mismatches_sees_drift():
    want = {"a": [1.0, "inf", 2], "b": {"c": 0.0}}
    assert mismatches({"a": [1.0 + 1e-13, "inf", 2], "b": {"c": 1e-15}}, want) == []
    assert mismatches({"a": [1.0 + 1e-11, "inf", 2], "b": {"c": 0.0}}, want) == ["$.a[0]: 1.00000000001 != 1.0"]
    assert len(mismatches({"a": [1.0, "inf", 2.0], "b": {"c": 0.0}}, want)) == 1
    assert len(mismatches({"a": [1.0, "inf"], "b": {"c": 0.0}}, want)) == 1
    assert len(mismatches({"a": [1.0, "inf", 2]}, want)) == 1

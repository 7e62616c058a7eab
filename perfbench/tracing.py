"""Spans around calls into stellarinv's public functions.

Nothing in the package is edited: :func:`install` rebinds each traced
function, in every loaded ``stellarinv`` module namespace that holds it, to
a wrapper that records a span, and the returned callable puts the
originals back.  Calls between modules and within a module both go
through those namespaces, so nested calls nest as child spans.
"""
from __future__ import annotations

import functools
import math
import sys
import time

#: The layers and the functions of each that the traced run times.
LAYERS = {
    "states": ("majorana_polynomial", "to_sphere", "state_from_roots"),
    "roots": ("find_roots", "cluster"),
    "lu": ("gram", "slui_coefficients", "lu_invariants3"),
    "slocc": ("slocc_summary", "degeneracy_class", "symmetrized_ik"),
    "transforms": ("lu_unitary", "ilo_operator", "apply_operator", "time_reversal"),
    "oracle": ("dicke_expand", "oracle_lu_invariants3", "wootters_concurrence"),
    "cli": ("main",),
}

FUNCTIONS = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]

#: Name of the span the benchmark opens around each operation.
OP = "op"


class Tracer:
    """Spans kept in memory as [name, start_ns, end_ns, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.ik_tuples = 0

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        if name == "slocc.symmetrized_ik":
            # ordered 4-tuples the power sum runs over, computed from n
            @functools.wraps(fn)
            def counted(roots, *args, **kwargs):
                self.ik_tuples += math.perm(len(roots), 4)
                return traced(roots, *args, **kwargs)

            return counted
        return traced


def install(tracer: Tracer):
    """Rebind every traced function to its wrapper; return the undo."""
    package = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "stellarinv" or name.startswith("stellarinv."))]
    undo = []
    for name in FUNCTIONS:
        layer, fn = name.split(".")
        module = sys.modules.get(f"stellarinv.{layer}")
        if module is None:
            continue
        original = getattr(module, fn)
        wrapper = tracer.wrap(name, original)
        for m in package:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)
                    undo.append((m, attr, original))

    def restore():
        for m, attr, original in undo:
            setattr(m, attr, original)

    return restore


def _quantile(sorted_values, q: float) -> float:
    """Nearest-rank quantile of a sorted list; 0 for an empty one."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def stats(spans) -> dict:
    """Per-function calls, self time and inclusive-duration quantiles.

    A span's self time is its duration minus that of its direct children.
    Operation spans contribute their self time to ``unattributed``: the
    operation time outside every traced call.  So the ``busy_ms`` of all
    functions plus ``unattributed`` equals ``op_busy_ms``.
    """
    child = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    durations = {name: [] for name in FUNCTIONS}
    busy = dict.fromkeys(FUNCTIONS, 0)
    unattributed = op_busy = 0
    for i, (name, start, end, _) in enumerate(spans):
        own = end - start - child[i]
        if name == OP:
            unattributed += own
            op_busy += end - start
        else:
            busy[name] += own
            durations[name].append(end - start)
    out = {}
    for name in FUNCTIONS:
        d = sorted(durations[name])
        out[name] = {
            "calls": len(d),
            "busy_ms": busy[name] / 1e6,
            "p50_us": _quantile(d, 0.5) / 1e3,
            "p99_us": _quantile(d, 0.99) / 1e3,
        }
    out["unattributed"] = {"busy_ms": unattributed / 1e6}
    out["op_busy_ms"] = op_busy / 1e6
    return out

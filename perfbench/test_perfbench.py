"""Fast tests of the benchmark itself: every check rejects a planted wrong
answer, and the span arithmetic is right on a synthetic trace.

    python3 -m pytest perfbench -q
"""
import math
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import stellarinv as si  # noqa: E402

import reference as R  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


def roots4():
    return W.random_roots(W.rng_for(7, 4), 4, infinite=True)


def errors(fn, *args) -> int:
    t = W.Tally()
    fn(t, *args)
    return t.error_count


def moved(pairs, i=0, by=1e-3):
    """Move point i by about ``by``, off infinity if it is there."""
    out = pairs.copy()
    if out[i, 1] == 0:
        out[i, 1] = by
    else:
        out[i, 0] += by * out[i, 1]
    return out


# -- references agree with textbook values ------------------------------------


def test_reference_values_of_named_states():
    ghz3 = R.dense_from_roots(W.ghz_roots(3))
    w3 = R.dense_from_roots(W.family_roots("w", 3))
    assert R.three_tangle_cayley(ghz3) == pytest.approx(1.0, abs=1e-14)
    assert R.three_tangle_cayley(w3) == pytest.approx(0.0, abs=1e-14)
    assert R.purity_invariant(ghz3) == pytest.approx(0.0, abs=1e-14)
    bell = R.dense_from_roots(R.pairs_from_values([1j, -1j]))
    assert R.concurrence_pure2(bell) == pytest.approx(1.0, abs=1e-14)


def test_dense_route_matches_dicke_expansion():
    pairs = roots4()
    dense = R.dense_from_roots(pairs)
    via_dicke = si.dicke_expand(si.from_dicke(4, R.dicke_amplitudes(pairs)))
    assert abs(np.vdot(dense, via_dicke)) == pytest.approx(1.0, abs=1e-12)


def test_moebius_reference_moves_program_roots():
    pairs = roots4()
    state = si.from_dicke(4, R.dicke_amplitudes(pairs))
    params = (0.3 + 0.2j, -0.5 + 0.1j, 0.4 - 0.3j)
    out = si.apply_operator(si.ilo_operator(si.IloParameters(*params), 4), state)
    found = W.point_pairs(si.find_roots(si.majorana_polynomial(out)))
    _, d = R.match(found, R.move(R.ilo_matrix(*params), pairs))
    assert d < 1e-12


# -- each check rejects a planted wrong answer ----------------------------------


def test_root_check_rejects_perturbed_root():
    pairs = roots4()
    assert errors(W.check_roots, pairs, pairs, "exact") == 0
    assert errors(W.check_roots, moved(pairs, 1), pairs, "perturbed") == 2  # match + residual


def test_residual_check_rejects_a_non_root():
    pairs = roots4()
    assert errors(W.check_residual, pairs, moved(pairs, 2, 1e-6), "near") == 1


def test_gram_check_rejects_wrong_entry():
    pairs = roots4()
    vecs = R.sphere(pairs)
    gram = vecs @ vecs.T
    assert errors(W.check_gram, pairs, vecs, gram, "exact") == 0
    gram[0, 1] += 1e-9
    assert errors(W.check_gram, pairs, vecs, gram, "wrong") == 1


@pytest.mark.parametrize("n, key", [(2, "concurrence"), (3, "i2"), (3, "i6")])
def test_dense_check_rejects_wrong_invariant(n, key):
    pairs = W.random_roots(W.rng_for(3, n), n, infinite=False)
    dense = R.dense_from_roots(pairs)
    own = ({"concurrence": R.concurrence_pure2(dense)} if n == 2 else
           {"i2": R.purity_invariant(dense), "i6": R.three_tangle_cayley(dense)})
    assert errors(W.check_dense, n, pairs, dict(own), dict(own), "exact") == 0
    wrong = dict(own, **{key: own[key] + 1e-6})
    assert errors(W.check_dense, n, pairs, wrong, dict(own), "stellar") == 1
    assert errors(W.check_dense, n, pairs, dict(own), wrong, "oracle") == 1


def test_slocc_checks_reject_wrong_klein_j_and_power_sum():
    pairs = roots4()
    own = {"klein_j": R.klein_j_of_roots(pairs), **{f"I{k}": v for k, v in R.power_sums(pairs).items()}}
    assert errors(W.check_own_slocc, dict(own), pairs, "exact") == 0
    assert errors(W.check_own_slocc, dict(own, klein_j=own["klein_j"] * (1 + 1e-4)), pairs, "J") == 1
    assert errors(W.compare_slocc, own, dict(own, I4=own["I4"] * (1 + 1e-3)), "ILO") == 1


def test_lu_comparison_rejects_moved_invariants():
    vecs = R.sphere(roots4())
    gram = vecs @ vecs.T
    slui = np.poly(gram[np.triu_indices(4, 1)])
    assert errors(W.compare_lu, gram, slui, gram, slui, "same") == 0
    assert errors(W.compare_lu, gram, slui, gram, slui * (1 + 1e-3), "slui") == 1
    other = gram.copy()
    other[0, 1] = other[1, 0] = gram[0, 1] + 1e-6
    assert errors(W.compare_lu, gram, slui, other, slui, "spectrum") == 1


def test_report_check_passes_program_and_rejects_planted_outputs():
    pairs = roots4()
    rng = W.rng_for(1)
    op = W.report_op(si, 4, "roots", pairs, None, W.draw_lu(rng), W.draw_ilo(rng))
    out = op.run()
    t = W.Tally()
    assert op.check(out, t) and t.error_count == 0, t.errors

    out.roots = [si.RiemannPoint(a, b) for a, b in moved(W.point_pairs(out.roots), 3)]
    t = W.Tally()
    op.check(out, t)
    assert any("roots off" in e for e in t.errors)

    out = op.run()
    out.tr_state = out.state  # not the time-reversed state
    t = W.Tally()
    op.check(out, t)
    assert any("time reversal" in e for e in t.errors)


def test_classification_check_rejects_wrong_class():
    h = W.draw_lu(W.rng_for(2))
    op = W.classify_op(si, "ghz", 4, "lu", h)
    roots, cls = op.run()
    assert cls == (1, 1, 1, 1) and op.check((roots, cls), W.Tally())
    assert not op.check((roots, (2, 1, 1)), W.Tally())


def test_degenerate_families_fail_and_the_rest_pass():
    ops = W.library_ops(si, "small-n", 0)
    failed = {op.label for op in ops if op.label.startswith("classify") and not op.check(op.run(), W.Tally())}
    expected = {f"classify w{n} {k}" for n in range(4, 9) for k in ("lu", "ilo")}
    expected |= {f"classify dicke{n} {k}" for n in (6, 8) for k in ("lu", "ilo")}
    assert failed == expected


def test_digits_floor():
    assert R.digits(0.0) == pytest.approx(-math.log10(2.0**-53))
    assert R.digits(1e-10) == pytest.approx(10.0)


# -- spans --------------------------------------------------------------------


def test_span_arithmetic_on_synthetic_trace():
    spans = [
        ["op", 0, 100_000, -1],
        ["roots.find_roots", 10_000, 40_000, 0],
        ["states.to_sphere", 20_000, 30_000, 1],
        ["lu.gram", 50_000, 60_000, 0],
        ["op", 200_000, 250_000, -1],
        ["lu.gram", 210_000, 240_000, 4],
    ]
    st = tracing.stats(spans)
    assert st["roots.find_roots"]["busy_ms"] == pytest.approx(0.020)
    assert st["states.to_sphere"]["busy_ms"] == pytest.approx(0.010)
    assert st["lu.gram"]["calls"] == 2
    assert st["lu.gram"]["busy_ms"] == pytest.approx(0.040)
    assert st["lu.gram"]["p50_us"] == pytest.approx(10.0)
    assert st["lu.gram"]["p99_us"] == pytest.approx(30.0)
    assert st["unattributed"]["busy_ms"] == pytest.approx(0.080)
    assert st["op_busy_ms"] == pytest.approx(0.150)
    layers = sum(st[name]["busy_ms"] for name in tracing.FUNCTIONS)
    assert layers + st["unattributed"]["busy_ms"] == pytest.approx(st["op_busy_ms"])
    assert st["oracle.dicke_expand"] == {"calls": 0, "busy_ms": 0.0, "p50_us": 0.0, "p99_us": 0.0}


def test_install_traces_nested_calls_and_restores():
    import stellarinv.slocc as slocc

    original = slocc.cluster
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        span = tracer.open(tracing.OP)
        si.slocc_summary(si.find_roots(si.majorana_polynomial(si.ghz_state(5))))
        tracer.close(span)
    finally:
        restore()
    assert slocc.cluster is original and not hasattr(si.find_roots, "__wrapped__")
    names = [s[0] for s in tracer.spans]
    assert names[:3] == ["op", "states.majorana_polynomial", "roots.find_roots"]
    by_index = {i: s for i, s in enumerate(tracer.spans)}
    cluster = next(s for s in tracer.spans if s[0] == "roots.cluster")
    assert by_index[cluster[3]][0] == "slocc.degeneracy_class"
    assert tracer.ik_tuples == 2 * 5 * 4 * 3 * 2
    st = tracing.stats(tracer.spans)
    layers = sum(st[name]["busy_ms"] for name in tracing.FUNCTIONS)
    assert layers + st["unattributed"]["busy_ms"] == pytest.approx(st["op_busy_ms"])

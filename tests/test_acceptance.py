"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere loosened.
"""
import functools

import numpy as np

from helpers import (
    assert_multisets_close,
    inf_point,
    multiset_distance,
    point,
    random_h,
    random_points,
    random_qubit,
    random_state,
    roots_of,
)
from stellarinv import (
    MajoranaPolynomial,
    SphereVector,
    anharmonic_orbit,
    apply_mobius,
    apply_operator,
    bloch_radius2,
    chordal_distance,
    concurrence2,
    degeneracy_class,
    density_matrix,
    dicke_expand,
    find_roots,
    from_sphere,
    ghz4_family,
    ghz_state,
    gram,
    i2_closed_n4,
    ilo_operator,
    klein_j,
    lambda_vector,
    lu_invariants3,
    lu_unitary,
    mobius_from_ilo,
    oracle_lu_invariants3,
    partial_trace,
    rotation_from_h,
    state_from_roots,
    symmetrized_ik,
    three_tangle,
    time_reversal,
    to_sphere,
    w_state,
    wootters_concurrence,
    y_theta,
)
from test_transforms import random_ilo


def criterion(num, desc):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {num:02d} FAIL  {desc}")
                raise
            print(f"[acceptance] criterion {num:02d} PASS  {desc}")

        return wrapper

    return decorate


def stellar_invariants(state):
    return lu_invariants3(gram([to_sphere(p) for p in roots_of(state)]))


@criterion(1, "reference configurations via the closed forms and the dense oracle")
def test_criterion_01_reference_configurations():
    alpha = point(0.3 - 0.7j)
    configurations = {
        "O": (state_from_roots([alpha, alpha, alpha]), (1.0, 1.0, 0.0)),
        "A": (ghz_state(3), (0.0, 0.25, 1.0)),
        "B": (w_state(3), (1 / 9, 2 / 9, 0.0)),
        "C": (state_from_roots([point(0), point(1), inf_point()]), (4 / 9, 17 / 36, 1 / 3)),
    }
    for name, (state, want) in configurations.items():
        closed = stellar_invariants(state)
        dense = oracle_lu_invariants3(dicke_expand(state))
        for inv in (closed, dense):
            got = (inv.i2, inv.i5, inv.i6)
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-10, (name, got, want)


@criterion(2, "two-qubit concurrence and Bloch radius against the dense oracle")
def test_criterion_02_two_qubit_formulas():
    assert concurrence2(-1.0) == 1.0
    assert concurrence2(1.0) == 0.0
    rng = np.random.default_rng(101)
    for _ in range(100):
        state = random_state(rng, 2)
        p, q = roots_of(state)
        v12 = np.dot(to_sphere(p), to_sphere(q))
        dense = dicke_expand(state)
        assert abs(concurrence2(v12) - wootters_concurrence(dense)) <= 1e-9
        rho1 = partial_trace(density_matrix(dense), [1])
        radius_sq = 2.0 * np.trace(rho1 @ rho1).real - 1.0
        assert abs(bloch_radius2(v12) - radius_sq) <= 1e-9


@criterion(3, "collective-unitary invariance and the predicted point rotation")
def test_criterion_03_lu_invariance():
    rng = np.random.default_rng(102)
    for _ in range(100):
        state = random_state(rng, 3)
        h = random_h(rng)
        moved = apply_operator(lu_unitary(h, 3), state)
        inv0 = stellar_invariants(state)
        inv1 = stellar_invariants(moved)
        assert max(abs(a - b) for a, b in zip(inv0, inv1)) < 1e-9
        rot = rotation_from_h(h)
        want = [
            from_sphere(SphereVector(*(rot @ np.array(to_sphere(p)))))
            for p in roots_of(state)
        ]
        assert multiset_distance(roots_of(moved), want) < 1e-7


@criterion(4, "invertible operations act as Moebius maps and preserve SLOCC data")
def test_criterion_04_ilo_mobius():
    rng = np.random.default_rng(103)
    for n in (3, 4, 5, 6):
        done = 0
        while done < 25:
            state = random_state(rng, n)
            params = random_ilo(rng)
            mob = mobius_from_ilo(params)
            original = roots_of(state)
            want = [apply_mobius(mob, r) for r in original]
            # near-coincident image points make the root comparison
            # ill-conditioned in double precision; resample those draws
            if min(
                chordal_distance(a, b)
                for i, a in enumerate(want)
                for b in want[:i]
            ) < 0.1:
                continue
            done += 1
            moved = apply_operator(ilo_operator(params, n), state)
            got = roots_of(moved)
            assert multiset_distance(got, want) <= 1e-7
            assert degeneracy_class(got, 1e-7) == degeneracy_class(want, 1e-7)
            if n >= 4:
                v0 = symmetrized_ik(original, 2)
                v1 = symmetrized_ik(got, 2)
                assert abs(v0 - v1) <= 1e-8 * max(1.0, abs(v0))


@criterion(5, "quartic cross-ratio invariant matches the Klein-J identity")
def test_criterion_05_klein_identity():
    rng = np.random.default_rng(104)
    checked = 0
    while checked < 1000:
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if min(abs(lam), abs(lam - 1)) < 0.05:
            continue
        checked += 1
        assert abs(i2_closed_n4(lam) + 3.0 - 13.5 * klein_j(lam)) <= 1e-10
    for _ in range(100):
        pts = random_points(rng, 4, min_sep=0.3)
        lam = lambda_vector(pts)[0]
        res = symmetrized_ik(pts, 2)
        assert abs(res - 4.0 * i2_closed_n4(lam)) <= 1e-8


@criterion(6, "four-qubit one-parameter family lands on the predicted cross ratio")
def test_criterion_06_ghz4_family():
    rng = np.random.default_rng(105)
    done = 0
    while done < 50:
        mu = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if min(abs(mu - 1 / np.sqrt(3)), abs(mu + 1 / np.sqrt(3))) < 1e-2:
            continue
        done += 1
        state = ghz4_family(mu)
        lam = lambda_vector(roots_of(state))[0]
        target = 0.5 * (np.sqrt(3.0) * mu + 1.0)
        best = min(
            abs(member.value - target)
            for member in anharmonic_orbit(lam)
            if not member.is_infinite
        )
        assert best <= 1e-8, (mu, best)


@criterion(7, "five-root power-sum ratio converges to the Klein-J limit")
def test_criterion_07_five_root_limit():
    rng = np.random.default_rng(106)
    done = 0
    while done < 5:
        lam2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if not (0.2 <= abs(lam2) <= 2.0 and abs(lam2 - 1) >= 0.2):
            continue
        done += 1
        limit = 1.0 / 8.0 - 2.0 / (27.0 * klein_j(lam2))
        errors = []
        for lam1 in (1e-2, 1e-3, 1e-4):
            pts = [point(0), point(1), inf_point(), point(lam1), point(lam2)]
            i2 = symmetrized_ik(pts, 2)
            i4 = symmetrized_ik(pts, 4)
            ratio = i4 / i2**2
            errors.append(abs(ratio - limit) / abs(limit))
        assert errors[0] > errors[1] > errors[2], errors
        assert errors[2] < 1e-3, errors


@criterion(8, "pi/4 superposition with time reversal creates unit 3-tangle")
def test_criterion_08_unit_tangle_construction():
    rng = np.random.default_rng(107)
    for _ in range(20):
        u = random_qubit(rng)
        out = y_theta(np.pi / 4, u, u, u)
        assert abs(three_tangle(out) - 1.0) <= 1e-9
    for _ in range(20):
        out = y_theta(np.pi / 4, random_qubit(rng), random_qubit(rng), random_qubit(rng))
        assert abs(three_tangle(out) - 1.0) <= 1e-9


@criterion(9, "time reversal sends points to antipodes and fixes all invariants")
def test_criterion_09_time_reversal():
    rng = np.random.default_rng(108)
    for n in (2, 3, 4, 5, 6):
        state = random_state(rng, n)
        flipped = time_reversal(state)
        want = [p.antipode() for p in roots_of(state)]
        assert multiset_distance(roots_of(flipped), want) <= 1e-9
    for _ in range(20):
        state = random_state(rng, 3)
        inv0 = oracle_lu_invariants3(dicke_expand(state))
        inv1 = oracle_lu_invariants3(dicke_expand(time_reversal(state)))
        assert max(abs(a - b) for a, b in zip(inv0, inv1)) <= 1e-9


@criterion(10, "round-trip and cross-route property battery")
def test_criterion_10_property_battery():
    rng = np.random.default_rng(109)

    # roots -> state -> roots round trip
    for n in range(1, 11):
        pts = random_points(rng, n, min_sep=1e-3)
        assert_multisets_close(roots_of(state_from_roots(pts)), pts, 1e-8)

    # monic reconstruction of random polynomials
    for n in range(2, 13):
        c = rng.uniform(-1, 1, size=n + 1) + 1j * rng.uniform(-1, 1, size=n + 1)
        poly = MajoranaPolynomial(c)
        if poly.degree != n:
            continue
        roots = [r.value for r in find_roots(poly)]
        rebuilt = np.polynomial.polynomial.polyfromroots(roots)
        monic = c / c[n]
        assert np.abs(rebuilt - monic).max() <= 1e-8 * np.abs(monic).max()

    # stereographic bijection
    for _ in range(100):
        alpha = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        back = from_sphere(to_sphere(point(alpha)))
        assert abs(back.value - alpha) <= 1e-12

    # anharmonic orbit closure
    for _ in range(50):
        lam = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if min(abs(lam), abs(lam - 1)) < 0.05:
            continue
        base = anharmonic_orbit(lam)
        for member in base:
            assert multiset_distance(anharmonic_orbit(member), base) <= 1e-10

    # stellar and dense invariant routes agree
    for _ in range(20):
        state = random_state(rng, 3)
        closed = stellar_invariants(state)
        dense = oracle_lu_invariants3(dicke_expand(state))
        assert max(abs(a - b) for a, b in zip(closed, dense)) <= 1e-8

    # gram is rotation invariant
    for _ in range(50):
        pts = [to_sphere(p) for p in random_points(rng, 4, min_sep=1e-2)]
        rot = rotation_from_h(rng.normal(size=3))
        moved = [SphereVector(*(rot @ np.array(p))) for p in pts]
        assert np.abs(gram(moved) - gram(pts)).max() <= 1e-10

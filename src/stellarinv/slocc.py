"""SLOCC invariants: cross ratios, anharmonic orbits, Klein J, power sums.

Invertible local operations act on the stellar roots as Moebius maps, so
SLOCC invariants are functions of cross ratios of distinct roots.  Everything
in this module works projectively on :class:`~stellarinv.states.RiemannPoint`
pairs, which keeps arguments at infinity exact rather than approximated by
large floats.  One rule decides which roots are the same: the groups of
:func:`~stellarinv.roots.single_linkage`, at a summary's ``tol`` or at
:data:`COINCIDENCE_TOL` for points passed to a stand-alone function.  A group
of several roots is a repeated root, a degenerate class of its own; roots of
distinct groups are distinct however close, and only a value beyond floats
is infinite or divergent.
"""
from __future__ import annotations

import cmath
import itertools
import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

# degeneracy_class is re-exported: perfbench/tracing.py times it under this module
from .roots import DEFAULT_CLUSTER_TOL, degeneracy, degeneracy_class, point_key, single_linkage
from .states import (
    DegenerateInputError,
    DivergentSumError,
    RiemannPoint,
    projective_differences,
    projective_pairs,
)

#: Single-linkage tolerance at which the stand-alone functions group the
#: caller's points; a summary groups its roots at its ``tol``.
COINCIDENCE_TOL = 1e-12

#: Most roots :func:`symmetrized_ik` takes.  All its terms are summed in one
#: pass: at n = 17, 24 C(n, 4) = 57,120 ordered 4-tuples, and a factor table
#: of :func:`_plucker_factors` of 112 KiB.
MAX_IK_N = 17


def as_point(value) -> RiemannPoint:
    """Coerce a complex number (or an existing point) to a RiemannPoint."""
    if isinstance(value, RiemannPoint):
        return value
    return RiemannPoint(complex(value))


def cross_ratio(pi, pj, pk, pl) -> RiemannPoint:
    """Cross ratio (alpha_i - alpha_k)(alpha_j - alpha_l) /
    ((alpha_j - alpha_k)(alpha_i - alpha_l)), computed projectively.

    Defined whenever the four points form at least three groups at
    :data:`COINCIDENCE_TOL`; the dominant factors cancel exactly for
    arguments at infinity.
    """
    pairs = projective_pairs(map(as_point, (pi, pj, pk, pl)))
    if single_linkage(pairs, COINCIDENCE_TOL).max() < 2:
        raise ValueError("cross ratio needs at least three distinct points")
    det, _ = projective_differences(pairs, pairs)
    return RiemannPoint(det[0, 2] * det[1, 3], det[1, 2] * det[0, 3])


def anharmonic_orbit(lam) -> list[RiemannPoint]:
    """The six cross-ratio images {l, 1/l, 1-l, 1/(1-l), l/(l-1), (l-1)/l}.

    Degenerate inputs (0, 1, infinity) are allowed and produce the collapsed
    orbit with repeated entries.
    """
    p = as_point(lam)
    a, b = p.a, p.b
    return [
        RiemannPoint(a, b),
        RiemannPoint(b, a),
        RiemannPoint(b - a, b),
        RiemannPoint(b, b - a),
        RiemannPoint(a, a - b),
        RiemannPoint(a - b, a),
    ]


def _off_poles(lam, form) -> complex:
    """``form`` at ``lam``, a rational function with its poles on the orbit
    {0, 1, infinity}; ``DegenerateInputError`` on a pole, and so near one
    that the value, or a factor in ``form``, is beyond floats."""
    p = as_point(lam)
    try:  # no value at infinity, or a zero denominator
        value = form(p.value)
    except (ValueError, ZeroDivisionError):
        value = complex("inf")
    if not cmath.isfinite(value):
        raise DegenerateInputError(f"{p!r} is on or near a pole {{0, 1, infinity}}: no float value")
    return value


def _j(z: complex) -> complex:
    """J at a finite z off the poles, as t (t / s)^2 with s = z (z - 1) and
    t = s + 1, times 4/27 first: no factor leaves the floats before J does."""
    s = z * (z - 1.0)
    t = s + 1.0
    q = t / s
    return 4.0 / 27.0 * t * q * q


def klein_j(lam) -> complex:
    """Klein modular invariant J(l) = 4 (l^2 - l + 1)^3 / (27 l^2 (l - 1)^2).

    Constant on each anharmonic orbit; 1 at harmonic and 0 at equianharmonic
    configurations.  A value for |l| up to about 1.3e154 and for l down to
    about 3e-155 from the poles 0 and 1; raises as :func:`_off_poles` on and
    nearer the poles of J, the orbit of the degenerate values {0, 1, infinity}.
    """
    return _off_poles(lam, _j)


def i2_closed_n4(lam) -> complex:
    """Closed-form symmetrized quadratic invariant of four roots,
    -3 + (27/2) J(l), read from :func:`klein_j`'s formula; raises as
    :func:`_off_poles`, also where J is a float but 27/2 J is not.
    """
    return _off_poles(lam, lambda z: 13.5 * _j(z) - 3.0)


def lambda_vector(roots: Sequence[RiemannPoint]) -> list[RiemannPoint]:
    """Cross-ratio coordinates of the roots beyond the first three.

    The Moebius map sending the first three roots (three groups at
    :data:`COINCIDENCE_TOL`) to (0, 1, infinity) is applied to the remaining
    ones, giving the n-3 values that coordinatize the SLOCC class.
    """
    pairs = projective_pairs(map(as_point, roots))
    if len(pairs) < 4:
        raise ValueError("need at least four roots")
    if single_linkage(pairs[:3], COINCIDENCE_TOL).max() < 2:
        raise ValueError("first three roots must be pairwise distinct")
    det, _ = projective_differences(pairs, pairs[:3])
    return _lambdas(det, (0, 1, 2))


def _lambdas(det: np.ndarray, triple) -> list[RiemannPoint]:
    """cross_ratio(z, a2, a1, a3) of each root z off the triple, from ``det``
    against the triple's three columns."""
    a2 = triple[1]
    num, den = det[:, 0] * det[a2, 2], det[:, 2] * det[a2, 0]
    pairs = zip(num.tolist(), den.tolist())
    return [RiemannPoint(x, y) for i, (x, y) in enumerate(pairs) if i not in triple]


def symmetrized_ik(roots: Sequence[RiemannPoint], k: int) -> complex:
    """Sum of the k-th powers of the leading transformed cross ratio over
    all n! root orderings.

    For each ordering the first three roots define the normalizing Moebius
    map and the fourth is evaluated through it.  Since the term depends only
    on the leading four slots, the sum runs over ordered 4-tuples weighted
    by (n-4)!, which is exactly the full permutation sum.  With
    d_xy = a_x b_y - b_x a_y, a 4-subset a < b < c < d has three Pluecker
    products x = d_ab d_cd, y = d_ac d_db and z = d_ad d_bc (x + y + z = 0),
    and the term of each of its 24 ordered tuples is -u/v for two distinct
    products u, v, each such ratio being the term of four tuples: the sum
    evaluates the six ratios of each subset and weights them by 4 (n-4)!.

    Every term is read off one matrix of projective differences d_xy.  Its
    complex products, and the Pluecker products, are formed from real
    products each rounded once, never fused, so each -u/v has the bits of
    its four tuples' terms, save the sign of a zero part, and the sum equals
    the one over every tuple exactly.  The real and imaginary parts of all
    terms are each summed in one ``math.fsum``, so the sum is exactly
    rounded and does not depend on the order of the roots.  A power that is
    not a positive integer, or more than :data:`MAX_IK_N` roots, raise
    ``ValueError`` before any term is formed.  The roots are grouped at
    :data:`COINCIDENCE_TOL`, as :func:`slocc_summary` groups them at its
    ``tol``: fewer than three groups raise ``ValueError`` (no ordering has a
    triple to normalize by), and a group of several, a repeated root, or a
    sum beyond floats raises ``DivergentSumError``.
    """
    if not isinstance(k, numbers.Integral) or k < 1:  # numpy integers included
        raise ValueError("power k must be a positive integer")
    pairs = projective_pairs(map(as_point, roots))
    if len(pairs) < 4:
        raise ValueError("need at least four roots")
    if len(pairs) > MAX_IK_N:
        raise ValueError(f"symmetrized_ik takes at most {MAX_IK_N} roots, got {len(pairs)}")
    groups = single_linkage(pairs, COINCIDENCE_TOL).max() + 1
    if groups < 3:
        raise ValueError("fewer than three distinct roots: no valid ordering")
    if groups < len(pairs):
        raise DivergentSumError("a repeated root puts some ordering on a pole")
    return _power_sums(pairs, (k,))[k]


def _times(xr, xi, yr, yi):
    """Real and imaginary parts of (xr + i xi)(yr + i yi), each from two real
    products rounded once.

    numpy's complex multiply may fuse a product into an FMA, so that x * y
    and y * x differ in the last bit; these parts are the same both ways.
    """
    return xr * yr - xi * yi, xr * yi + xi * yr


def _differences(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the power sums' projective differences
    det[x, y] = a_x b_y - b_x a_y.

    Both products come from :func:`_times`, so each entry depends only on
    its two points and det[y, x] is -det[x, y] to the bit, up to the sign
    of an exact zero.
    """
    a, b = pairs.T
    re, im = _times(a.real[:, None], a.imag[:, None], b.real, b.imag)
    return re - re.T, im - im.T


@lru_cache(maxsize=8)
def _plucker_factors(n: int) -> np.ndarray:
    """Flat positions in an n x n array of the factors of the three Pluecker
    products det[a, b] det[c, d], det[a, c] det[d, b] and det[a, d] det[b, c]
    of each 4-subset a < b < c < d of range(n), shape (2, 3, C(n, 4)): the
    first factors, then the second.

    Read-only, since the cache hands it to every caller; at n <=
    :data:`MAX_IK_N` eight of them take under 1 MiB.
    """
    a, b, c, d = np.array(list(itertools.combinations(range(n), 4))).T
    table = np.array([[a * n + b, a * n + c, a * n + d], [c * n + d, d * n + b, b * n + c]])
    table.flags.writeable = False
    return table


def _power_sums(pairs: np.ndarray, powers: Sequence[int]) -> dict[int, complex]:
    """symmetrized_ik of 4 <= n <= :data:`MAX_IK_N` simple roots by power,
    from one pass over the six ratios -u/v of distinct Pluecker products u, v
    of each 4-subset.

    Over :func:`_differences`, with products from :func:`_times`, the term
    num/den of each of a subset's 24 ordered tuples has the bits of one of
    its six -u/v, save the sign of a zero part, and each -u/v is the term of
    four tuples: their sum weighted by 4 (n-4)! is the sum over every tuple
    weighted by (n-4)!, exactly, with one ``math.fsum`` per real or
    imaginary part.  A sum beyond floats raises ``DivergentSumError``.
    """
    n = len(pairs)
    det_re, det_im = (part.ravel() for part in _differences(pairs))
    first, second = _plucker_factors(n)
    xyz = np.empty(first.shape, complex)
    xyz.real, xyz.imag = _times(det_re[first], det_im[first], det_re[second], det_im[second])
    weight = 4 * math.factorial(n - 4)
    sums = {}
    with np.errstate(all="ignore"):
        ratio = (-xyz[[0, 0, 1, 1, 2, 2]] / xyz[[1, 2, 0, 2, 0, 1]]).ravel()
        for k in powers:
            terms = ratio**k
            try:  # fsum raises on a partial sum beyond floats, or on inf - inf
                total = complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))
            except (OverflowError, ValueError):
                total = complex("nan")
            sums[k] = total * weight
            if not cmath.isfinite(sums[k]):
                raise DivergentSumError(f"the power-{k} sum is beyond the float range")
    return sums


def canonical_representative(lam) -> RiemannPoint:
    """Deterministic representative of the anharmonic orbit of ``lam``.

    Picks the orbit member with lexicographically smallest (Re, Im) after
    rounding both parts to 1e-12; infinity sorts last.  Orbit-equivalent
    inputs therefore map to an identical output.
    """
    return min(anharmonic_orbit(lam), key=lambda p: [round(x, 12) for x in point_key(p)])


@dataclass(frozen=True)
class SloccInvariantSet:
    """Aggregated SLOCC data for one root multiset.

    ``lambda_vector`` is None below three root groups; ``klein_j`` and
    ``canonical_lambda`` need four simple roots off the degenerate orbit;
    ``symmetrized`` holds the power sums unless they diverge, which is
    flagged instead.  ``lambda_vector`` is a chart coordinate that follows
    the order of the roots, not an SLOCC invariant; the invariants are
    ``klein_j`` and ``canonical_lambda`` at n = 4, and the power sums.
    """

    degeneracy: tuple[int, ...]
    lambda_vector: list[RiemannPoint] | None = None
    klein_j: complex | None = None
    canonical_lambda: RiemannPoint | None = None
    symmetrized: dict[int, complex] = field(default_factory=dict)
    divergent: bool = False


#: Largest n for which the permutation power sums are computed.
MAX_POWER_SUM_N = 8
#: Powers k of the permutation power sums a summary reports.
SUMMARY_POWERS = (2, 4)


def slocc_summary(
    roots: Sequence[RiemannPoint], tol: float = DEFAULT_CLUSTER_TOL
) -> SloccInvariantSet:
    """Compute every SLOCC invariant applicable to the given root multiset.

    Single linkage at ``tol`` decides every field: the triple is the first
    member of each of the first three groups, and a multiple root leaves J
    unset and the power sums divergent.  Lambda reads the (n, 3) array of
    projective differences against the triple; the power sums, up to
    :data:`MAX_POWER_SUM_N` roots, form their own n x n array as
    :func:`symmetrized_ik` does, one pass giving both :data:`SUMMARY_POWERS`
    with the bits of a :func:`symmetrized_ik` call that groups alike.
    """
    pairs = projective_pairs(map(as_point, roots))
    n = len(pairs)
    labels = single_linkage(pairs, tol)
    signature = degeneracy(labels)
    simple = len(signature) == n

    lam_vec = kj = canon = None
    sums: dict[int, complex] = {}
    divergent = False
    if n >= 4 and len(signature) >= 3:
        triple = np.unique(labels, return_index=True)[1][:3].tolist()
        det, _ = projective_differences(pairs, pairs[triple])
        lam_vec = _lambdas(det, triple)
        if n == 4 and simple:
            try:
                kj = klein_j(lam_vec[0])
                canon = canonical_representative(lam_vec[0])
            except DegenerateInputError:
                pass
        if n <= MAX_POWER_SUM_N:
            divergent = not simple
            if simple:
                try:
                    sums = _power_sums(pairs, SUMMARY_POWERS)
                except DivergentSumError:
                    divergent = True
    return SloccInvariantSet(
        degeneracy=signature,
        lambda_vector=lam_vec,
        klein_j=kj,
        canonical_lambda=canon,
        symmetrized=sums,
        divergent=divergent,
    )

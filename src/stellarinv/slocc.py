"""SLOCC invariants: cross ratios, anharmonic orbits, Klein J, power sums.

Invertible local operations act on the stellar roots as Moebius maps, so
SLOCC invariants are functions of cross ratios of distinct roots.  Everything
in this module works projectively on :class:`~stellarinv.states.RiemannPoint`
pairs, which keeps arguments at infinity exact rather than approximated by
large floats.  One rule decides which roots are the same: the groups of
:func:`~stellarinv.roots.single_linkage`, at a summary's ``tol`` or at
:data:`COINCIDENCE_TOL` for points passed to a stand-alone function.  A group
of several roots is a repeated root, a degenerate class of its own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, DivergentSumError
# degeneracy_class is re-exported: perfbench/tracing.py times it under this module
from .roots import DEFAULT_CLUSTER_TOL, degeneracy, degeneracy_class, point_key, single_linkage
from .states import RiemannPoint, projective_differences, projective_pairs

#: Single-linkage tolerance at which the stand-alone functions group the
#: caller's points; a summary groups its roots at its ``tol``.
COINCIDENCE_TOL = 1e-12

#: Any transformed cross ratio beyond this magnitude marks a divergent
#: permutation sum.
DIVERGENCE_THRESHOLD = 1e12

#: Most ordered 4-tuples :func:`symmetrized_ik` evaluates at once.
_TUPLE_CHUNK = 1 << 16


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


def klein_j(lam) -> complex:
    """Klein modular invariant J(l) = 4 (l^2 - l + 1)^3 / (27 l^2 (l - 1)^2).

    Constant on each anharmonic orbit; 1 at harmonic and 0 at equianharmonic
    configurations.  Raises on the orbit of the degenerate values {0, 1,
    infinity}, where J has poles.
    """
    p = as_point(lam)
    if p.is_infinite:
        raise DegenerateInputError("J has a pole at infinity")
    z = p.value
    den = 27.0 * z * z * (z - 1.0) ** 2
    if den == 0:
        raise DegenerateInputError(f"J has a pole at lambda = {z}")
    return 4.0 * (z * z - z + 1.0) ** 3 / den


def i2_closed_n4(lam) -> complex:
    """Closed-form symmetrized quadratic invariant of four roots.

    Evaluates (2(l^6+1) - 6(l^5+l) + 9(l^4+l^2) - 8 l^3) / (l^2 (l-1)^2),
    which equals -3 + (27/2) J(l) identically.
    """
    p = as_point(lam)
    if p.is_infinite:
        raise DegenerateInputError("pole at infinity")
    z = p.value
    den = z * z * (z - 1.0) ** 2
    if den == 0:
        raise DegenerateInputError(f"pole at lambda = {z}")
    num = (
        2.0 * (z**6 + 1.0)
        - 6.0 * (z**5 + z)
        + 9.0 * (z**4 + z * z)
        - 8.0 * z**3
    )
    return num / den


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
    return _lambdas(det, (0, 1, 2), range(3))


def _lambdas(det: np.ndarray, triple, cols) -> list[RiemannPoint]:
    """cross_ratio(z, a2, a1, a3) of each root z off the triple, formed as the
    symmetrized_ik terms of (a3, a2, a1) are, from ``det`` against ``cols``."""
    a1, a2, a3 = triple
    c1, c3 = cols.index(a1), cols.index(a3)
    num, den = det[:, c1] * det[a2, c3], det[:, c3] * det[a2, c1]
    pairs = zip(num.tolist(), den.tolist())
    return [RiemannPoint(x, y) for i, (x, y) in enumerate(pairs) if i not in triple]


def symmetrized_ik(roots: Sequence[RiemannPoint], k: int) -> complex:
    """Sum of the k-th powers of the leading transformed cross ratio over
    all n! root orderings.

    For each ordering the first three roots define the normalizing Moebius
    map and the fourth is evaluated through it.  Since the term depends only
    on the leading four slots, the sum runs over ordered 4-tuples weighted
    by (n-4)!, which is exactly the full permutation sum.

    Every term is read off one matrix of projective differences
    det[x, y] = a_x b_y - a_y b_x.  The tuples are evaluated in chunks of
    at most 2**16, so memory stays bounded at any n, and the real and
    imaginary parts of each chunk are summed exactly with ``math.fsum``.
    Up to n = 16 all tuples form one chunk, so the sum is exactly rounded
    and does not depend on the order of the roots; beyond that each chunk
    adds one rounding.  The roots are grouped at :data:`COINCIDENCE_TOL`,
    as :func:`slocc_summary` groups them at its ``tol``: fewer than three
    groups raise ``ValueError`` (no ordering has a triple to normalize by),
    and a group of several, a repeated root, raises ``DivergentSumError``.
    """
    if k < 1:
        raise ValueError("power k must be a positive integer")
    pairs = projective_pairs(map(as_point, roots))
    if len(pairs) < 4:
        raise ValueError("need at least four roots")
    groups = single_linkage(pairs, COINCIDENCE_TOL).max() + 1
    if groups < 3:
        raise ValueError("fewer than three distinct roots: no valid ordering")
    if groups < len(pairs):
        raise DivergentSumError("a repeated root puts some ordering on a pole")
    det, _ = projective_differences(pairs, pairs)
    return _power_sums(det, (k,))[k]


def _power_sums(det: np.ndarray, powers: Sequence[int]) -> dict[int, complex]:
    """symmetrized_ik of n >= 4 simple roots by power, from one 4-tuple pass."""
    n = len(det)
    # leading triples (i1, i2, i3) in chunks, each against every other i4
    i4 = np.arange(n)[:, None]
    triples = n**3
    step = max(1, _TUPLE_CHUNK // n)
    parts: dict[int, tuple[list[float], list[float]]] = {k: ([], []) for k in powers}
    for start in range(0, triples, step):
        i1, i2, i3 = np.unravel_index(
            np.arange(start, min(start + step, triples)), (n, n, n)
        )
        lead = (i1 != i2) & (i1 != i3) & (i2 != i3)
        i1, i2, i3 = i1[lead], i2[lead], i3[lead]
        other = (i4 != i1) & (i4 != i2) & (i4 != i3)
        num = (det[:, i1] * det[i2, i3])[other]
        den = (det[:, i3] * det[i2, i1])[other]
        if np.any(abs(den) * DIVERGENCE_THRESHOLD <= abs(num)):
            raise DivergentSumError(
                "transformed cross ratio exceeds the divergence threshold"
            )
        ratio = num / den
        for k, (re_parts, im_parts) in parts.items():
            terms = ratio**k
            re_parts.append(math.fsum(terms.real.tolist()))
            im_parts.append(math.fsum(terms.imag.tolist()))
    weight = math.factorial(n - 4)
    return {k: complex(math.fsum(re), math.fsum(im)) * weight for k, (re, im) in parts.items()}


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
    unset and the power sums divergent.  Lambda and the power sums read one
    difference array, of n columns with the power sums, else three.
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
        cols = list(range(n)) if n <= MAX_POWER_SUM_N else triple
        det, _ = projective_differences(pairs, pairs[cols])
        lam_vec = _lambdas(det, triple, cols)
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
                    sums = _power_sums(det, SUMMARY_POWERS)
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

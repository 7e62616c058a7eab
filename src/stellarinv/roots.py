"""Root extraction and multiplicity clustering for stellar polynomials."""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .states import (
    MajoranaPolynomial,
    RiemannPoint,
    SphereVector,
    chordal_distance,
    from_sphere,
    to_sphere,
)

#: Default residual tolerance for find_roots (relative to coefficient scale).
DEFAULT_ROOT_TOL = 1e-8

#: Default chordal threshold for multiplicity clustering.
DEFAULT_CLUSTER_TOL = 1e-7

_MAX_POLISH = 8


def _eval_scaled(asc: np.ndarray, z: complex) -> complex:
    """Horner evaluation with bounded intermediates.

    For |z| > 1 the reversed polynomial is evaluated at 1/z instead, which
    keeps every intermediate below the coefficient scale and makes residuals
    comparable to it.
    """
    if abs(z) > 1.0:
        asc = asc[::-1]
        z = 1.0 / z
    acc = 0.0 + 0.0j
    for c in asc[::-1]:
        acc = acc * z + c
    return acc


def _newton_step(asc: np.ndarray, z: complex) -> complex:
    p = 0.0 + 0.0j
    dp = 0.0 + 0.0j
    for c in asc[::-1]:
        dp = dp * z + p
        p = p * z + c
    if dp == 0:
        return z
    return z - p / dp


def find_roots(
    poly: MajoranaPolynomial, tol: float = DEFAULT_ROOT_TOL
) -> list[RiemannPoint]:
    """All n roots of the polynomial, points at infinity included.

    Finite roots come from the companion-matrix eigenvalues of the trailing
    degree-d polynomial, polished with a few Newton steps; the remaining
    n - d roots are exact points at infinity.  Each finite root satisfies
    the scaled residual bound |P(root)| <= tol * max|coefficient|.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    coeffs = poly.coefficients
    scale = np.abs(coeffs).max()
    if scale == 0.0:
        raise ValueError("zero polynomial has no root set")
    d = poly.degree
    n = poly.n
    points: list[RiemannPoint] = []
    if d > 0:
        trailing = coeffs[: d + 1]
        raw = np.roots(trailing[::-1])
        bound = tol * scale
        # polish to the machine-precision floor, not merely to the bound:
        # simple roots gain several digits over the raw eigenvalues
        floor = 64.0 * np.finfo(float).eps * scale
        for r in raw:
            r = complex(r)
            res = abs(_eval_scaled(trailing, r))
            for _ in range(_MAX_POLISH):
                if res <= floor:
                    break
                cand = _newton_step(trailing, r)
                cand_res = abs(_eval_scaled(trailing, cand))
                if cand_res >= res:
                    break
                r, res = cand, cand_res
            if res > bound:
                raise ArithmeticError(
                    f"root residual {res:.3e} exceeds bound {bound:.3e}"
                )
            points.append(RiemannPoint(r))
    points.extend(RiemannPoint.infinity() for _ in range(n - d))
    return points


def point_key(p: RiemannPoint) -> tuple[int, float, float]:
    """Sort key of the point order: finite points by (Re, Im), infinity last."""
    if p.is_infinite:
        return (1, 0.0, 0.0)
    z = p.value
    return (0, z.real, z.imag)


def cluster(
    points: Sequence[RiemannPoint], tol: float = DEFAULT_CLUSTER_TOL
) -> list[tuple[RiemannPoint, int]]:
    """Group near-coincident points into (representative, multiplicity) pairs.

    Single-linkage on chordal distance with threshold ``tol``; the
    representative is the normalized mean of the member sphere vectors.
    Multiplicities sum to the input size.  Output is ordered by descending
    multiplicity, ties broken by the representative's plane coordinates.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = len(points)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if chordal_distance(points[i], points[j]) <= tol:
                parent[find(i)] = find(j)

    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)

    out = []
    for members in groups.values():
        vecs = np.array([to_sphere(points[i]).as_array() for i in members])
        mean = vecs.mean(axis=0)
        norm = np.linalg.norm(mean)
        if norm < 1e-9:
            # pathologically spread cluster; fall back to the first member
            rep = points[members[0]]
        else:
            rep = from_sphere(SphereVector.from_array(mean / norm))
        out.append((rep, len(members)))

    return sorted(out, key=lambda item: (-item[1], *point_key(item[0])))


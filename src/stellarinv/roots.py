"""Root extraction and multiplicity clustering for stellar polynomials."""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .states import (
    MajoranaPolynomial,
    RiemannPoint,
    SphereVector,
    from_sphere,
    projective_differences,
    projective_pairs,
    to_sphere,
)

#: Default residual tolerance for find_roots (relative to coefficient scale).
DEFAULT_ROOT_TOL = 1e-8

#: Default chordal threshold for multiplicity clustering.
DEFAULT_CLUSTER_TOL = 1e-7

_MAX_POLISH = 8

#: Most chordal distances :func:`single_linkage` holds at once; 2**16 added
#: 4 MiB to the peak memory at n = 1029, this about 1 MiB.
_LINK_CHUNK = 1 << 14


def _eval_scaled(asc: Sequence[complex], z: complex) -> complex:
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


def _newton_step(asc: Sequence[complex], z: complex) -> complex:
    p = 0.0 + 0.0j
    dp = 0.0 + 0.0j
    for c in asc[::-1]:
        dp = dp * z + p
        p = p * z + c
    if dp == 0:
        return z
    return z - p / dp


def _scaled_residuals(asc: np.ndarray, z: np.ndarray) -> np.ndarray:
    """|P(z)| of every z in the charts of :func:`_eval_scaled` (P at z for
    |z| <= 1, the reversed polynomial at 1/z otherwise), as one product of the
    Vandermonde matrix of the chart points with the coefficients."""
    outside = np.abs(z) > 1.0
    w = z.copy()
    w[outside] = 1.0 / z[outside]
    powers = np.empty((z.size, asc.size), dtype=complex)
    powers[:, 0] = 1.0
    powers[:, 1:] = w[:, None]
    np.cumprod(powers, axis=1, out=powers)  # |w| <= 1: no power overflows
    return np.abs(np.where(outside, powers @ asc[::-1], powers @ asc))


def find_roots(
    poly: MajoranaPolynomial, tol: float = DEFAULT_ROOT_TOL
) -> list[RiemannPoint]:
    """All n roots of the polynomial, points at infinity included.

    Finite roots come from the companion-matrix eigenvalues of the trailing
    degree-d polynomial; those whose scaled residual (one array pass) lies
    above the machine-precision floor are polished with a few Newton steps;
    the remaining n - d roots are exact points at infinity.  Each finite root
    satisfies the scaled residual bound |P(root)| <= tol * max|coefficient|.
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
        res = _scaled_residuals(trailing, raw)
        bound = tol * scale
        # polish to the machine-precision floor, not merely to the bound:
        # simple roots gain several digits over the raw eigenvalues
        floor = 64.0 * np.finfo(float).eps * scale
        asc = trailing.tolist()
        found = raw.tolist()
        for i in np.flatnonzero(res > floor).tolist():
            r = found[i]
            r_res = abs(_eval_scaled(asc, r))
            for _ in range(_MAX_POLISH):
                if r_res <= floor:
                    break
                cand = _newton_step(asc, r)
                cand_res = abs(_eval_scaled(asc, cand))
                if cand_res >= r_res:
                    break
                r, r_res = cand, cand_res
            found[i], res[i] = r, r_res
        over = np.flatnonzero(res > bound)
        if over.size:
            raise ArithmeticError(
                f"root residual {res[over[0]]:.3e} exceeds bound {bound:.3e}"
            )
        points.extend(map(RiemannPoint, found))
    points.extend(RiemannPoint.infinity() for _ in range(n - d))
    return points


def point_key(p: RiemannPoint) -> tuple[int, float, float]:
    """Sort key of the point order: finite points by (Re, Im), infinity last."""
    if p.is_infinite:
        return (1, 0.0, 0.0)
    z = p.value
    return (0, z.real, z.imag)


def single_linkage(pairs: np.ndarray, tol: float) -> np.ndarray:
    """Group label of each row of an (m, 2) projective-pair array under single
    linkage at chordal distance <= ``tol`` (transitive: a chain of such steps
    links a group), groups numbered in order of their smallest member; the one
    test of "same point".  Distances come in row blocks of at most
    :data:`_LINK_CHUNK`; union-find visits only the linked pairs, usually none.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = len(pairs)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    step = max(1, _LINK_CHUNK // max(m, 1))
    for start in range(0, m, step):
        # columns from `start` on, so the block's diagonal is the main one
        _, dist = projective_differences(pairs[start : start + step], pairs[start:])
        rows, cols = np.nonzero(dist <= tol)
        upper = rows < cols
        for i, j in zip((rows[upper] + start).tolist(), (cols[upper] + start).tolist()):
            parent[find(i)] = find(j)

    label: dict[int, int] = {}
    return np.array([label.setdefault(find(i), len(label)) for i in range(m)], dtype=int)


def degeneracy(labels: np.ndarray) -> tuple[int, ...]:
    """Descending group sizes of single-linkage labels."""
    return tuple(sorted(np.bincount(labels).tolist(), reverse=True))


def degeneracy_class(
    roots: Sequence[RiemannPoint], tol: float = DEFAULT_CLUSTER_TOL
) -> tuple[int, ...]:
    """Descending single-linkage group sizes, the coarse SLOCC class."""
    return degeneracy(single_linkage(projective_pairs(roots), tol))


def cluster(
    points: Sequence[RiemannPoint], tol: float = DEFAULT_CLUSTER_TOL
) -> list[tuple[RiemannPoint, int]]:
    """(representative, multiplicity) of each :func:`single_linkage` group, the
    representative being the normalized mean of the member sphere vectors.
    Ordered by descending multiplicity, then the representative's plane
    coordinates."""
    labels = single_linkage(projective_pairs(points), tol)
    counts = np.bincount(labels)
    means = np.zeros((len(counts), 3))
    np.add.at(means, labels, np.array([to_sphere(p) for p in points]).reshape(-1, 3))
    means /= counts[:, None]
    # np.linalg.norm's dot product, row by row
    norms = np.sqrt(means[:, None] @ means[..., None]).ravel()
    reps = [  # a pathologically spread group keeps its first member
        points[int(np.argmax(labels == g))] if norm < 1e-9
        else from_sphere(SphereVector(*(mean / norm)))
        for g, (mean, norm) in enumerate(zip(means, norms.tolist()))
    ]
    return sorted(zip(reps, counts.tolist()), key=lambda item: (-item[1], *point_key(item[0])))

"""Reference computations made apart from stellarinv.

Everything here uses numpy and the standard library only, never the
package under test, so a check that compares the program with these
functions compares two independent routes.  Points on the extended
plane are projective pairs (a, b) meaning alpha = a / b, with b = 0 the
point at infinity; arrays of them have shape (m, 2).
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

#: Smallest disagreement a digits figure distinguishes; a disagreement of
#: exactly zero reads as this, so digits stay finite.
DIGITS_FLOOR = 2.0**-53

INFINITY = (1.0 + 0.0j, 0.0j)


def normalize_pairs(pairs) -> np.ndarray:
    """Rescale every pair to max(|a|, |b|) = 1."""
    p = np.asarray(pairs, dtype=complex).reshape(-1, 2)
    return p / np.abs(p).max(axis=1, keepdims=True)


def pairs_from_values(values) -> np.ndarray:
    """Projective pairs of complex values, ``None`` standing for infinity."""
    out = []
    for z in values:
        if z is None:
            out.append(INFINITY)
        else:
            out.append((complex(z), 1.0 + 0.0j))
    return normalize_pairs(out)


def sphere(pairs) -> np.ndarray:
    """Unit vectors of the inverse stereographic images, alpha = 0 at +z."""
    p = normalize_pairs(pairs)
    a, b = p[:, 0], p[:, 1]
    d = np.abs(a) ** 2 + np.abs(b) ** 2
    w = a * b.conj()
    return np.stack([2 * w.real / d, 2 * w.imag / d, (np.abs(b) ** 2 - np.abs(a) ** 2) / d], axis=1)


def pairs_from_sphere(vecs) -> np.ndarray:
    """Forward stereographic map of unit vectors, inverse of :func:`sphere`."""
    v = np.asarray(vecs, dtype=float).reshape(-1, 3)
    north = v[:, 2] >= 0
    a = np.where(north, v[:, 0] + 1j * v[:, 1], 1.0 - v[:, 2])
    b = np.where(north, 1.0 + v[:, 2], v[:, 0] - 1j * v[:, 1])
    return normalize_pairs(np.stack([a, b], axis=1))


def chordal_matrix(p, q) -> np.ndarray:
    """Chordal distances |v_i - w_j| between two point sets."""
    u, v = sphere(p), sphere(q)
    return np.linalg.norm(u[:, None, :] - v[None, :, :], axis=2)


def match(found, expected) -> tuple[np.ndarray, float]:
    """Assign each expected point its nearest found point.

    Returns (perm, worst) with found[perm[i]] matched to expected[i] and the
    largest chordal distance of the assignment.  A perm that is not a
    permutation, because two expected points chose the same found point,
    reads as distance 2, the largest possible.
    """
    d = chordal_matrix(expected, found)
    perm = d.argmin(axis=1)
    if len(set(perm.tolist())) != len(perm) or d.shape[0] != d.shape[1]:
        return perm, 2.0
    return perm, float(d[np.arange(len(perm)), perm].max())


def polynomial(pairs) -> np.ndarray:
    """Coefficients, ascending in alpha, of prod_i (b_i alpha - a_i)."""
    c = np.ones(1, dtype=complex)
    for a, b in normalize_pairs(pairs):
        c = np.convolve(c, np.array([-a, b]))
    return c


def dicke_amplitudes(pairs) -> np.ndarray:
    """Normalized Dicke amplitudes (m ascending) whose roots are ``pairs``."""
    c = polynomial(pairs)
    n = c.size - 1
    amps = c / np.sqrt([float(math.comb(n, k)) for k in range(n + 1)])
    return amps / np.linalg.norm(amps)


def coefficients(amplitudes) -> np.ndarray:
    """Stellar polynomial coefficients sqrt(binom(n, k)) a_k, ascending."""
    amps = np.asarray(amplitudes, dtype=complex)
    n = amps.size - 1
    return amps * np.sqrt([float(math.comb(n, k)) for k in range(n + 1)])


def scaled_residuals(roots, found) -> np.ndarray:
    """|P(a, b)| / max|c| at each found point, P the polynomial with ``roots``.

    P is evaluated in product form, prod_i (b_i a - a_i b), so no expansion
    error enters; each found pair is rescaled to max(|a|, |b|) = 1, which
    bounds the figure by the coefficient scale on the whole sphere,
    infinity included.
    """
    r = normalize_pairs(roots)
    f = normalize_pairs(found)
    factors = r[None, :, 1] * f[:, None, 0] - r[None, :, 0] * f[:, None, 1]
    return np.abs(np.prod(factors, axis=1)) / np.abs(polynomial(r)).max()


def amplitude_residuals(amplitudes, found) -> np.ndarray:
    """The same figure for the polynomial of given Dicke amplitudes, in the
    homogeneous form sum c_k a^k b^(n-k); for inputs whose roots are not
    known beforehand."""
    c = coefficients(amplitudes)
    n = c.size - 1
    f = normalize_pairs(found)
    k = np.arange(n + 1)
    terms = c[None, :] * f[:, :1] ** k[None, :] * f[:, 1:] ** (n - k)[None, :]
    return np.abs(terms.sum(axis=1)) / np.abs(c).max()


def antipodes(pairs) -> np.ndarray:
    """alpha -> -1 / conj(alpha), the antipodal map."""
    p = normalize_pairs(pairs)
    return normalize_pairs(np.stack([-p[:, 1].conj(), p[:, 0].conj()], axis=1))


# -- single-qubit generators; basis order (m = -1/2, m = +1/2) ---------------

_SP = np.array([[0, 0], [1, 0]], dtype=complex)
_SM = _SP.T.copy()
_SZ = np.diag([-0.5, 0.5]).astype(complex)


def expm2(g) -> np.ndarray:
    """exp(G) of a traceless 2x2 matrix: cosh(mu) I + sinh(mu)/mu G, mu^2 = -det G."""
    g = np.asarray(g, dtype=complex)
    mu = np.sqrt(-np.linalg.det(g) + 0j)
    if abs(mu) < 1e-8:
        return np.eye(2) + g + g @ g / 2
    return np.cosh(mu) * np.eye(2) + np.sinh(mu) / mu * g


def lu_matrix(h) -> np.ndarray:
    """One-qubit factor of exp(i (hx Sx + hy Sy + hz Sz))."""
    hx, hy, hz = (float(c) for c in h)
    sx = (_SP + _SM) / 2
    sy = (_SP - _SM) / 2j
    return expm2(1j * (hx * sx + hy * sy + hz * _SZ))


def ilo_matrix(beta1, beta2, h) -> np.ndarray:
    """One-qubit factor of exp(i h (S+/(b1+b2) + Sz - b1 b2 S-/(b1+b2)))."""
    s = beta1 + beta2
    return expm2(1j * h * (_SP / s + _SZ - beta1 * beta2 * _SM / s))


def move(matrix, pairs) -> np.ndarray:
    """Roots of the state after the product operator matrix^(x n).

    A qubit (u0, u1) contributes the factor u0 + u1 alpha, so the root
    (a, b) is the qubit (-a, b); the operator maps it to A (-a, b).
    """
    p = normalize_pairs(pairs)
    u = np.stack([-p[:, 0], p[:, 1]], axis=1) @ np.asarray(matrix).T
    return normalize_pairs(np.stack([-u[:, 0], u[:, 1]], axis=1))


# -- dense 2^n route, qubit 1 the most significant bit ------------------------


def dense_from_roots(pairs) -> np.ndarray:
    """Normalized symmetrized product of the qubits (-a_i, b_i)."""
    qubits = [np.array([-a, b]) for a, b in normalize_pairs(pairs)]
    n = len(qubits)
    out = np.zeros(2**n, dtype=complex)
    for order in itertools.permutations(range(n)):
        t = np.ones(1, dtype=complex)
        for i in order:
            t = np.kron(t, qubits[i])
        out += t
    return out / np.linalg.norm(out)


def purity_invariant(t) -> float:
    """2 Tr[rho_1^2] - 1 of the first qubit."""
    m = np.asarray(t).reshape(2, -1)
    rho1 = m @ m.conj().T
    return float(2.0 * np.trace(rho1 @ rho1).real - 1.0)


def concurrence_pure2(t) -> float:
    """2 |t00 t11 - t01 t10| of a normalized two-qubit vector."""
    t = np.asarray(t)
    return float(2.0 * abs(t[0] * t[3] - t[1] * t[2]))


_EPS = np.array([[0.0, 1.0], [-1.0, 0.0]])


def three_tangle_cayley(t) -> float:
    """3-tangle, 4 |Cayley hyperdeterminant|, from the epsilon contraction
    of four copies of the state (the contraction is -2 times the
    hyperdeterminant)."""
    t = np.asarray(t).reshape(2, 2, 2)
    e = _EPS
    det = np.einsum(
        "ace,bdf,gik,hjl,ab,gh,cd,ij,ek,fl->",
        t, t, t, t, e, e, e, e, e, e,
        optimize=True,
    )
    return float(2.0 * abs(det))


# -- SLOCC ---------------------------------------------------------------------


def cross_ratios(z, p1, p2, p3) -> np.ndarray:
    """(z - a1)(a2 - a3) / ((a2 - a1)(z - a3)) projectively, as pairs: the
    image of z under the Moebius map sending (a1, a2, a3) to (0, 1, inf)."""
    z = normalize_pairs(z)
    a1, a2, a3 = (normalize_pairs(p)[0] for p in (p1, p2, p3))

    def det(u, v):
        return u[..., 0] * v[..., 1] - v[..., 0] * u[..., 1]

    num = det(z, a1) * det(a2, a3)
    den = det(a2, a1) * det(z, a3)
    return normalize_pairs(np.stack([num, den], axis=-1))


def klein_j(lam: complex) -> complex:
    """J = 4 (l^2 - l + 1)^3 / (27 l^2 (l - 1)^2)."""
    return 4.0 * (lam * lam - lam + 1.0) ** 3 / (27.0 * lam * lam * (lam - 1.0) ** 2)


def klein_j_of_roots(pairs) -> complex:
    """Klein J of the cross ratio of four points, finite or not."""
    p = normalize_pairs(pairs)
    lam = cross_ratios(p[3:4], p[0], p[1], p[2])[0]
    return klein_j(lam[0] / lam[1])


@lru_cache(maxsize=None)
def _ordered_4tuples(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n), 4)))


def power_sums(pairs, powers=(2, 4)) -> dict[int, complex]:
    """sum over all n! orderings of lambda^k, lambda the cross ratio of the
    fourth root against the first three; (n - 4)! times the sum over
    ordered 4-tuples.  Assumes pairwise distinct roots."""
    p = normalize_pairs(pairs)
    n = len(p)
    idx = _ordered_4tuples(n)
    a, b = p[:, 0], p[:, 1]
    i1, i2, i3, i4 = idx.T

    def det(i, j):
        return a[i] * b[j] - a[j] * b[i]

    lam = det(i4, i1) * det(i2, i3) / (det(i4, i3) * det(i2, i1))
    w = math.factorial(n - 4)
    return {k: complex(np.sum(lam**k)) * w for k in powers}


def rel(a, b) -> float:
    """|a - b| / max(|a|, |b|, 1): relative above 1, absolute below."""
    a = complex(a)
    b = complex(b)
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def rel_vec(a, b) -> float:
    """max |a_i - b_i| / max |a_i|, norm-wise relative disagreement."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return math.inf
    return float(np.abs(a - b).max() / max(np.abs(a).max(), DIGITS_FLOOR))


def digits(worst: float) -> float:
    """-log10 of a disagreement, floored at :data:`DIGITS_FLOOR`."""
    return -math.log10(max(worst, DIGITS_FLOOR))

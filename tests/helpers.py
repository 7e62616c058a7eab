"""Shared sampling and comparison helpers for the test suite."""
import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from stellarinv import (
    DivergentSumError,
    RiemannPoint,
    chordal_distance,
    find_roots,
    from_dicke,
    from_sphere,
    majorana_polynomial,
    SphereVector,
)
from stellarinv.roots import DEFAULT_ROOT_TOL, _MAX_POLISH, _newton_step, _scaled_residuals


def random_state(rng, n):
    """Normalized symmetric state with independent complex Gaussian amplitudes."""
    amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return from_dicke(n, amps)


def random_unit_vector(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_points(rng, n, min_sep=1e-3):
    """Uniform sphere points, resampled until pairwise chordal >= min_sep."""
    while True:
        vecs = [random_unit_vector(rng) for _ in range(n)]
        ok = all(
            np.linalg.norm(vecs[i] - vecs[j]) >= min_sep
            for i in range(n)
            for j in range(i + 1, n)
        )
        if ok:
            return [from_sphere(SphereVector(*v)) for v in vecs]


def random_qubit(rng):
    u = rng.normal(size=2) + 1j * rng.normal(size=2)
    return u / np.linalg.norm(u)


def random_h(rng):
    """Rotation generator: uniform axis, magnitude uniform in [0, pi]."""
    axis = random_unit_vector(rng)
    return axis * rng.uniform(0.0, np.pi)


def random_disk(rng):
    while True:
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(z) <= 1.0:
            return z


def roots_of(state):
    return find_roots(majorana_polynomial(state))


def multiset_distance(ps, qs):
    """Greedy nearest-matching distance between two point multisets.

    Repeatedly pairs the globally closest remaining points and returns the
    largest chordal distance among the chosen pairs.  Adequate for the
    separations used in tests; not certified for near-degenerate multisets.
    """
    if len(ps) != len(qs):
        raise ValueError("multisets must have equal size")
    left = list(ps)
    right = list(qs)
    worst = 0.0
    while left:
        best = None
        for i, p in enumerate(left):
            for j, q in enumerate(right):
                d = chordal_distance(p, q)
                if best is None or d < best[0]:
                    best = (d, i, j)
        worst = max(worst, best[0])
        left.pop(best[1])
        right.pop(best[2])
    return worst


def reference_linkage(points, tol):
    """Single-linkage groups by the scalar pair loop over chordal_distance.

    The reference for ``roots.single_linkage``: same threshold (<= tol) and
    the same group order (by smallest member, members ascending).
    """
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

    groups = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def reference_power_sums(points, powers):
    """Permutation power sums I_k by power, from one ``math.fsum`` over every
    ordered 4-tuple of the points, weighted by (n-4)!.

    The reference for ``slocc.symmetrized_ik``, which sums the six ratios
    -u/v of the three Pluecker products u, v of each 4-subset.  Every
    projective difference a_x b_y - b_x a_y and every tuple's numerator and
    denominator is formed on its own from real products rounded once, as
    the program forms its products, and the ratios and the powers run in
    numpy, as there.  A sum that is not a finite float, the program's one
    divergence rule, raises ``DivergentSumError``.
    """

    def times(x, y):
        return complex(x.real * y.real - x.imag * y.imag, x.real * y.imag + x.imag * y.real)

    pairs = [(p.a, p.b) for p in points]
    det = [[times(a, d) - times(b, c) for c, d in pairs] for a, b in pairs]
    num, den = [], []
    for i1, i2, i3, i4 in itertools.permutations(range(len(pairs)), 4):
        num.append(times(det[i4][i1], det[i2][i3]))
        den.append(times(det[i4][i3], det[i2][i1]))
    num, den = np.array(num), np.array(den)
    weight = math.factorial(len(pairs) - 4)
    sums = {}
    for k in powers:
        with np.errstate(all="ignore"):
            terms = (num / den) ** k
        try:
            parts = math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist())
        except (OverflowError, ValueError):
            raise DivergentSumError("a partial sum is beyond the float range")
        sums[k] = complex(*parts) * weight
        if not cmath.isfinite(sums[k]):
            raise DivergentSumError("the sum is beyond the float range")
    return sums


def binary_form(state):
    """b_0..b_n of the state's binary form sum_k binom(n, k) b_k x^k, the
    Majorana polynomial: b_k = a_k / sqrt(binom(n, k))."""
    n = state.n
    return state.amplitudes / np.sqrt([math.comb(n, k) for k in range(n + 1)])


def reference_quartic_ij(state):
    """Root-free invariants (I, J) of a four-qubit state's binary quartic:
    I = b0 b4 - 4 b1 b3 + 3 b2^2 and J the determinant of the Hankel matrix
    [[b0, b1, b2], [b1, b2, b3], [b2, b3, b4]] (Olver, Classical Invariant
    Theory, 1999).  Klein's J of the roots is I^3 / (I^3 - 27 J^2), whose
    denominator is the discriminant of the quartic up to a constant.
    """
    b0, b1, b2, b3, b4 = binary_form(state).tolist()
    i = b0 * b4 - 4.0 * b1 * b3 + 3.0 * b2 * b2
    j = b0 * b2 * b4 + 2.0 * b1 * b2 * b3 - b2**3 - b0 * b3 * b3 - b1 * b1 * b4
    return i, j


def reference_cubic_discriminant(state):
    """Root-free discriminant of a three-qubit state's binary cubic,
    (b0 b3 - b1 b2)^2 - 4 (b0 b2 - b1^2)(b1 b3 - b2^2).  It is Cayley's
    hyperdeterminant of the symmetric 2x2x2 tensor of amplitudes b, so four
    times its modulus is the 3-tangle (Coffman, Kundu & Wootters, PRA 61,
    052306, 2000)."""
    b0, b1, b2, b3 = binary_form(state).tolist()
    return (b0 * b3 - b1 * b2) ** 2 - 4.0 * (b0 * b2 - b1 * b1) * (b1 * b3 - b2 * b2)


def reference_i2_n4(z):
    """The paper's degree-6 form of the symmetrized quadratic invariant of
    four roots at a finite cross ratio z off {0, 1}:
    (2(z^6+1) - 6(z^5+z) + 9(z^4+z^2) - 8 z^3) / (z^2 (z-1)^2).

    Independent of ``slocc.klein_j``, which ``i2_closed_n4`` reads, so the
    identity I2 = -3 + (27/2) J is checked between two forms.
    """
    return (2.0 * (z**6 + 1.0) - 6.0 * (z**5 + z) + 9.0 * (z**4 + z * z) - 8.0 * z**3) / (
        z * z * (z - 1.0) ** 2
    )


def reference_scaled_residual(asc, z):
    """Scalar Horner reference for ``roots._scaled_residuals``: |P(z)| for
    |z| <= 1, the reversed polynomial at 1/z otherwise, on Python complex
    numbers, one coefficient at a time."""
    if abs(z) > 1.0:
        asc = asc[::-1]
        z = 1.0 / z
    acc = 0.0 + 0.0j
    for c in asc[::-1]:
        acc = acc * z + c
    return abs(acc)


def reference_find_roots(poly):
    """The ``np.roots`` route of ``roots.find_roots``: np.roots of the
    trailing degree-d polynomial, which strips only exactly-zero low
    coefficients and appends their zeros after the eigenvalues, then the
    same residual gate and Newton polish, then n - d points at infinity.

    The reference ``find_roots`` matches bit for bit wherever every low
    coefficient is exactly zero or above the end-coefficient threshold."""
    coeffs = poly.coefficients
    scale = np.abs(coeffs).max()
    d = poly.degree
    points = []
    if d > 0:
        trailing = coeffs[: d + 1]
        raw = np.roots(trailing[::-1])
        res = _scaled_residuals(trailing, raw)
        floor = 64.0 * np.finfo(float).eps * scale
        asc = trailing.tolist()
        found = raw.tolist()
        for i in np.flatnonzero(res > floor).tolist():
            r, r_res = found[i], res[i]
            for _ in range(_MAX_POLISH):
                cand = _newton_step(asc, r)
                cand_res = _scaled_residuals(trailing, np.array([cand]))[0]
                if cand_res >= r_res:
                    break
                r, r_res = cand, cand_res
                if r_res <= floor:
                    break
            found[i], res[i] = r, r_res
        assert res.max() <= DEFAULT_ROOT_TOL * scale
        points.extend(map(RiemannPoint, found))
    points.extend(RiemannPoint.infinity() for _ in range(poly.n - d))
    return points


def assert_multisets_close(ps, qs, tol):
    d = multiset_distance(ps, qs)
    assert d <= tol, f"multiset distance {d:.3e} exceeds {tol:.1e}"


def point(z):
    return RiemannPoint(complex(z))


def inf_point():
    return RiemannPoint.infinity()


@dataclass(frozen=True)
class SpinOperators:
    """Collective spin matrices in the Dicke basis, m ascending."""

    sp: np.ndarray
    sm: np.ndarray
    sz: np.ndarray

    @property
    def sx(self) -> np.ndarray:
        return (self.sp + self.sm) / 2.0

    @property
    def sy(self) -> np.ndarray:
        return (self.sp - self.sm) / 2.0j


def spin_operators(n):
    """Raising, lowering and z spin matrices for the n-qubit symmetric sector.

    The reference the symmetric-power operators are checked against.
    """
    if n < 1:
        raise ValueError("n must be positive")
    s = n / 2.0
    dim = n + 1
    m = -s + np.arange(dim)
    sz = np.diag(m).astype(complex)
    sp = np.zeros((dim, dim), dtype=complex)
    for k in range(dim - 1):
        mm = m[k]
        sp[k + 1, k] = np.sqrt(s * (s + 1) - mm * (mm + 1))
    return SpinOperators(sp=sp, sm=sp.conj().T, sz=sz)


#: Complex entries whose parts include both signed zeros, so that a bit-level
#: comparison sees the sign of every zero a rewrite produces.
signed_zero_complex = st.builds(
    complex, *[st.sampled_from([0.0, -0.0]) | st.floats(-10, 10)] * 2
)


def reference_bit_weights(n):
    """Bit count of every basis index 0..2^n - 1, one index at a time."""
    return np.array([bin(x).count("1") for x in range(2**n)])


def reference_time_reversal(a):
    """Dicke-basis time reversal b_k = (-1)^k conj(a_{n-k}), one entry at a time."""
    n = len(a) - 1
    return np.array([(-1) ** k * np.conj(a[n - k]) for k in range(n + 1)])


def reference_time_reversal_dense(t):
    """Dense-register time reversal, one basis index at a time."""
    t = np.asarray(t, dtype=complex)
    n = int(np.log2(t.size))
    out = np.empty_like(t)
    full = (1 << n) - 1
    for x in range(t.size):
        w = bin(x).count("1")
        out[full ^ x] = (-1) ** (n + w) * np.conj(t[x])
    return out


def reference_partial_trace(rho, keep):
    """Reduced density matrix of a 2^n x 2^n density matrix over the 1-based
    qubits in ``keep``, by one einsum over its 2n axes.

    The reference for ``oracle.partial_trace``, which reduces the state vector.
    """
    rho = np.asarray(rho, dtype=complex)
    n = rho.shape[0].bit_length() - 1
    keep0 = sorted(int(q) - 1 for q in keep)
    bra = list(range(n))
    ket = [i + n if i in keep0 else i for i in range(n)]
    reduced = np.einsum(rho.reshape((2,) * (2 * n)), bra + ket, keep0 + [i + n for i in keep0])
    dim = 2 ** len(keep0)
    return reduced.reshape(dim, dim)


def reference_concurrence(t):
    """Wootters concurrence of a pure 2-qubit vector by the spin-flip route.

    C = max(0, l1 - l2 - l3 - l4) with l_i the descending singular values of
    rho (sy x sy) conj(rho), rho = |t><t| (for a pure state sqrt(rho) = rho).
    The reference for ``oracle.wootters_concurrence``.
    """
    t = np.asarray(t, dtype=complex)
    rho = np.outer(t, t.conj())
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    yy = np.kron(sy, sy)
    lam = np.linalg.svd(rho @ yy @ rho.conj(), compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def reference_three_tangle(t):
    """3-tangle 4 |d1 - 2 d2 + 4 d3| of a pure 3-qubit vector, Cayley's
    hyperdeterminant written out as its 14 amplitude products (Coffman,
    Kundu & Wootters, PRA 61, 052306, 2000).

    The reference for ``oracle.three_tangle``, which reads the same
    hyperdeterminant off three 2x2 determinants.
    """
    t = np.asarray(t, dtype=complex)

    def g(i, j, k):
        return t[(i << 2) | (j << 1) | k]

    d1 = (
        g(0, 0, 0) ** 2 * g(1, 1, 1) ** 2
        + g(0, 0, 1) ** 2 * g(1, 1, 0) ** 2
        + g(0, 1, 0) ** 2 * g(1, 0, 1) ** 2
        + g(1, 0, 0) ** 2 * g(0, 1, 1) ** 2
    )
    d2 = (
        g(0, 0, 0) * g(1, 1, 1) * g(0, 1, 1) * g(1, 0, 0)
        + g(0, 0, 0) * g(1, 1, 1) * g(1, 0, 1) * g(0, 1, 0)
        + g(0, 0, 0) * g(1, 1, 1) * g(1, 1, 0) * g(0, 0, 1)
        + g(0, 1, 1) * g(1, 0, 0) * g(1, 0, 1) * g(0, 1, 0)
        + g(0, 1, 1) * g(1, 0, 0) * g(1, 1, 0) * g(0, 0, 1)
        + g(1, 0, 1) * g(0, 1, 0) * g(1, 1, 0) * g(0, 0, 1)
    )
    d3 = (
        g(0, 0, 0) * g(1, 1, 0) * g(1, 0, 1) * g(0, 1, 1)
        + g(1, 1, 1) * g(0, 0, 1) * g(0, 1, 0) * g(1, 0, 0)
    )
    return float(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3))

"""Shared sampling and comparison helpers for the test suite."""
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from stellarinv import (
    RiemannPoint,
    chordal_distance,
    find_roots,
    from_dicke,
    from_sphere,
    majorana_polynomial,
    SphereVector,
)


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

"""Workload inputs, the operations that call stellarinv, and their checks.

An operation is a closure over inputs the benchmark chose from its seed.
Its ``run`` makes only program calls and is what the benchmark times; its
``check`` compares the outputs with :mod:`reference` and returns False when
the operation failed.  Program calls go through module attributes at call
time (``si.find_roots``, never a name bound at build time) so that the
traced run sees them.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

import numpy as np
from stellarinv.roots import DEFAULT_ROOT_TOL

import reference as R

# Check tolerances.  Each is loose against what the program reaches on these
# inputs and tight against a wrong answer.
STATE_TOL = 1e-9        # 1 - |<own amplitudes | program amplitudes>|
ROOT_MATCH_TOL = 1e-6   # chordal distance of a found root to its expected root
SPHERE_TOL = 1e-12      # sphere points and Gram entries, absolute
ORACLE_TOL = 1e-9       # dense-route invariants, absolute
INVARIANT_TOL = 1e-6    # klein_j and power sums against the own computation
SPECTRUM_TOL = 1e-9     # Gram spectrum before/after an LU transform
SLUI_TOL = 1e-4         # SLUI coefficients before/after; degree n(n-1)/2
SLOCC_TOL = 1e-5        # SLOCC invariants before/after an ILO transform

#: Degenerate families are classified after a transform drawn from this seed
#: rather than from ``--seed``: those operations fail on every seed, and a
#: seed-independent input keeps the failed share identical in every run.
FIXED_SEED = 271828

#: Largest condition number of the one-qubit ILO factor the benchmark draws.
#: Past n = 16 the program's roots of an ILO-moved state lose accuracy
#: quickly as the factor's condition grows (a third of n = 32 states fail
#: the root check at 4), so large-n draws milder transforms.
SMALL_ILO_COND = 4.0
LARGE_ILO_COND = 1.5

SMALL_N = (2, 3, 4, 5, 6, 7, 8)
#: n = 64 is left out: SLUI coefficients of degree 2016 disagree under LU
#: transforms by more than their size, and ILO-moved roots go wrong.
LARGE_N = (16, 24, 32)
#: Seeded states per n.  The cost of an ILO operator depends on the drawn
#: parameters, so large-n averages over more draws to keep the cost of a
#: round nearly the same from seed to seed.
SMALL_STATES_PER_N = 3
LARGE_STATES_PER_N = 8


@dataclass
class Tally:
    """Worst disagreements of a run and the checks that did not hold."""

    residual: float = 0.0
    lu: float = 0.0
    slocc: float = 0.0
    oracle: float = 0.0
    errors: list = field(default_factory=list)
    error_count: int = 0

    def expect(self, ok: bool, what: str) -> bool:
        if not ok:
            self.error_count += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok

    def within(self, value: float, tol: float, what: str) -> None:
        self.expect(value <= tol, f"{what}: {value:.3e} exceeds {tol:.0e}")

    def worse(self, name: str, value: float) -> None:
        if value > getattr(self, name) or math.isnan(value):
            setattr(self, name, value)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object, Tally], bool]


# -- inputs ------------------------------------------------------------------


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def random_roots(rng, n: int, infinite: bool, min_sep: float = 0.5) -> np.ndarray:
    """n points uniform on the sphere, pairwise chordally >= min_sep apart;
    with ``infinite`` the first one is exactly the point at infinity."""
    vecs = [np.array([0.0, 0.0, -1.0])] if infinite else []
    while len(vecs) < n:
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        if all(np.linalg.norm(v - w) >= min_sep for w in vecs):
            vecs.append(v)
    pairs = R.pairs_from_sphere(vecs)
    if infinite:
        pairs[0] = R.INFINITY
    return pairs


def lattice_roots(rng, n: int, infinite: bool) -> np.ndarray:
    """Randomly rotated, jittered Fibonacci lattice of n points; with
    ``infinite`` the point nearest the south pole becomes infinity."""
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    r = np.sqrt(1.0 - z * z)
    vecs = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    vecs = vecs @ q.T + rng.normal(scale=0.1 / math.sqrt(n), size=(n, 3))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    pairs = R.pairs_from_sphere(vecs)
    if infinite:
        pairs[np.argmin(vecs[:, 2])] = R.INFINITY
    return pairs


def ghz_roots(n: int) -> np.ndarray:
    """Roots of 1 + alpha^n."""
    return R.pairs_from_values(np.exp(1j * math.pi * (2 * np.arange(n) + 1) / n))


def ghz4_roots(mu: complex) -> np.ndarray:
    """Roots of (1 + alpha^4)/sqrt(2) + sqrt(6) mu alpha^2, a quadratic in alpha^2."""
    a = 1 / math.sqrt(2)
    b = math.sqrt(6) * mu
    disc = np.sqrt(b * b - 4 * a * a + 0j)
    xs = [(-b + disc) / (2 * a), (-b - disc) / (2 * a)]
    return R.pairs_from_values([s * np.sqrt(x) for x in xs for s in (1, -1)])


def family_roots(name: str, n: int) -> np.ndarray:
    """Roots of W_n (0 once, infinity n-1 times), Dicke(n, n/2) and GHZ_n."""
    zero, inf = (0j, 1 + 0j), R.INFINITY
    if name == "w":
        return R.normalize_pairs([zero] + [inf] * (n - 1))
    if name == "dicke":
        return R.normalize_pairs([zero] * (n // 2) + [inf] * (n // 2))
    return ghz_roots(n)


def draw_mu(rng) -> complex:
    """ghz4_family parameter in the unit disk, away from the excluded +-1/sqrt(3)."""
    while True:
        mu = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(mu) <= 1 and min(abs(mu - x) for x in (3**-0.5, -(3**-0.5))) > 0.2:
            return mu


def draw_lu(rng) -> np.ndarray:
    """Uniform rotation axis, angle uniform in [0, pi]."""
    axis = rng.normal(size=3)
    return axis / np.linalg.norm(axis) * rng.uniform(0.0, math.pi)


def draw_ilo(rng, max_cond: float = SMALL_ILO_COND) -> tuple[complex, complex, complex]:
    """(beta1, beta2, h) from the unit disk, kept away from the domain
    boundary and with a one-qubit factor of bounded condition number."""
    def disk():
        while True:
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if abs(z) <= 1:
                return z

    while True:
        b1, b2, h = disk(), disk(), disk()
        if abs(b1 - b2) < 0.1 or abs(b1 + b2) < 0.1:
            continue
        if np.linalg.cond(R.ilo_matrix(b1, b2, h)) <= max_cond:
            return b1, b2, h


# -- helpers on program outputs ----------------------------------------------


def point_pairs(points) -> np.ndarray:
    return np.array([[p.a, p.b] for p in points], dtype=complex).reshape(-1, 2)


def json_pairs(entries) -> np.ndarray:
    return R.pairs_from_values([None if e == "inf" else complex(*e) for e in entries])


def chordal(p, q) -> np.ndarray:
    """Elementwise chordal distance of two equally long point arrays."""
    return np.linalg.norm(R.sphere(p) - R.sphere(q), axis=1)


def check_roots(t: Tally, found, expected, what: str) -> np.ndarray | None:
    """Match found roots to expected ones and record the residual of the
    found roots in the benchmark's own polynomial of the expected ones."""
    perm, d = R.match(found, expected)
    ok = t.expect(d <= ROOT_MATCH_TOL, f"{what}: roots off by {d:.3e}")
    check_residual(t, expected, found, what)
    return perm if ok else None


def check_residual(t: Tally, roots, found, what: str) -> None:
    res = float(R.scaled_residuals(roots, found).max())
    t.worse("residual", res)
    t.within(res, DEFAULT_ROOT_TOL, f"{what}: scaled residual")


def check_gram(t: Tally, found, vecs, gram, what: str) -> None:
    """Sphere points are the stereographic images of the roots and the Gram
    matrix holds their dot products."""
    own = R.sphere(found)
    t.within(float(np.abs(own - vecs).max()), SPHERE_TOL, f"{what}: sphere points")
    t.within(float(np.abs(own @ own.T - gram).max()), SPHERE_TOL, f"{what}: gram")


def compare_lu(t: Tally, gram_a, slui_a, gram_b, slui_b, what: str) -> None:
    spec = R.rel_vec(np.linalg.eigvalsh(gram_a), np.linalg.eigvalsh(gram_b))
    slui = R.rel_vec(slui_a, slui_b)
    t.worse("lu", max(spec, slui))
    t.within(spec, SPECTRUM_TOL, f"{what}: Gram spectrum moved")
    t.within(slui, SLUI_TOL, f"{what}: SLUI coefficients moved")


def compare_slocc(t: Tally, a: dict, b: dict, what: str) -> None:
    """a and b map invariant names to complex values (klein_j, power sums)."""
    t.expect(a.keys() == b.keys(), f"{what}: SLOCC invariants {sorted(a)} vs {sorted(b)}")
    for key in a.keys() & b.keys():
        d = R.rel(a[key], b[key])
        t.worse("slocc", d)
        t.within(d, SLOCC_TOL, f"{what}: {key} moved")


def check_own_slocc(t: Tally, values: dict, roots, what: str) -> None:
    """klein_j and power sums equal the benchmark's own from the chosen roots."""
    n = len(roots)
    own = {}
    if n == 4:
        own["klein_j"] = R.klein_j_of_roots(roots)
    if 4 <= n <= 8:
        own.update({f"I{k}": v for k, v in R.power_sums(roots).items()})
    t.expect(values.keys() == own.keys(), f"{what}: SLOCC invariants {sorted(values)}")
    for key in values.keys() & own.keys():
        t.within(R.rel(values[key], own[key]), INVARIANT_TOL, f"{what}: {key}")


def check_dense(t: Tally, n: int, roots, stellar: dict, oracle: dict, what: str) -> None:
    """Stellar LU invariants and the program's oracle against the
    benchmark's own dense vector; the stellar gap is the oracle figure."""
    dense = R.dense_from_roots(roots)
    if n == 2:
        own = {"concurrence": R.concurrence_pure2(dense)}
    else:
        own = {"i2": R.purity_invariant(dense), "i6": R.three_tangle_cayley(dense)}
    gap = max(abs(stellar[k] - own[k]) for k in own)
    t.worse("oracle", gap)
    t.within(gap, ORACLE_TOL, f"{what}: stellar LU invariants vs dense")
    t.within(max(abs(oracle[k] - own[k]) for k in own), ORACLE_TOL, f"{what}: oracle vs dense")


# -- library operations ------------------------------------------------------


def report_op(si, n: int, source: str, roots, mu, h_lu, ilo) -> Op:
    """Full report on one state plus one LU and one ILO transform.

    ``source`` is "roots" (state_from_roots of the chosen roots), "ghz" or
    "ghz4" (the named family); ``roots`` are the expected roots either way.
    """
    b1, b2, h_ilo = ilo

    def build():
        if source == "roots":
            return si.state_from_roots([si.RiemannPoint(a, b) for a, b in roots])
        if source == "ghz":
            return si.ghz_state(n)
        return si.ghz4_family(mu)

    def run():
        out = SimpleNamespace(state=build())
        out.roots = si.find_roots(si.majorana_polynomial(out.state))
        out.vecs = [si.to_sphere(p) for p in out.roots]
        out.gram = si.gram(out.vecs)
        out.slui = si.slui_coefficients(out.gram)
        if n == 2:
            out.stellar = {"concurrence": si.concurrence2(out.gram[0, 1])}
            out.oracle = {"concurrence": si.wootters_concurrence(si.dicke_expand(out.state))}
        elif n == 3:
            inv = si.lu_invariants3(out.gram)
            ora = si.oracle_lu_invariants3(si.dicke_expand(out.state))
            out.stellar = {"i2": inv.i2, "i6": inv.i6}
            out.oracle = {"i2": ora.i2, "i6": ora.i6}
        out.summary = si.slocc_summary(out.roots)

        out.lu_state = si.apply_operator(si.lu_unitary(h_lu, n), out.state)
        out.lu_roots = si.find_roots(si.majorana_polynomial(out.lu_state))
        out.lu_gram = si.gram([si.to_sphere(p) for p in out.lu_roots])
        out.lu_slui = si.slui_coefficients(out.lu_gram)

        params = si.IloParameters(b1, b2, h_ilo)
        out.ilo_state = si.apply_operator(si.ilo_operator(params, n), out.state)
        out.ilo_roots = si.find_roots(si.majorana_polynomial(out.ilo_state))
        out.ilo_summary = si.slocc_summary(out.ilo_roots)

        out.tr_state = si.time_reversal(out.state)
        return out

    lu_roots = R.move(R.lu_matrix(h_lu), roots)
    ilo_roots = R.move(R.ilo_matrix(b1, b2, h_ilo), roots)
    what = f"report n={n} {source}"

    def check(out, t: Tally) -> bool:
        own = R.dicke_amplitudes(roots)
        t.within(1 - abs(np.vdot(own, out.state.amplitudes)), STATE_TOL, f"{what}: state")
        found = point_pairs(out.roots)
        perm = check_roots(t, found, roots, what)
        vecs = np.array([[v.x, v.y, v.z] for v in out.vecs])
        check_gram(t, found, vecs, out.gram, what)
        if n <= 3:
            check_dense(t, n, roots, out.stellar, out.oracle, what)
        ones = (1,) * n
        t.expect(out.summary.degeneracy == ones, f"{what}: class {out.summary.degeneracy}")
        t.expect(out.ilo_summary.degeneracy == ones, f"{what}: ILO class {out.ilo_summary.degeneracy}")
        before, after = slocc_values(out.summary), slocc_values(out.ilo_summary)
        check_own_slocc(t, before, roots, what)
        compare_slocc(t, before, after, f"{what} ILO")

        lu_found = point_pairs(out.lu_roots)
        check_roots(t, lu_found, lu_roots, f"{what} LU")
        compare_lu(t, out.gram, out.slui, out.lu_gram, out.lu_slui, f"{what} LU")

        ilo_found = point_pairs(out.ilo_roots)
        ilo_perm = check_roots(t, ilo_found, ilo_roots, f"{what} ILO")
        if n >= 4 and perm is not None and ilo_perm is not None:
            compare_lambda(t, found, perm, out.summary, ilo_found, ilo_perm, out.ilo_summary, what)

        own_tr = R.dicke_amplitudes(R.antipodes(roots))
        t.within(1 - abs(np.vdot(own_tr, out.tr_state.amplitudes)), STATE_TOL, f"{what}: time reversal")
        return True

    return Op(what, run, check)


def slocc_values(summary) -> dict:
    values = {f"I{k}": v for k, v in summary.symmetrized.items()}
    if summary.klein_j is not None:
        values["klein_j"] = summary.klein_j
    return values


def compare_lambda(t: Tally, found, perm, summary, ilo_found, ilo_perm, ilo_summary, what) -> None:
    """The program's lambda vectors, cross ratios of roots 4.. against roots
    1..3 in its own root order, against the benchmark's cross ratios of the
    matching roots on the other side of the ILO transform."""
    n = len(found)
    chosen_of = np.empty(n, dtype=int)
    chosen_of[perm] = np.arange(n)
    ilo_of = ilo_perm[chosen_of]           # before index -> ILO index
    before_of = np.empty(n, dtype=int)
    before_of[ilo_of] = np.arange(n)       # ILO index -> before index
    for lam, pts, order, side in (
        (summary.lambda_vector, ilo_found, ilo_of, "before"),
        (ilo_summary.lambda_vector, found, before_of, "after"),
    ):
        if not t.expect(lam is not None, f"{what}: no lambda vector {side} ILO"):
            continue
        p = pts[order]
        own = R.cross_ratios(p[3:], p[0], p[1], p[2])
        d = float(chordal(point_pairs(lam), own).max())
        t.worse("slocc", d)
        t.within(d, SLOCC_TOL, f"{what}: lambda vector {side} ILO")


def classify_op(si, family: str, n: int, transform: str, params) -> Op:
    """Degeneracy class of a transformed named family, default flags."""
    expected = {
        "w": (n - 1, 1),
        "dicke": (n // 2, n // 2),
        "ghz": (1,) * n,
    }[family]
    make = {
        "w": lambda: si.w_state(n),
        "dicke": lambda: si.dicke_state(n, n // 2),
        "ghz": lambda: si.ghz_state(n),
    }[family]

    def run():
        state = make()
        if transform == "lu":
            op = si.lu_unitary(params, n)
        else:
            op = si.ilo_operator(si.IloParameters(*params), n)
        roots = si.find_roots(si.majorana_polynomial(si.apply_operator(op, state)))
        return roots, si.degeneracy_class(roots)

    matrix = R.lu_matrix(params) if transform == "lu" else R.ilo_matrix(*params)
    moved = R.move(matrix, family_roots(family, n))
    what = f"classify {family}{n} {transform}"

    def check(out, t: Tally) -> bool:
        roots, cls = out
        if tuple(cls) != expected:
            return False
        check_residual(t, moved, point_pairs(roots), what)
        return True

    return Op(what, run, check)


def library_ops(si, workload: str, seed: int) -> list[Op]:
    if workload == "large-n":
        ops = []
        for n in LARGE_N:
            for j in range(LARGE_STATES_PER_N):
                rng = rng_for(seed, n, j)
                roots = lattice_roots(rng, n, infinite=(j == 0))
                ilo = draw_ilo(rng, LARGE_ILO_COND)
                ops.append(report_op(si, n, "roots", roots, None, draw_lu(rng), ilo))
        return ops

    ops = []
    for n in SMALL_N:
        for j in range(SMALL_STATES_PER_N):
            rng = rng_for(seed, n, j)
            roots = random_roots(rng, n, infinite=(j == 0))
            ops.append(report_op(si, n, "roots", roots, None, draw_lu(rng), draw_ilo(rng)))
        rng = rng_for(seed, n, SMALL_STATES_PER_N)
        ops.append(report_op(si, n, "ghz", ghz_roots(n), None, draw_lu(rng), draw_ilo(rng)))
    rng = rng_for(seed, 4, SMALL_STATES_PER_N + 1)
    mu = draw_mu(rng)
    ops.append(report_op(si, 4, "ghz4", ghz4_roots(mu), mu, draw_lu(rng), draw_ilo(rng)))

    # Classification.  GHZ_n, Dicke(2,1) and the LU transforms of W_3 and
    # Dicke(4,2) classify correctly on every seed and take seeded
    # transforms.  W_n (n >= 4), Dicke(6,3) and Dicke(8,4) are misclassified
    # on every seed (an m-fold root scatters by ~eps^(1/m), past the fixed
    # chordal tolerance): they take a fixed transform and count as failed.
    # The ILO transforms of W_3 and Dicke(4,2) fail on some seeds only and
    # are left out.
    rng = rng_for(seed, 100)
    fixed = rng_for(FIXED_SEED)
    cases = [("ghz", n, rng) for n in range(3, 9)] + [("dicke", 2, rng)]
    for family, n, r in cases:
        ops.append(classify_op(si, family, n, "lu", draw_lu(r)))
        ops.append(classify_op(si, family, n, "ilo", draw_ilo(r)))
    ops.append(classify_op(si, "w", 3, "lu", draw_lu(rng)))
    ops.append(classify_op(si, "dicke", 4, "lu", draw_lu(rng)))
    for family, n in [("w", n) for n in range(4, 9)] + [("dicke", 6), ("dicke", 8)]:
        ops.append(classify_op(si, family, n, "lu", draw_lu(fixed)))
        ops.append(classify_op(si, family, n, "ilo", draw_ilo(fixed)))
    return ops


# -- CLI operations ----------------------------------------------------------


class CliRunner:
    """Runs one CLI command, as a fresh process or in-process.

    A fresh process is what a command-line user pays for.  In-process calls
    to ``stellarinv.cli.main`` are what the traced run times, since spans
    are recorded in this process.
    """

    def __init__(self, root: str, in_process: bool):
        self.root = root
        self.in_process = in_process
        self.peak_rss_kb = 0
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.err_path = os.path.join(root, ".perfbench-out", "cli-stderr.txt")

    def __call__(self, argv: list[str]) -> tuple[int, str]:
        if self.in_process:
            import stellarinv.cli as cli

            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
            return code, out.getvalue()
        with open(self.err_path, "w") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "stellarinv.cli", *argv],
                stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=self.root,
            )
            text = proc.stdout.read().decode()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, text


def write_state(path: str, n: int, amplitudes) -> None:
    doc = {"n": n, "basis": "dicke", "amplitudes": [[a.real, a.imag] for a in amplitudes]}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def cli_inputs(seed: int, workdir: str) -> dict:
    """Write the state files of the cli workload; return their chosen roots."""
    os.makedirs(workdir, exist_ok=True)
    chosen = {}
    for n in (2, 3, 4, 6, 8):
        roots = random_roots(rng_for(seed, 1000 + n), n, infinite=(n == 3))
        chosen[n] = roots
        write_state(os.path.join(workdir, f"rand{n}.json"), n, R.dicke_amplitudes(roots))
    rng = rng_for(seed, 1005)
    maj = random_roots(rng, 5, infinite=True)
    chosen["maj5"] = maj
    points = ["inf" if b == 0 else [complex(a / b).real, complex(a / b).imag] for a, b in maj]
    with open(os.path.join(workdir, "maj5.json"), "w") as fh:
        json.dump({"n": 5, "basis": "majorana", "points": points}, fh)
    write_state(os.path.join(workdir, "w5.json"), 5, np.eye(6)[1])
    write_state(os.path.join(workdir, "dicke42.json"), 4, np.eye(5)[2])
    chosen["mu"] = draw_mu(rng)
    chosen["transform_seeds"] = [int(s) for s in rng.integers(0, 2**31, size=2)]
    return chosen


def cli_ops(runner: CliRunner, workdir: str, chosen: dict) -> list[Op]:
    """One round of the cli workload; later operations read earlier outputs."""
    path = lambda name: os.path.join(workdir, name)  # noqa: E731
    seen: dict = {}
    ops: list[Op] = []

    def add(label, argv, check):
        ops.append(Op(label, lambda: runner(argv), lambda out, t: out[0] == 0 and check(out[1], t)))

    def invariants_check(key, roots, exact=False):
        def check(text, t):
            doc = json.loads(text)
            seen[key] = doc
            n = doc["n"]
            found = json_pairs(doc["roots"])
            if roots is not None:
                _, d = R.match(found, roots)
                t.within(d, 1e-12 if exact else ROOT_MATCH_TOL, f"cli {key}: roots")
                check_residual(t, roots, found, f"cli {key}")
            else:
                res = float(R.amplitude_residuals(load_amplitudes(path(f"{key}.json")), found).max())
                t.worse("residual", res)
                t.within(res, DEFAULT_ROOT_TOL, f"cli {key}: scaled residual")
            vecs = np.array(doc["points"])
            _, d = R.match(R.pairs_from_sphere(vecs), found)
            t.within(d, SPHERE_TOL * 10, f"cli {key}: points are the roots' images")
            t.within(float(np.abs(vecs @ vecs.T - np.array(doc["gram"])).max()),
                     SPHERE_TOL * 10, f"cli {key}: gram")
            slocc = doc["slocc"]
            t.expect(slocc["degeneracy"] == [1] * n, f"cli {key}: class {slocc['degeneracy']}")
            if roots is not None:
                check_own_slocc(t, cli_slocc_values(slocc), roots, f"cli {key}")
                if "oracle" in doc:
                    lu = doc["lu"]
                    keys = ["concurrence"] if n == 2 else ["i2", "i6"]
                    check_dense(t, n, roots, {k: lu[k] for k in keys},
                                {k: doc["oracle"][k] for k in keys}, f"cli {key}")
            return True
        return check

    for n in (2, 3, 4, 6, 8):
        argv = ["invariants", path(f"rand{n}.json")] + (["--oracle-check"] if n <= 3 else [])
        add(f"invariants n={n}", argv, invariants_check(f"rand{n}", chosen[n]))
    add("invariants majorana n=5", ["invariants", path("maj5.json")],
        invariants_check("maj5", chosen["maj5"], exact=True))

    for name, label in (("w5", "{4,1}"), ("dicke42", "{2,2}")):
        add(f"classify {name}", ["classify", path(f"{name}.json")],
            lambda text, t, label=label: text.strip() == label)

    s_lu, s_ilo = chosen["transform_seeds"]
    add("transform lu", ["transform", path("rand4.json"), "--lu-random", "--seed", str(s_lu),
                         "-o", path("lu4.json")], lambda text, t: True)

    def lu_check(text, t):
        invariants_check("lu4", None)(text, t)
        a, b = seen.get("rand4"), seen["lu4"]
        if t.expect(a is not None, "cli lu4: no invariants of rand4"):
            compare_lu(t, np.array(a["gram"]), a["lu"]["slui_coefficients"],
                       np.array(b["gram"]), b["lu"]["slui_coefficients"], "cli LU")
        return True

    add("invariants after lu", ["invariants", path("lu4.json")], lu_check)
    add("transform ilo", ["transform", path("rand4.json"), "--ilo-random", "--seed", str(s_ilo),
                          "-o", path("ilo4.json")], lambda text, t: True)

    def ilo_check(text, t):
        invariants_check("ilo4", None)(text, t)
        a, b = seen.get("rand4"), seen["ilo4"]
        if t.expect(a is not None, "cli ilo4: no invariants of rand4"):
            compare_slocc(t, cli_slocc_values(a["slocc"]), cli_slocc_values(b["slocc"]), "cli ILO")
        return True

    add("invariants after ilo", ["invariants", path("ilo4.json")], ilo_check)
    add("transform time-reversal", ["transform", path("rand4.json"), "--time-reversal",
                                    "-o", path("tr4.json")], lambda text, t: True)

    def tr_check(text, t):
        doc = json.loads(text)
        found = json_pairs(doc["roots"])
        check_roots(t, found, R.antipodes(chosen[4]), "cli time reversal")
        t.expect(doc["degeneracy"] == [1, 1, 1, 1], f"cli time reversal: class {doc['degeneracy']}")
        return True

    add("roots after time-reversal", ["roots", path("tr4.json")], tr_check)

    mu = chosen["mu"]

    def generate_check(text, t):
        own = R.dicke_amplitudes(ghz4_roots(mu))
        t.within(1 - abs(np.vdot(own, load_amplitudes(path("gen.json")))), STATE_TOL, "cli generate")
        return True

    add("generate ghz4-family", ["generate", "ghz4-family", "--mu", repr(mu.real), repr(mu.imag),
                                 "-o", path("gen.json")], generate_check)
    return ops


def cli_slocc_values(section: dict) -> dict:
    values = {f"I{k}": complex(*v) for k, v in section.get("symmetrized", {}).items()}
    if "klein_j" in section:
        values["klein_j"] = complex(*section["klein_j"])
    return values


def load_amplitudes(path: str) -> np.ndarray:
    with open(path) as fh:
        doc = json.load(fh)
    return np.array([complex(*a) for a in doc["amplitudes"]])

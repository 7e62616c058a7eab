"""Command line front end.

State files are JSON documents with fields ``n``, ``basis`` ("dicke" or
"majorana") and either ``amplitudes`` (a list of [re, im] pairs ordered by
ascending m) or ``points`` (a list of [re, im] pairs or the token "inf").
Reports are JSON maps printed to stdout with every numeric rendered to 15
significant digits, so the fields parse back to the printed values.

Exit codes: 0 success, 2 parse failure, 3 unsupported qubit count for a
requested invariant or a polynomial, operator or SLUI coefficients beyond
floats, 4 degenerate input.
"""
from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

import numpy as np

from . import families
from .errors import DegenerateInputError, DivergentSumError
from .lu import bloch_radius2, concurrence2, gram, lu_invariants3, slui_coefficients
from .oracle import (
    density_matrix,
    dicke_expand,
    oracle_lu_invariants3,
    partial_trace,
    wootters_concurrence,
)
from .roots import DEFAULT_CLUSTER_TOL, cluster, degeneracy_class, find_roots, point_key
from .slocc import slocc_summary
from .states import (
    MAX_QUBITS,
    RiemannPoint,
    SymmetricState,
    from_dicke,
    majorana_polynomial,
    state_from_roots,
    to_sphere,
)
from .transforms import (
    IloParameters,
    apply_operator,
    ilo_operator,
    lu_unitary,
    time_reversal,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_DEGENERATE = 4

_ILO_RETRIES = 200


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# JSON helpers


def _sig15(x: float) -> float:
    return float(f"{float(x):.15g}")


def _num(z) -> list[float]:
    z = complex(z)
    return [_sig15(z.real), _sig15(z.imag)]


def _point_json(p: RiemannPoint):
    return "inf" if p.is_infinite else _num(p.value)


def _parse_complex(entry, what: str) -> complex:
    """A [re, im] pair of finite JSON numbers; bools and NaN are refused."""
    if (
        isinstance(entry, (list, tuple))
        and len(entry) == 2
        and all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in entry)
    ):
        try:
            z = complex(entry[0], entry[1])
        except OverflowError:  # an integer beyond the float range
            z = complex("nan")
        if cmath.isfinite(z):
            return z
    raise _CliError(EXIT_PARSE, f"{what} entries must be [re, im] pairs of finite numbers")


def _check_qubits(n: int) -> None:
    if n > MAX_QUBITS:
        raise _CliError(
            EXIT_UNSUPPORTED, f"n = {n} exceeds the largest supported qubit count {MAX_QUBITS}"
        )


def load_document(path: str) -> tuple[SymmetricState, list[RiemannPoint] | None, str]:
    """Parse a state file into (state, file points or None, basis).

    Points given explicitly in a majorana-basis file are returned as-is so
    later stages can use them exactly instead of re-extracting them from the
    reconstructed polynomial (important for degenerate constellations).
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise _CliError(EXIT_PARSE, f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise _CliError(EXIT_PARSE, f"{path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise _CliError(EXIT_PARSE, "state file must be a JSON object")
    n, basis = doc.get("n"), doc.get("basis")
    if type(n) is not int:  # not a float, string or bool
        raise _CliError(EXIT_PARSE, "state file needs integer 'n' and string 'basis'")
    _check_qubits(n)
    if basis == "dicke":
        raw = doc.get("amplitudes")
        if not isinstance(raw, list) or len(raw) != n + 1:
            raise _CliError(EXIT_PARSE, f"'amplitudes' must list {n + 1} [re, im] pairs")
        amps = [_parse_complex(entry, "amplitude") for entry in raw]
        try:
            return from_dicke(n, amps), None, basis
        except ValueError as exc:
            raise _CliError(EXIT_PARSE, str(exc))
    if basis == "majorana":
        raw = doc.get("points")
        if not isinstance(raw, list) or len(raw) != n:
            raise _CliError(EXIT_PARSE, f"'points' must list {n} entries")
        pts = [
            RiemannPoint.infinity() if e == "inf" else RiemannPoint(_parse_complex(e, "point"))
            for e in raw
        ]
        try:
            return state_from_roots(pts), pts, basis
        except ValueError as exc:
            raise _CliError(EXIT_PARSE, str(exc))
    raise _CliError(EXIT_PARSE, f"unknown basis {basis!r} (expected 'dicke' or 'majorana')")


def state_document(state: SymmetricState, basis: str) -> dict:
    if basis == "majorana":
        pts = sorted(find_roots(majorana_polynomial(state)), key=point_key)
        return {"n": state.n, "basis": "majorana", "points": [_point_json(p) for p in pts]}
    return {
        "n": state.n,
        "basis": "dicke",
        "amplitudes": [_num(a) for a in state.amplitudes],
    }


def _emit(doc, out_path: str | None) -> None:
    text = json.dumps(doc, indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# Report assembly


def _lu_section(state, g):
    n = state.n
    section = {"slui_coefficients": [_sig15(c) for c in slui_coefficients(g)]}
    if n == 2:
        v12 = float(g[0, 1])
        section["concurrence"] = _sig15(concurrence2(v12))
        section["bloch_radius_sq"] = _sig15(bloch_radius2(v12))
    elif n == 3:
        section.update({k: _sig15(v) for k, v in lu_invariants3(g)._asdict().items()})
    return section


def _slocc_section(summary):
    section = {"degeneracy": list(summary.degeneracy)}
    if summary.lambda_vector is not None:
        section["lambda_vector"] = [_point_json(p) for p in summary.lambda_vector]
    if summary.klein_j is not None:
        section["klein_j"] = _num(summary.klein_j)
    if summary.canonical_lambda is not None:
        section["canonical_lambda"] = _point_json(summary.canonical_lambda)
    if summary.symmetrized:
        section["symmetrized"] = {str(k): _num(v) for k, v in summary.symmetrized.items()}
        # a returned sum skips no ordering; the key keeps the output bytes
        section["skipped_permutations"] = 0
    if summary.divergent:
        section["symmetrized_divergent"] = True
    return section


def _oracle_section(state, g):
    dense = dicke_expand(state)
    if state.n == 2:
        v12 = float(g[0, 1])
        rho1 = partial_trace(density_matrix(dense), [1])
        radius_sq = float(2.0 * np.trace(rho1 @ rho1).real - 1.0)
        woot = wootters_concurrence(dense)
        dev = max(abs(woot - concurrence2(v12)), abs(radius_sq - bloch_radius2(v12)))
        return {
            "concurrence": _sig15(woot),
            "bloch_radius_sq": _sig15(radius_sq),
            "max_abs_deviation": _sig15(dev),
        }
    inv = oracle_lu_invariants3(dense)
    dev = max(abs(a - b) for a, b in zip(inv, lu_invariants3(g)))
    section = {k: _sig15(v) for k, v in inv._asdict().items()}
    section["max_abs_deviation"] = _sig15(dev)
    return section


def cmd_invariants(args) -> int:
    state, file_points, _ = load_document(args.file)
    if args.oracle_check and state.n not in (2, 3):  # before any stage: exit 3 beats exit 4
        raise _CliError(EXIT_UNSUPPORTED, f"--oracle-check supports n = 2 or 3, got n = {state.n}")
    pts = file_points or find_roots(majorana_polynomial(state))
    vecs = [to_sphere(p) for p in pts]
    g = gram(vecs)
    # every section before the n x n Gram is formatted: a section can still
    # fail (exit 3 or 4), and at the qubit ceiling that Gram is 1M entries
    sections = {}
    both = not (args.lu or args.slocc)
    if args.lu or both:
        sections["lu"] = _lu_section(state, g)
    if args.slocc or both:
        summary = slocc_summary(pts, args.tol)
        if args.slocc and state.n == 4 and summary.klein_j is None:
            raise DegenerateInputError(
                "repeated roots put the cross ratio on the degenerate orbit {0, 1, inf}"
            )
        sections["slocc"] = _slocc_section(summary)
    if args.oracle_check:
        sections["oracle"] = _oracle_section(state, g)
    report = {
        "n": state.n,
        "roots": [_point_json(p) for p in sorted(pts, key=point_key)],
        "points": [[_sig15(c) for c in v] for v in vecs],
        "gram": [[_sig15(c) for c in row] for row in g],
        **sections,
    }
    _emit(report, args.output)
    return EXIT_OK


def cmd_classify(args) -> int:
    state, file_points, _ = load_document(args.file)
    pts = file_points or find_roots(majorana_polynomial(state))
    signature = degeneracy_class(pts, args.tol)
    label = "{" + ",".join(str(m) for m in signature) + "}"
    if state.n == 3:
        names = {(3,): "separable", (2, 1): "W", (1, 1, 1): "GHZ-class"}
        label += " " + names[signature]
    print(label)
    return EXIT_OK


def cmd_transform(args) -> int:
    state, _, basis = load_document(args.file)
    rng = np.random.default_rng(args.seed)
    if args.mode == "lu-random":
        # uniform rotation axis, angle uniform in [0, pi]
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        h = axis * rng.uniform(0.0, np.pi)
        out = apply_operator(lu_unitary(h, state.n), state)
    elif args.mode == "ilo-random":
        # unit-disk parameter draws, rejected against the domain bounds and
        # a moderate Moebius part
        def disk():
            while True:
                z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                if abs(z) <= 1.0:
                    return z

        for _ in range(_ILO_RETRIES):
            try:
                params = IloParameters(disk(), disk(), disk())
            except DegenerateInputError:
                continue
            g = params.gamma
            if abs(g - 1.0 / g) < 10.0:
                break
        else:
            raise _CliError(EXIT_DEGENERATE, "no in-domain ILO parameters found")
        out = apply_operator(ilo_operator(params, state.n), state)
    else:
        out = time_reversal(state)
    _emit(state_document(out, basis), args.output)
    return EXIT_OK


def cmd_generate(args) -> int:
    if args.family != "ghz4-family":
        _check_qubits(args.n)
    try:
        if args.family == "ghz":
            state = families.ghz_state(args.n)
        elif args.family == "w":
            state = families.w_state(args.n)
        elif args.family == "dicke":
            if args.weight is None:
                raise _CliError(EXIT_PARSE, "dicke needs --weight")
            state = families.dicke_state(args.n, args.weight)
        else:  # ghz4-family
            state = families.ghz4_family(complex(*args.mu) if args.mu else 0j)
    except DegenerateInputError:
        raise  # a ValueError too; main maps it to exit 4
    except ValueError as exc:
        raise _CliError(EXIT_PARSE, str(exc))
    _emit(state_document(state, "dicke"), args.output)
    return EXIT_OK


def cmd_roots(args) -> int:
    state, file_points, _ = load_document(args.file)
    pts = file_points or find_roots(majorana_polynomial(state))
    clusters = cluster(pts, args.tol)
    report = {
        "n": state.n,
        "roots": [_point_json(p) for p in sorted(pts, key=point_key)],
        "points": [[_sig15(c) for c in to_sphere(p)] for p in pts],
        "clusters": [
            {"root": _point_json(rep), "multiplicity": mult} for rep, mult in clusters
        ],
        "degeneracy": [m for _, m in clusters],
    }
    _emit(report, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stellarinv",
        description="Entanglement invariants of symmetric multiqubit states "
        "via their stellar representation.",
    )
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument(
        "--tol",
        type=_positive_float,
        default=DEFAULT_CLUSTER_TOL,
        help="chordal distance within which roots are the same (default %(default)s)",
    )
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("-o", "--output", default=None, help="write to file instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "invariants", parents=[tol, output], help="compute invariants of a state file"
    )
    p.add_argument("file")
    p.add_argument("--lu", action="store_true", help="report only the LU section")
    p.add_argument("--slocc", action="store_true", help="report only the SLOCC section")
    p.add_argument(
        "--oracle-check",
        action="store_true",
        help="add brute-force oracle values and the deviation (n = 2 or 3)",
    )
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("classify", parents=[tol], help="degeneracy class of a state file")
    p.add_argument("file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser(
        "transform", parents=[seed, output], help="apply an operator to a state file"
    )
    p.add_argument("file")
    mode = p.add_mutually_exclusive_group(required=True)
    for flag in ("--lu-random", "--ilo-random", "--time-reversal"):
        mode.add_argument(flag, dest="mode", action="store_const", const=flag[2:])
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("generate", parents=[output], help="write a named family state file")
    p.add_argument("family", choices=["ghz", "w", "dicke", "ghz4-family"])
    p.add_argument("-n", type=int, default=3, help="qubit count (ghz/w/dicke)")
    p.add_argument("--weight", type=int, default=None, help="excitation count for dicke")
    p.add_argument(
        "--mu",
        type=float,
        nargs=2,
        metavar=("RE", "IM"),
        default=None,
        help="complex parameter of ghz4-family",
    )
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("roots", parents=[tol, output], help="roots and clusters of a state file")
    p.add_argument("file")
    p.set_defaults(func=cmd_roots)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_CliError, OverflowError, DegenerateInputError, DivergentSumError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, _CliError):
            return exc.code
        return EXIT_UNSUPPORTED if isinstance(exc, OverflowError) else EXIT_DEGENERATE


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()

"""Command line front end.

State files are JSON documents with fields ``n``, ``basis`` ("dicke" or
"majorana") and either ``amplitudes`` (a list of [re, im] pairs ordered by
ascending m) or ``points`` (a list of [re, im] pairs or the token "inf").
Reports are JSON maps printed to stdout.  Commands assemble every document
from library values, and :func:`_render` alone turns them into JSON, each
float to 15 significant digits, so the fields parse back to the printed
values.  Every per-root field lists the roots in the order they were
computed in.

Only ``errors``, ``states`` and ``roots`` load with this module; every
other layer loads inside the command that runs it, so that a cold call
imports only what it uses.

Exit codes: 0 success (also when the reader of stdout closes it early), 2
parse failure (also a point whose modulus is beyond floats) or unwritable
output, 3 unsupported qubit count for a requested invariant, a Dicke file's
operator or SLUI coefficients beyond floats, or the oracle state of points
whose polynomial is beyond floats, 4 degenerate input.
"""
from __future__ import annotations

import argparse
import cmath
import gc
import json
import math
import os
import sys

import numpy as np

from .errors import DegenerateInputError
from .roots import DEFAULT_CLUSTER_TOL, cluster, degeneracy_class, find_roots
from .states import (
    MAX_QUBITS,
    RiemannPoint,
    SphereVector,
    SymmetricState,
    from_dicke,
    from_sphere,
    majorana_polynomial,
    state_from_roots,
    to_sphere,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_DEGENERATE = 4


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# JSON helpers


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


def load_document(path: str) -> tuple[int, SymmetricState | None, list[RiemannPoint] | None]:
    """Parse a state file into (n, state, points): a dicke-basis file gives
    its state and no points, a majorana-basis file its points and no state.

    The file's points are used as they are, never re-extracted from the
    expanded polynomial (important for degenerate constellations); a point
    whose modulus is beyond floats exits 2.
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
            return n, from_dicke(n, amps), None
        except ValueError as exc:
            raise _CliError(EXIT_PARSE, str(exc))
    if basis == "majorana":
        raw = doc.get("points")
        if not isinstance(raw, list) or len(raw) != n:
            raise _CliError(EXIT_PARSE, f"'points' must list {n} entries")
        if n == 0:
            raise _CliError(EXIT_PARSE, "empty root multiset")
        try:
            pts = [
                RiemannPoint.infinity() if e == "inf" else RiemannPoint(_parse_complex(e, "point"))
                for e in raw
            ]
        except OverflowError:  # abs() of the point
            raise _CliError(EXIT_PARSE, "a point's modulus is beyond the float range")
        return n, None, pts
    raise _CliError(EXIT_PARSE, f"unknown basis {basis!r} (expected 'dicke' or 'majorana')")


def _roots(state: SymmetricState | None, points: list[RiemannPoint] | None):
    """The document's points, or the roots of its state."""
    return points if state is None else find_roots(majorana_polynomial(state))


def state_document(state: SymmetricState) -> dict:
    return {
        "n": state.n,
        "basis": "dicke",
        "amplitudes": state.amplitudes,
    }


def _write(text: str, out_path: str | None) -> None:
    """Write a command's output and a newline to ``out_path``, or to stdout,
    flushed so that a failed write is raised here and not at exit.

    A failed write exits 2; a closed stdout pipe raises ``BrokenPipeError``,
    which :func:`main` ends quietly.
    """
    try:
        if out_path:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text, flush=True)
    except OSError as exc:
        if not out_path:
            # what stays buffered would fail again at exit (the signal docs' recipe)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            raise
        raise _CliError(EXIT_PARSE, f"cannot write {out_path or 'stdout'}: {exc}")


def _render(value):
    """The JSON form of a document value: a float to 15 significant digits
    (one whose rounding would overflow as it is), a list, tuple or array to a
    list, a complex number to [re, im], a point to "inf" or its value, a dict
    to a dict in the same key order; anything else as it is.  numpy's float64
    and complex128 are float and complex."""
    if isinstance(value, float):  # first: a Gram holds up to 1029^2 of them
        rounded = float(f"{value:.15g}")
        return rounded if math.isfinite(rounded) else value
    if isinstance(value, (list, tuple)):
        return [_render(v) for v in value]
    if isinstance(value, np.ndarray):
        return _render(value.tolist())
    if isinstance(value, complex):
        return [_render(value.real), _render(value.imag)]
    if isinstance(value, RiemannPoint):
        return "inf" if value.is_infinite else _render(value.value)
    if isinstance(value, dict):
        return {k: _render(v) for k, v in value.items()}
    return value


def _emit(doc, out_path: str | None) -> None:
    _write(json.dumps(_render(doc), indent=2), out_path)


# ---------------------------------------------------------------------------
# Report assembly


def _closed_forms(n, g) -> dict:
    """The closed-form LU invariants of an n = 2 or 3 Gram, else none."""
    from .lu import bloch_radius2, concurrence2, lu_invariants3

    if n == 2:
        v12 = float(g[0, 1])
        return {"concurrence": concurrence2(v12), "bloch_radius_sq": bloch_radius2(v12)}
    return lu_invariants3(g)._asdict() if n == 3 else {}


def _slocc_section(summary):
    section = {"degeneracy": summary.degeneracy}
    if summary.lambda_vector is not None:
        section["lambda_vector"] = summary.lambda_vector
    if summary.klein_j is not None:
        section["klein_j"] = summary.klein_j
    if summary.canonical_lambda is not None:
        section["canonical_lambda"] = summary.canonical_lambda
    if summary.symmetrized:
        section["symmetrized"] = summary.symmetrized  # json.dumps writes its keys as strings
    if summary.divergent:
        section["symmetrized_divergent"] = True
    return section


def _oracle_section(state, closed):
    """The dense oracle's values of the ``closed`` forms and their largest
    deviation from them."""
    from .oracle import dicke_expand, oracle_lu_invariants3, partial_trace, wootters_concurrence

    dense = dicke_expand(state)
    if state.n == 2:
        rho1 = partial_trace(dense, [1])
        radius_sq = float(2.0 * np.trace(rho1 @ rho1).real - 1.0)
        section = {"concurrence": wootters_concurrence(dense), "bloch_radius_sq": radius_sq}
    else:
        section = oracle_lu_invariants3(dense)._asdict()
    section["max_abs_deviation"] = max(abs(section[k] - v) for k, v in closed.items())
    return section


def cmd_invariants(args) -> int:
    from .lu import gram, slui_coefficients
    from .slocc import slocc_summary

    n, state, points = load_document(args.file)
    if args.oracle_check and n not in (2, 3):  # before any stage: exit 3 beats exit 4
        raise _CliError(EXIT_UNSUPPORTED, f"--oracle-check supports n = 2 or 3, got n = {n}")
    pts = _roots(state, points)
    vecs = [to_sphere(p) for p in pts]
    g = gram(vecs)
    sections = {}
    both = not (args.lu or args.slocc)
    closed = _closed_forms(n, g)
    if args.lu or both:
        sections["lu"] = {"slui_coefficients": slui_coefficients(g), **closed}
    if args.slocc or both:
        summary = slocc_summary(pts, args.tol)
        if args.slocc and n == 4 and summary.klein_j is None:
            raise DegenerateInputError(
                "degenerate cross ratio: J is on its pole (a repeated root) or beyond floats"
            )
        sections["slocc"] = _slocc_section(summary)
    if args.oracle_check:
        sections["oracle"] = _oracle_section(state or state_from_roots(points), closed)
    report = {"n": n, "roots": pts, "points": vecs, "gram": g, **sections}
    _emit(report, args.output)
    return EXIT_OK


def cmd_classify(args) -> int:
    n, state, points = load_document(args.file)
    signature = degeneracy_class(_roots(state, points), args.tol)
    label = "{" + ",".join(str(m) for m in signature) + "}"
    if n == 3:
        names = {(3,): "separable", (2, 1): "W", (1, 1, 1): "GHZ-class"}
        label += " " + names[signature]
    _write(label, None)
    return EXIT_OK


def cmd_transform(args) -> int:
    from .transforms import (
        IloParameters,
        apply_mobius,
        apply_operator,
        ilo_operator,
        lu_unitary,
        mobius_from_ilo,
        rotation_from_h,
        time_reversal,
    )

    n, state, points = load_document(args.file)
    # a majorana file's points each take the rotation, Moebius map or antipode
    if args.mode == "lu-random":
        # uniform rotation axis, angle uniform in [0, pi]
        rng = np.random.default_rng(args.seed)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        h = axis * rng.uniform(0.0, np.pi)
        rot = rotation_from_h(h)
        move = lambda p: from_sphere(SphereVector(*(rot @ to_sphere(p))))
        act = lambda s: apply_operator(lu_unitary(h, n), s)
    elif args.mode == "ilo-random":
        # beta1, beta2 and h uniform on the unit disk, redrawn until the
        # Moebius part is moderate
        rng = np.random.default_rng(args.seed)

        def disk():
            while True:
                z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                if abs(z) <= 1.0:
                    return z

        params = IloParameters(disk(), disk(), disk())
        while not abs(params.gamma - 1.0 / params.gamma) < 10.0:  # NaN is redrawn too
            params = IloParameters(disk(), disk(), disk())
        mob = mobius_from_ilo(params)
        move = lambda p: apply_mobius(mob, p)
        act = lambda s: apply_operator(ilo_operator(params, n), s)
    else:
        move, act = RiemannPoint.antipode, time_reversal
    if points is not None:
        doc = {"n": n, "basis": "majorana", "points": [move(p) for p in points]}
    _emit(state_document(act(state)) if points is None else doc, args.output)
    return EXIT_OK


def cmd_generate(args) -> int:
    from . import families

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
    _emit(state_document(state), args.output)
    return EXIT_OK


def cmd_roots(args) -> int:
    n, state, points = load_document(args.file)
    pts = _roots(state, points)
    clusters = cluster(pts, args.tol)
    report = {
        "n": n,
        "roots": pts,
        "points": [to_sphere(p) for p in pts],
        "clusters": [{"root": rep, "multiplicity": mult} for rep, mult in clusters],
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


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return value


class _Parser(argparse.ArgumentParser):
    """Prints its help through :func:`_write`, so that a failed help write
    ends as any other failed output does."""

    def print_help(self, file=None):
        _write(self.format_help().removesuffix("\n"), None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    seed.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except BrokenPipeError:  # the reader has gone: nothing is left to report
        return EXIT_OK
    except (_CliError, OverflowError, DegenerateInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, _CliError):
            return exc.code
        return EXIT_UNSUPPORTED if isinstance(exc, OverflowError) else EXIT_DEGENERATE


def entry_point() -> None:
    code = main()
    # what the imports built lives until the process ends: keep it out of
    # the collection at exit, which would otherwise scan every object
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry_point()

"""Compare what the command line prints and writes between two source trees.

    python tools/cli_diff.py OLD_SRC NEW_SRC

Each SRC is a directory that holds the ``stellarinv`` package, such as the
``src`` directory of a checkout.  One interpreter per tree calls
``stellarinv.cli.main`` in process over a fixed corpus of state files and
commands and records, for every call, stdout, stderr, the exit code, the
``-o`` file and any exception that escapes ``main``.  Every call whose record
differs between the trees is printed, with one line per differing top-level
field where both sides of an output are JSON objects (``permuted`` when a
list only changed order); the exit status is 1 if any call differs.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "data" / "golden"


def _ghz(n: int) -> dict:
    return {"n": n, "basis": "dicke", "amplitudes": [[1, 0]] + [[0, 0]] * (n - 1) + [[1, 0]]}


def _majorana(points: list) -> dict:
    return {"n": len(points), "basis": "majorana", "points": points}


#: Roots whose chordal distances from 0 fall just below, at and at twice the
#: 1e-12 coincidence threshold, where the leading triple of a summary is decided.
THRESHOLD = [[0, 0], [4.99999999999999e-13, 0], [5e-13, 0], [1e-12, 0]]

#: 150 grid points 0.2 apart; point 120 lies 1e-9 from point 3 and point 149
#: repeats point 40, so both links join rows of different linkage row blocks.
BLOCKS = [[(k % 15) / 5, (k // 15) / 5] for k in range(150)]
BLOCKS[120] = [BLOCKS[3][0] + 1e-9, BLOCKS[3][1]]
BLOCKS[149] = BLOCKS[40]

#: 60 points on the circle |z| = 1e6: 60 groups at the default --tol, whose
#: polynomial z^60 - 1e360 is beyond floats.
FAR_CIRCLE = [
    [1e6 * math.cos(2 * math.pi * k / 60), 1e6 * math.sin(2 * math.pi * k / 60)]
    for k in range(60)
]

#: State files written next to copies of the golden inputs.
FILES = {
    "ghz3.json": _ghz(3),
    # the Dicke(3, 1) state, whose 3-tangle is 0
    "w3.json": {"n": 3, "basis": "dicke", "amplitudes": [[0, 0], [1, 0], [0, 0], [0, 0]]},
    "ghz8.json": _ghz(8),
    "ghz16.json": _ghz(16),
    "chain.json": _majorana([[0, 0], [4e-13, 0], [8e-13, 0], [1, 0]]),
    # at --tol 1e-12 the chain is one triple root next to two simple ones
    "chain5.json": _majorana([[0, 0], [4e-13, 0], [8e-13, 0], [1, 0], [2, 0]]),
    # with the power sums and, at n = 9, without them
    "threshold.json": _majorana(THRESHOLD + [[1, 0], "inf"]),
    "threshold9.json": _majorana(THRESHOLD + [[1, 0], [-1, 0], [0, 1], [0, -1], "inf"]),
    # steps of about 9e-8 chordal, ends 1.8e-7 apart: linked only through the middle
    "tol_chain.json": _majorana([[0, 0], [4.5e-8, 0], [9e-8, 0], [1, 0], [-1, 0]]),
    "blocks150.json": _majorana(BLOCKS),
    # generic roots at n = 6 and, with a root at infinity, at n = 3 and 7
    "majorana6.json": _majorana(
        [[0.3, -0.7], [1.2, 0.4], [-0.8, 0.9], [-1.1, -0.5], [0.1, 1.6], [2.0, -0.2]]
    ),
    "majorana3_inf.json": _majorana([[0.4, -0.9], [-1.3, 0.7], "inf"]),
    # the largest n with power sums, a root at infinity and two roots 1e-9
    # apart: one double root at the default --tol, and at --tol 1e-12 eight
    # simple roots whose power sums take cross ratios near 1e9
    "pole_pair8.json": _majorana(
        [[0.3, -0.7], [0.3 + 1e-9, -0.7], [1.2, 0.4], [-0.8, 0.9], [-1.1, -0.5], [0.1, 1.6],
         [2.0, -0.2], "inf"]
    ),
    "majorana7_inf.json": _majorana(
        [[0.5, 0.25], [-1.3, 0.6], [0.9, -1.1], [-0.2, -0.8], [1.7, 1.2], [-0.6, 1.9], "inf"]
    ),
    "zeros_and_infinities.json": _majorana([[0, 0], [0, 0], [0, 0], "inf", "inf", "inf"]),
    "double_zero.json": _majorana([[0, 0], [0, 0], [1, 0], [2, 0]]),
    # a double root next to a simple one and a root at infinity: {2,1,1}
    "mixed_majorana.json": _majorana([[1, 0], [1, 0], [0, 0], "inf"]),
    # the W class at n = 8: {7,1}
    "w8_majorana.json": _majorana([[0, 0]] * 7 + [[1, 0]]),
    # a point whose modulus is beyond floats, though both parts are finite
    "overflowing_point.json": _majorana([[1.5e308, 1.5e308], [0, 0], [1, 0]]),
    # expands to coefficients beyond the float range
    "overflowing_polynomial.json": _majorana([[1000, 0]] * 200),
    "far_circle60.json": _majorana(FAR_CIRCLE),
    # three simple roots near 1e200: every value in the 1e200 range, and the
    # oracle's state, whose polynomial is beyond floats, exits 3
    "far_points3.json": _majorana([[1e200, 0], [2e200, 0], [3e200, 0]]),
    # a norm below the 1e-12 rescaling bound
    "tiny_amplitudes.json": {
        "n": 2,
        "basis": "dicke",
        "amplitudes": [[1e-13, 0], [0, 0], [1e-13, 0]],
    },
    # a largest part below the smallest normal float
    "subnormal_amplitudes.json": {
        "n": 2,
        "basis": "dicke",
        "amplitudes": [[5e-324, 0], [0, 0], [0, 0]],
    },
    # a generic two-qubit state: the oracle's reduced state and concurrence
    "dicke2.json": {
        "n": 2,
        "basis": "dicke",
        "amplitudes": [[0.42, -0.17], [-0.31, 0.58], [0.23, 0.51]],
    },
    # four simple roots in two pairs 2e-7 apart: lambda is about -2.5e13, a
    # finite float like any whose pair keeps |b| above the smallest normal
    "close_pairs.json": _majorana([[0, 0], [2e-7, 0], [1, 0], [1.0000002, 0]]),
    # antipodes beyond floats, near their top and at -2.5e12
    "tiny_points.json": _majorana([[1e-320, 0], [1e-300, 0], [4e-13, 0]]),
    # lambda = 1e60, whose J and I2 are floats; 1e60 and infinity are one
    # double root at the default --tol and four simple roots at --tol 1e-300
    "far_lambda.json": _majorana([[0, 0], [1, 0], "inf", [1e60, 0]]),
    # roots 1 and 3 are one exact double root
    "double_root_n4.json": _majorana(
        [
            [0.8063630567820633, -0.31029227000142345],
            [-0.3356080333276904, 0.5494387802798892],
            [-0.05426894624359062, 1.1536094769949883],
            [-0.3356080333276904, 0.5494387802798892],
        ]
    ),
}

#: Mirror images whose amplitude at one end is 1e-17, far below the 1e-12
#: end-coefficient threshold: both are {4,1}, four exact roots at one pole and
#: one at the other.  They take only :data:`MIRROR_COMMANDS`.
MIRRORS = {
    "dicke5_4_tiny.json": {
        "n": 5,
        "basis": "dicke",
        "amplitudes": [[1e-17, 0], [0, 0], [0, 0], [0, 0], [1, 0], [0, 0]],
    },
    "w5_tiny.json": {
        "n": 5,
        "basis": "dicke",
        "amplitudes": [[0, 0], [1, 0], [0, 0], [0, 0], [0, 0], [1e-17, 0]],
    },
}
MIRROR_COMMANDS = [["classify"], ["roots"], ["invariants"]]

#: Commands run on every state file, the file name going second.
FILE_COMMANDS = [
    ["invariants"],
    ["invariants", "--slocc"],
    # the 1e-12 tolerance of the stand-alone SLOCC functions
    ["invariants", "--slocc", "--tol", "1e-12"],
    # at --tol >= 1e-12 a cross ratio past about 1e25 always has coincident
    # roots: this one keeps them apart up to J's float range
    ["invariants", "--slocc", "--tol", "1e-300"],
    ["invariants", "--lu"],
    ["invariants", "--tol", "1e-6"],
    ["invariants", "--oracle-check"],
    ["roots"],
    ["roots", "--tol", "1e-6"],
    ["classify"],
    ["classify", "--tol", "1e-6"],
    ["transform", "--lu-random", "--seed", "0"],
    ["transform", "--lu-random", "--seed", "3"],
    ["transform", "--ilo-random", "--seed", "0"],
    ["transform", "--ilo-random", "--seed", "3"],
    # the first seed whose first ILO draw is rejected: pins the redraw
    ["transform", "--ilo-random", "--seed", "13"],
    ["transform", "--time-reversal"],
]

GENERATE = [
    ["generate", "ghz", "-n", "5", "-o", "out.json"],
    ["generate", "w", "-n", "4", "-o", "out.json"],
    ["generate", "dicke", "-n", "6", "--weight", "2", "-o", "out.json"],
    ["generate", "ghz4-family", "--mu", "0.3", "0.1", "-o", "out.json"],
]

#: One call per writing command whose ``-o`` names a file in a missing directory.
UNWRITABLE = [
    ["invariants", "ghz3.json", "-o", "missing/out.json"],
    ["roots", "ghz3.json", "-o", "missing/out.json"],
    ["transform", "ghz3.json", "--time-reversal", "-o", "missing/out.json"],
    ["generate", "ghz", "-n", "5", "-o", "missing/out.json"],
]

#: Help texts, whose bytes are pinned as any other output's.
HELP = [["--help"], ["invariants", "--help"]]

#: Runs in the tree's interpreter: reads the calls as JSON on stdin and writes
#: the package location and one record per call as JSON on stdout.
WORKER = r"""
import contextlib, io, json, os, sys, warnings
import stellarinv
from stellarinv.cli import main

records = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    code = escaped = written = None
    # catch_warnings resets the warning registry, so each call warns as a fresh process would
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:
                escaped = f"{type(exc).__name__}: {exc}"
    path = argv[argv.index("-o") + 1] if "-o" in argv else None
    if path and os.path.exists(path):
        with open(path) as fh:
            written = fh.read()
        os.remove(path)
    records.append(
        {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
         "output": written, "exception": escaped}
    )
json.dump({"package": stellarinv.__file__, "records": records}, sys.stdout)
"""


def run_tree(src: Path, workdir: Path, argvs: list[list[str]]) -> list[dict]:
    """Records of every call, with the tree's own path masked in the text."""
    proc = subprocess.run(
        [sys.executable, "-c", WORKER],
        input=json.dumps(argvs),
        cwd=workdir,
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"the interpreter for {src} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout)
    if not Path(result["package"]).resolve().is_relative_to(src):
        sys.exit(f"{src} holds no stellarinv package (imported {result['package']})")
    masked = json.dumps(result["records"]).replace(json.dumps(str(src))[1:-1], "<src>")
    return json.loads(masked)


def _object(text):
    """The JSON object ``text`` holds, or None."""
    try:
        doc = json.loads(text)
    except (TypeError, json.JSONDecodeError):
        return None
    return doc if isinstance(doc, dict) else None


def changes(old, new) -> list[str]:
    """Lines that describe how a record entry changed: one per differing
    top-level field when both sides are JSON objects, a list whose entries
    only moved being marked ``permuted``; else the two values."""
    raw = [repr(old), f"-> {new!r}"]
    a, b = _object(old), _object(new)
    if a is None or b is None:
        return raw
    lines = []
    for field in [*a, *(f for f in b if f not in a)]:
        x, y = a.get(field), b.get(field)
        if x == y:
            continue
        if (
            isinstance(x, list)
            and isinstance(y, list)
            and sorted(map(json.dumps, x)) == sorted(map(json.dumps, y))
        ):
            lines.append(f"{field}: permuted")
        else:
            lines.append(f"{field}: {json.dumps(x)} -> {json.dumps(y)}")
    return lines or raw  # equal fields in other text


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    old, new = (Path(a).resolve() for a in argv)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for path in sorted(GOLDEN.glob("*.state.json")):
            shutil.copy(path, workdir / path.name)
        for name, doc in FILES.items():
            (workdir / name).write_text(json.dumps(doc))
        names = sorted(p.name for p in workdir.iterdir())
        argvs = [[cmd[0], name, *cmd[1:]] for name in names for cmd in FILE_COMMANDS]
        argvs += GENERATE + UNWRITABLE + HELP
        for name, doc in MIRRORS.items():
            (workdir / name).write_text(json.dumps(doc))
        argvs += [[cmd[0], name, *cmd[1:]] for name in MIRRORS for cmd in MIRROR_COMMANDS]
        before = run_tree(old, workdir, argvs)
        after = run_tree(new, workdir, argvs)
    differing = 0
    for argv, a, b in zip(argvs, before, after):
        if a == b:
            continue
        differing += 1
        print("$ stellarinv " + " ".join(argv))
        for key in a:
            if a[key] != b[key]:
                print(f"  {key}:" + "".join(f"\n    {line}" for line in changes(a[key], b[key])))
    print(f"{differing} of {len(argvs)} calls differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

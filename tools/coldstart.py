"""Time cold command-line calls of two source trees, alternated.

    python tools/coldstart.py OLD_SRC NEW_SRC [ROUNDS]

Each SRC is a directory that holds the ``stellarinv`` package, such as the
``src`` directory of a checkout.  Every round runs one call of each
subcommand, on state files this script writes, as a fresh
``python -m stellarinv.cli`` process per tree, the two trees taking turns
to go first.  Per command it prints the median wall time of each tree over
the ROUNDS rounds (default 20), the number of rounds NEW_SRC was faster, and
the ``stellarinv`` modules each tree loads (read from one more call under
``-X importtime``).  The calls inherit this environment, so
``PYTHONDONTWRITEBYTECODE`` decides whether a bytecode cache is used.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: A generic n = 4 state in the Dicke basis.
STATE = {
    "n": 4,
    "basis": "dicke",
    "amplitudes": [[0.42, -0.17], [-0.31, 0.58], [0.23, 0.51], [0.1, -0.2], [0.35, 0.05]],
}

#: One call of each subcommand; ``{state}`` and ``{out}`` are file names.
COMMANDS = [
    ["invariants", "{state}"],
    ["classify", "{state}"],
    ["roots", "{state}"],
    ["transform", "{state}", "--lu-random", "-o", "{out}"],
    ["generate", "ghz", "-n", "4", "-o", "{out}"],
]


def call(src: Path, argv: list[str], workdir: Path, *flags: str) -> tuple[float, str]:
    """Wall seconds of one fresh CLI process and its stderr."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "stellarinv.cli", *argv],
        cwd=workdir,
        env=dict(os.environ, PYTHONPATH=str(src)),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"stellarinv {' '.join(argv)} failed under {src}:\n{proc.stderr}")
    return seconds, proc.stderr


def modules(src: Path, argv: list[str], workdir: Path) -> list[str]:
    """The package modules one call imports, in the order their imports end."""
    _, err = call(src, argv, workdir, "-X", "importtime")
    names = [line.rsplit("|", 1)[-1].strip() for line in err.splitlines()]
    return [name for name in names if name.split(".")[0] == "stellarinv"]


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    trees = [Path(a).resolve() for a in argv[:2]]
    rounds = int(argv[2]) if len(argv) == 3 else 20
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        (workdir / "state.json").write_text(json.dumps(STATE))
        calls = [[a.format(state="state.json", out="out.json") for a in c] for c in COMMANDS]
        times = [[[], []] for _ in calls]
        for r in range(rounds):
            for i, command in enumerate(calls):
                for t in (0, 1) if r % 2 == 0 else (1, 0):
                    times[i][t].append(call(trees[t], command, workdir)[0])
        loaded = [[modules(tree, command, workdir) for tree in trees] for command in calls]
    print(f"{rounds} rounds; median ms of OLD and NEW, rounds NEW was faster, modules loaded")
    for command, (old, new), mods in zip(calls, times, loaded):
        wins = sum(b < a for a, b in zip(old, new))
        print(
            f"{command[0]:<11} {statistics.median(old) * 1e3:7.1f} "
            f"{statistics.median(new) * 1e3:7.1f} {wins:3d}/{rounds}"
        )
        for label, names in zip(("OLD", "NEW"), mods):
            print(f"  {label} {len(names)}: {' '.join(names)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Benchmark of stellarinv: cold CLI calls and in-process pipelines.

    python3 perfbench/run.py --workload {cli,small-n,large-n} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its ``src``.
Each run sets up several times in fresh interpreters, then repeats whole
rounds of the workload's operations, closed loop with one client, until
``--seconds`` have passed.  Every output is checked against computations
made apart from the program.  The last line of stdout is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
Progress and failed checks go to stderr; span files go to ``.perfbench-out``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")

#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_PROBES = 8
#: Fresh-interpreter imports per traced run; cli.import_* are their medians.
IMPORT_PROBES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MiB",
    "root_resid_digits": "digits",
    "lu_inv_digits": "digits",
    "slocc_inv_digits": "digits",
    "oracle_digits": "digits",
}

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); n = len(sys.modules); "
    "t = time.perf_counter(); import stellarinv; "
    "print((time.perf_counter() - t) * 1e3, len(sys.modules) - n)"
)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def build(workload: str, seed: int, workdir: str, si):
    """Inputs and operations of one workload; the part setup_s times."""
    import workloads as W

    if workload == "cli":
        chosen = W.cli_inputs(seed, workdir)
        runner = W.CliRunner(ROOT, in_process=False)
        return runner, W.cli_ops(runner, workdir, chosen)
    return None, W.library_ops(si, workload, seed)


def import_program():
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import stellarinv

    if not os.path.abspath(stellarinv.__file__).startswith(SRC + os.sep):
        raise ImportError(f"stellarinv came from {stellarinv.__file__}, not from {SRC}")
    return stellarinv


def setup_probe(args) -> int:
    """Child side of setup_s: import, build the inputs, report ready."""
    si = import_program()
    build(args.workload, args.seed, os.path.join(OUT, "probe"), si)
    print("ready", flush=True)
    return 0


def setup_sample(args) -> float:
    """Seconds from starting a fresh interpreter to its inputs being ready."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        stdout=subprocess.PIPE, cwd=ROOT,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter()
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError("set-up probe failed")
    return ready - start


def import_sample() -> tuple[float, int]:
    """Milliseconds and modules added by a cold ``import stellarinv``."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC], capture_output=True,
                         check=True, cwd=ROOT, text=True).stdout.split()
    return float(out[0]), int(out[1])


class Probes:
    """Fresh-interpreter samples spread evenly over the run.

    The host's speed drifts over tens of seconds; samples taken at one
    moment would follow the drift, samples spread like the operations
    average over it.  A sample is taken between operations, never during
    one, and the run's deadline moves by the time it took.
    """

    def __init__(self, sample, count: int, seconds: float):
        self.sample = sample
        self.count = count
        self.seconds = seconds
        self.samples = []
        self.start = time.perf_counter()

    def between_ops(self) -> float:
        """Take a sample if one is due; return the seconds it took."""
        k = len(self.samples)
        now = time.perf_counter()
        if k >= self.count or now - self.start < (k + 0.5) * self.seconds / self.count:
            return 0.0
        self.samples.append(self.sample())
        return time.perf_counter() - now

    def finish(self) -> list:
        while len(self.samples) < self.count:
            self.samples.append(self.sample())
        return self.samples


def run_rounds(ops, seconds: float, tally, probes: Probes, tracer=None):
    """Repeat whole rounds until ``seconds`` pass.

    Without a tracer every round is timed as is.  With one, rounds alternate
    untraced and traced, in even number, so the two can be compared.
    Returns per-op latencies (ns) of untraced and of traced rounds, and the
    counts attempted and failed.
    """
    import tracing

    plain, traced = [], []
    attempted = failed = rounds = 0
    deadline = time.perf_counter() + seconds
    min_rounds = 2 if tracer else 1
    while rounds < min_rounds or time.perf_counter() < deadline or (tracer and rounds % 2):
        on = tracer is not None and rounds % 2 == 1
        restore = tracing.install(tracer) if on else None
        sink = traced if on else plain
        try:
            for op in ops:
                deadline += probes.between_ops()
                span = tracer.open(tracing.OP) if on else None
                t0 = time.perf_counter_ns()
                try:
                    out, raised = op.run(), None
                except Exception as exc:  # a failed operation, counted below
                    out, raised = None, exc
                t1 = time.perf_counter_ns()
                if on:
                    tracer.close(span)
                attempted += 1
                if raised is not None:
                    failed += 1
                    tally.expect(False, f"{op.label}: raised {raised!r}")
                    continue
                sink.append(t1 - t0)
                try:
                    ok = op.check(out, tally)
                except Exception as exc:  # malformed output is a wrong answer
                    tally.expect(False, f"{op.label}: check raised {exc!r}")
                    ok = True
                failed += not ok
        finally:
            if restore:
                restore()
        rounds += 1
    return plain, traced, attempted, failed, rounds


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli", "small-n", "large-n"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "stellarinv", "__init__.py")):
        log(f"error: no stellarinv package under {SRC}; run from a checkout of the repository")
        return 2
    os.makedirs(OUT, exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)

    si = import_program()
    import reference as R
    import tracing
    import workloads as W

    workdir = os.path.join(OUT, args.workload)
    runner, ops = build(args.workload, args.seed, workdir, si)
    tracer = tracing.Tracer() if args.trace else None
    if runner is not None:
        runner.in_process = bool(args.trace)
        runner(["generate", "ghz", "-n", "2", "-o", os.path.join(workdir, "warm.json")])
        runner.peak_rss_kb = 0
    else:
        for op in ops:  # first calls load lazy state; users pay that once
            try:
                op.run()
            except Exception:
                pass

    tally = W.Tally()
    if args.trace:
        probes = Probes(import_sample, IMPORT_PROBES, args.seconds)
    else:
        probes = Probes(lambda: setup_sample(args), SETUP_PROBES, args.seconds)
    plain, traced, attempted, failed, rounds = run_rounds(ops, args.seconds, tally, probes, tracer)
    samples = probes.finish()
    log(f"{args.workload} seed={args.seed}: {rounds} rounds of {len(ops)} ops, "
        f"{attempted} attempted, {failed} failed")
    for err in tally.errors:
        log(f"check failed: {err}")

    metrics = {}
    if args.trace:
        path = os.path.join(OUT, f"trace-{args.workload}.jsonl")
        with open(path, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        st = tracing.stats(tracer.spans)
        for name in tracing.FUNCTIONS:
            for key, unit in (("calls", "count"), ("busy_ms", "ms"), ("p50_us", "us"), ("p99_us", "us")):
                metrics[f"{name}.{key}"] = (st[name][key], unit)
        metrics["cli.import_ms"] = (statistics.median(ms for ms, _ in samples), "ms")
        metrics["cli.import_modules"] = (max(mods for _, mods in samples), "count")
        metrics["slocc.ik_tuples"] = (tracer.ik_tuples, "computed-count")
        metrics["unattributed.busy_ms"] = (st["unattributed"]["busy_ms"], "ms")
        metrics["trace.op_busy_ms"] = (st["op_busy_ms"], "ms")
        metrics["trace.overhead_pct"] = (100.0 * (sum(traced) / sum(plain) - 1.0), "%")
        metrics["trace.rounds"] = (rounds // 2, "count")
    else:
        total_s = sum(plain) / 1e9
        ms = [x / 1e6 for x in plain]
        rss_kb = (runner.peak_rss_kb if runner is not None
                  else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        values = {
            "setup_s": statistics.median(samples),
            "ops_per_s": len(plain) / total_s,
            "op_ms_p50": statistics.median(ms),
            "op_ms_p90": quantile(ms, 0.9),
            "peak_rss_mb": rss_kb / 1024,
            "root_resid_digits": R.digits(tally.residual),
            "lu_inv_digits": R.digits(tally.lu),
            "slocc_inv_digits": R.digits(tally.slocc),
            "oracle_digits": R.digits(tally.oracle),
        }
        metrics = {k: (values[k], END_TO_END_UNITS[k]) for k in END_TO_END_UNITS}

    print(json.dumps({
        "correct": tally.error_count == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

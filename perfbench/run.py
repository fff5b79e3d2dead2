"""Benchmark of the `latmink` command line: one client, one operation at a time.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload hull --seed 1 --seconds 20 --trace 0

Each operation is one in-process call of `latmink.cli.main(argv)` with its
standard output captured, on input files written before set-up. The last line
of standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, and the
per-layer metrics of a traced pass with --trace 1. See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads

PASSES = 2  # the operation list runs this many times
PROBES_PER_PASS = 3  # fresh processes that time the same set-up, before each pass
STATE_DIR = ".perfbench"


def _source_root() -> Path:
    """The checkout's `src` directory; the benchmark refuses to run without it."""
    src = Path.cwd() / "src"
    if not (src / "latmink" / "cli.py").is_file():
        raise SystemExit(f"error: no latmink source under {src}; run from the root of a checkout")
    return src


def setup(warmup):
    """Import latmink and run the warm-up operations.

    Returns the cli module and the time spent, in reference seconds. The
    inputs are written before this starts: file-system latency is no cost
    of latmink and varied several-fold between runs on a shared disk.
    """
    before = reference.measure()
    start = time.perf_counter()
    from latmink import cli

    for op in warmup:
        code, text = call(cli, op.argv)
        problem = f"exit code {code}" if code else op.check(json.loads(text))
        if problem:
            raise SystemExit(f"error: warm-up {op.argv} failed: {problem}")
        if op.after is not None:
            op.after(text)
    gc.collect()
    elapsed = time.perf_counter() - start
    return cli, elapsed * reference.scale(before, reference.measure())


def call(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def run_pass(cli, ops, keep: Path | None = None):
    """Run every operation once.

    Returns exit codes, report digests, latencies in reference seconds and
    the total report size in bytes. No report text stays in memory, so that
    the peak resident memory is latmink's: with `keep`, report i is written
    to `keep / f"{i}.json"` for the checks after the passes.
    """
    codes, digests, latencies = [], [], []
    report_bytes = 0
    before = reference.measure()
    for i, op in enumerate(ops):
        start = time.perf_counter()
        code, text = call(cli, op.argv)
        elapsed = time.perf_counter() - start
        codes.append(code)
        data = text.encode()
        digests.append(hashlib.sha1(data).digest())
        report_bytes += len(data)
        if keep is not None:
            (keep / f"{i}.json").write_bytes(data)
        if op.after is not None and code == 0:
            op.after(text)
        del text, data
        after = reference.measure()
        latencies.append(elapsed * reference.scale(before, after))
        before = after
    return codes, digests, latencies, report_bytes


def count_failures(ops, codes, reports: Path) -> int:
    failed = 0
    for i, (op, code) in enumerate(zip(ops, codes)):
        problem = f"exit code {code}" if code else op.check(json.loads((reports / f"{i}.json").read_text()))
        if problem:
            failed += 1
            print(f"failed: {' '.join(op.argv)}: {problem}", file=sys.stderr)
    return failed


def probe_setup(args, state: Path) -> float:
    """Set-up time of one fresh process running the same set-up."""
    workdir = state / f"probe-{os.getpid()}-{time.monotonic_ns()}"
    try:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--setup-probe", str(workdir)],
            capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = _source_root()
    sys.path.insert(0, str(src))
    pass_seconds = args.seconds / PASSES
    if args.setup_probe:
        warmup, _ = workloads.build(args.workload, args.seed, pass_seconds, Path(args.setup_probe))
        print(setup(warmup)[1])
        return 0

    compileall.compile_dir(str(src / "latmink"), quiet=1)
    state = Path.cwd() / STATE_DIR
    workdir = state / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        warmup, ops = workloads.build(args.workload, args.seed, pass_seconds, workdir)
        cli, setup_s = setup(warmup)
        setup_samples = [setup_s]
        passes = []
        reports = workdir / "reports"
        reports.mkdir()
        # A traced run needs one untraced pass, as the base of the overhead ratio.
        for n in range(1 if args.trace else PASSES):
            if not args.trace:
                setup_samples += [probe_setup(args, state) for _ in range(PROBES_PER_PASS)]
            passes.append(run_pass(cli, ops, reports if n == 0 else None))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed = count_failures(ops, passes[0][0], reports)
        # A later pass that does not reproduce the first byte for byte fails too.
        digests = passes[0][1]
        failed += sum(_mismatches(ops, digests, later) for later in passes[1:])
        if args.trace:
            traced, metrics = run_traced_pass(cli, ops, state, args)
            failed += _mismatches(ops, digests, traced)
            metrics["trace.overhead_ratio"] = (sum(traced[2]) / sum(passes[0][2]), "ratio")
        else:
            # An operation's latency is the best of its passes.
            best = [min(p[2][i] for p in passes) * 1000 for i in range(len(ops))]
            metrics = {
                "ops_per_s": (len(ops) / sum(best) * 1000, "1/s"),
                "op_p50_ms": (statistics.median(best), "ms"),
                "op_p90_ms": (statistics.quantiles(best, n=10)[8], "ms"),
                "setup_s": (statistics.median(setup_samples), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": failed == 0,
        "attempted": len(ops) * (len(passes) + args.trace),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _mismatches(ops, reference_digests, later) -> int:
    bad = 0
    for op, ref, code, digest in zip(ops, reference_digests, later[0], later[1]):
        if code != 0 or digest != ref:
            bad += 1
            print(f"failed: {' '.join(op.argv)}: report differs between passes", file=sys.stderr)
    return bad


def run_traced_pass(cli, ops, state: Path, args):
    """A pass with every layer wrapped; returns the pass and the per-layer metrics."""
    import tracing

    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    traced = run_pass(cli, ops)
    tracer.report_bytes = traced[3]
    tracer.dump(state / f"trace-{args.workload}-seed{args.seed}.json")
    return traced, {name: (value, _unit(name)) for name, value in tracer.per_layer().items()}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_yield"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

"""Two sets of benchmark runs of the same code, compared metric by metric.

Run from the root of a source checkout:

    python3 perfbench/steadiness.py [--trace]

For each workload in BENCHMARK.json the first set uses seeds 1..10 and the
second set seeds 11..20; the sets run one after the other, as two measurements of
one commit would. Every run is one `perfbench/run.py` process with the
`run_seconds` of BENCHMARK.json. The table gives, per workload and metric,
each set's median and quartiles, its spread (interquartile range over
median), and how much worse the second median is than the first, next to
the metric's bound. Raw results go to .perfbench/steadiness-<time>.json.

With --trace it instead makes two traced runs on one seed per workload and
reports whether every per-layer count repeats exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUNS = 10  # runs per set


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def worse_by(metric: dict, first: float, second: float) -> float:
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def steadiness(bench: dict, workloads: list[str]) -> dict:
    raw = {}
    for workload in workloads:
        sets = []
        for base in (1, 1 + RUNS):
            results = []
            for seed in range(base, base + RUNS):
                start = time.monotonic()
                results.append(run_once(bench, workload, seed, 0))
                print(f"{workload} seed {seed}: {time.monotonic() - start:.1f} s", file=sys.stderr)
            sets.append(results)
        raw[workload] = sets

    print("| workload | metric | bound | set 1 median [q1, q3] | spread 1 | set 2 median [q1, q3] | spread 2 | worse by | failed share |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for workload, sets in raw.items():
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        for metric in bench["end_to_end"]:
            name = metric["name"]
            stats = [summarize([r["metrics"][name]["value"] for r in s]) for s in sets]
            cells = [f"{st['median']:.4g} [{st['q1']:.4g}, {st['q3']:.4g}] | {st['spread']:.3f}" for st in stats]
            worse = worse_by(metric, stats[0]["median"], stats[1]["median"])
            print(f"| {workload} | {name} | {metric['bound']} | {cells[0]} | {cells[1]} | {worse:+.3f} | {shares[0]:.3g} / {shares[1]:.3g} |")
    return raw


def trace_repeat(bench: dict, workloads: list[str]) -> dict:
    raw = {}
    counted = [m["name"] for m in bench["per_layer"] if m["unit"] in ("count", "bytes")]
    for workload in workloads:
        first, second = (run_once(bench, workload, 1, 1) for _ in range(2))
        raw[workload] = [first, second]
        differ = [n for n in counted if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
        ratio = first["metrics"]["trace.overhead_ratio"]["value"]
        print(f"{workload}: {len(counted) - len(differ)}/{len(counted)} counts repeat"
              f"{' (differ: ' + ', '.join(differ) + ')' if differ else ''}; overhead ratio {ratio:.2f}")
        for name in sorted(first["metrics"]):
            print(f"  {name} = {first['metrics'][name]['value']:.6g} {first['metrics'][name]['unit']}")
    return raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--trace", action="store_true", help="check that traced counts repeat instead")
    args = parser.parse_args(argv)
    bench = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    raw = trace_repeat(bench, workloads) if args.trace else steadiness(bench, workloads)
    out = Path(".perfbench") / f"steadiness-{'trace-' if args.trace else ''}{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(raw, indent=1))
    print(f"raw results: {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

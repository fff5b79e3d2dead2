"""Cold-start wall time of the `latmink` command line in two checkouts.

    python3 tools/cold_start.py PARENT_ROOT CHANGE_ROOT [--runs N]

Each command of COMMANDS, one per subcommand on a bundled dataset (and, for
`validate-triangulation`, on a two-triangle unit square written into a
temporary work directory), runs as `python -m latmink ...` in a fresh
interpreter with the root's `src` on PYTHONPATH; `python -c pass` is the
floor, the interpreter's own start-up. Every command runs once per root
untimed, so that the bytecode caches exist, and then N times per root
(default 15), the root that goes first alternating from one run to the next.
The table gives the minimum and the median wall time in ms of each command
in each root. Most of these commands take well under a millisecond once
latmink is loaded, so the times are almost all start-up: interpreter, imports
and argument parsing. The times depend on the machine and its load; this is a
measurement to read, not a gate.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

FLOOR = "python -c pass"
COMMANDS = [
    ["points", "unit-square", "1"],
    ["minkowski", "unit-square", "2"],
    ["check-equality", "sigma-3-2", "1..3"],
    ["decompose", "unit-square", "2", "1,1"],
    ["classify", "sigma-3-2"],
    ["lemma1", "sigma-3-2-matrix"],
    ["validate-triangulation", "square-triangulation.json"],
    ["search-primitive", "unit-cube"],
    ["word-ball", "gl2z-swap-shear", "3"],
    ["boundary", "gl2z-swap-shear", "3"],
    ["check-boundary", "gl2z-swap-shear", "1..3"],
    ["verify-paper", "--quick"],
]
SQUARE_TRIANGULATION = {
    "polytope": {"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]},
    "simplices": [[[0, 0], [1, 0], [1, 1]], [[0, 0], [0, 1], [1, 1]]],
}


def wall_ms(argv: list[str], env: dict, cwd: Path) -> float:
    """Wall time of one fresh process, in ms; exits with its stderr if it fails."""
    start = time.perf_counter()
    done = subprocess.run(argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    elapsed = (time.perf_counter() - start) * 1000
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv)} exited {done.returncode}: {done.stderr.decode().strip()}")
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--runs", type=int, default=15, help="timed runs per command and root (default 15)")
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in roots.values():
        if not (root / "src" / "latmink" / "cli.py").is_file():
            raise SystemExit(f"error: no latmink source under {root / 'src'}")
    envs = {side: dict(os.environ, PYTHONPATH=str(root / "src")) for side, root in roots.items()}
    argvs = {FLOOR: [sys.executable, "-c", "pass"]}
    argvs.update({" ".join(command): [sys.executable, "-m", "latmink", *command] for command in COMMANDS})
    times = {(name, side): [] for name in argvs for side in roots}
    with tempfile.TemporaryDirectory() as work:
        cwd = Path(work)
        (cwd / "square-triangulation.json").write_text(json.dumps(SQUARE_TRIANGULATION))
        for name, command in argvs.items():
            for env in envs.values():
                wall_ms(command, env, cwd)
        for run in range(args.runs):
            sides = list(roots) if run % 2 == 0 else list(roots)[::-1]
            for name, command in argvs.items():
                for side in sides:
                    times[name, side].append(wall_ms(command, envs[side], cwd))
    width = max(map(len, argvs))
    print(f"{'command':<{width}}  parent min  median   change min  median   (ms, {args.runs} runs each)")
    for name in argvs:
        cells = [f"{min(times[name, side]):10.1f}  {statistics.median(times[name, side]):6.1f}" for side in roots]
        print(f"{name:<{width}}  {cells[0]}   {cells[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

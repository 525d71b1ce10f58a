"""Time fresh ``isscert`` processes: the wall time and peak RSS of each
command on the benchmark's configs, from process start to exit.

Usage:

    python tools/cold_start.py [--repeat 9] [--seed 1] [--against TREE]

The configs come from ``bench/generate.py`` for the seed, which a helper
process imports and only reads: for each command, the first invocation of
the four workloads that runs it on a config of its own (``bound`` on
``mc_bound``, ``certify`` and ``construct`` on ``long_switching``,
``simulate`` on ``dense_trajectory``, ``lmi`` synth at n = 4 on
``lmi_synth``).  The row ``import`` is a process that only imports
``isscert.cli``, so that each command's own loads read as its excess over
that row.

Each row first runs once per tree untimed, to warm the file cache.  Then
each repeat starts one interpreter per row with ``os.posix_spawn``, with
``TREE/src`` on ``PYTHONPATH``, BLAS pinned to one thread and
``PYTHONDONTWRITEBYTECODE=1`` (as the benchmark runs, so a tree without
``__pycache__`` compiles ``isscert`` from source in every process), and
reaps it with ``os.wait4``: the wall time is from the spawn to the reaping,
the peak RSS is the child's ``ru_maxrss``.  Linux starts that at the
spawning process's own peak (the high-water mark of the address space that
the child's exec replaces), so the timing process imports neither NumPy nor
``isscert`` and stays below every child.  With ``--against``, the
other tree runs the same rows, the two trees alternating which goes first.
Every process must exit with the code its config was built to give.  The
script prints, per row and tree, the median and quartiles of both numbers,
and exits 1 if any process exits with another code.
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

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("simulate", "certify", "construct", "bound", "lmi")
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MAIN = "import sys; from isscert.cli import main; sys.exit(main(sys.argv[1:]))"


def write_configs(seed: int, work: Path) -> dict:
    """{row: (argv after ``-c``, expected exit code)}: ``import``, then one
    config per command, written under ``work``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import generate

    found = {"import": (["import isscert.cli"], 0)}
    for name in generate.WORKLOADS:
        for inv in generate.build(name, seed).invocations:
            if inv.command in found or inv.derive is not None:
                continue
            path = work / f"{inv.command}.json"
            path.write_text(json.dumps(inv.config))
            found[inv.command] = ([MAIN, inv.command, "--config", str(path),
                                   "--out", str(work / f"out-{inv.command}")], inv.expect)
    return {row: found[row] for row in ("import", *COMMANDS)}


def rows(seed: int, work: Path) -> dict:
    """``write_configs`` run in a helper process."""
    done = subprocess.run([sys.executable, __file__, "--seed", str(seed), "--configs", str(work)],
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout)


def run_fresh(src: Path, argv: list) -> tuple[float, float, int]:
    """Seconds from spawn to reaping, the child's peak RSS in MB and its exit
    code, for one interpreter running ``python -c *argv`` on ``src``."""
    env = {**os.environ, **BLAS_PIN, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    quiet = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-c", *argv], env,
                         file_actions=quiet)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    return seconds, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status)


def spread(values, scale: float, unit: str) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{median * scale:7.2f} {unit} [{q1 * scale:.2f}, {q3 * scale:.2f}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=9)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--against", type=Path, help="another source tree to run alongside")
    parser.add_argument("--configs", type=Path, help=argparse.SUPPRESS)  # the helper process
    args = parser.parse_args(argv)
    if args.configs:
        print(json.dumps(write_configs(args.seed, args.configs)))
        return 0
    trees = {"this": ROOT / "src"}
    if args.against:
        trees = {"against": args.against.resolve() / "src", **trees}
    status = 0
    print(f"median [quartiles] of {args.repeat} fresh processes: wall time, peak RSS")
    with tempfile.TemporaryDirectory() as work:
        for row, (command, expect) in rows(args.seed, Path(work)).items():
            seen = {tree: ([], []) for tree in trees}
            for tree in trees:
                status |= run_fresh(trees[tree], command)[2] != expect
            for i in range(args.repeat):
                for tree in (trees if i % 2 == 0 else reversed(trees)):
                    seconds, rss, code = run_fresh(trees[tree], command)
                    status |= code != expect
                    seen[tree][0].append(seconds)
                    seen[tree][1].append(rss)
            print(row)
            for tree, (seconds, rss) in seen.items():
                print(f"  {tree:<8} wall {spread(seconds, 1e3, 'ms')}  "
                      f"peak {spread(rss, 1, 'MB')}")
    if status:
        print("a process exited with another code than its config expects")
    return status


if __name__ == "__main__":
    sys.exit(main())

"""Time ``jsonio.write_json`` against the earlier ``json.dumps`` writer on the
JSON files that ``isscert lmi`` writes on the benchmark.

Usage:

    python tools/time_json.py [--repeat 30] [--seed 1]

For each size of the ``lmi_synth`` workload (n = 4, 8, 16, 32; two Hurwitz
and two unstable modes, all 12 mode pairs) the script runs ``lmi`` synth on
the config that ``bench/generate.py`` builds for the seed and keeps the
objects it hands to ``write_json``: ``certificate.json`` (the four n x n
matrices M_p, the 1 x 1 Q_p, eta, mu, lambda_max) and, for n = 32,
``verdict.json`` (4 flow and 12 jump verdicts).  Alternating, it writes each
through ``oracles.write_json_dumps`` (``json.dumps(obj, indent=2,
sort_keys=True)`` on the arrays' ``tolist()``, the earlier writer) and
through ``jsonio.write_json``.  It prints the median and quartiles of each
writer's wall time and its ``tracemalloc`` peak, and checks that both wrote
the same bytes.  Files go to a temporary directory that is removed.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

import generate  # noqa: E402
import oracles  # noqa: E402
from isscert import cli, jsonio  # noqa: E402

WRITERS = {"json.dumps": oracles.write_json_dumps, "write_json": jsonio.write_json}


def lmi_objects(seed: int) -> dict:
    """name -> object that ``isscert lmi`` synth writes, per size."""
    objects = {}
    original = jsonio.write_json
    for inv in generate.build("lmi_synth", seed).invocations:
        if inv.derive or inv.expect != cli.EXIT_OK:
            continue
        n = len(inv.config["system"]["A"]["s1"])
        written = {}
        jsonio.write_json = lambda path, obj: written.__setitem__(Path(path).name, obj)
        try:
            cli.cmd_lmi(inv.config, Path("."), seed)
        finally:
            jsonio.write_json = original
        objects[f"certificate.json n={n}"] = written["certificate.json"]
        if n == max(generate.LMI_SIZES):
            objects[f"verdict.json n={n}"] = written["verdict.json"]
    return objects


def peak_mb(writer, path, obj) -> float:
    tracemalloc.start()
    try:
        writer(path, obj)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    print(f"median [quartiles] of {args.repeat} alternating writes, tracemalloc peak")
    status = 0
    with tempfile.TemporaryDirectory() as work:
        for name, obj in lmi_objects(args.seed).items():
            paths = {w: Path(work) / f"{w}.json" for w in WRITERS}
            for writer, path in paths.items():  # warm up
                WRITERS[writer](path, obj)
            same = len({p.read_bytes() for p in paths.values()}) == 1
            seconds = {w: [] for w in WRITERS}
            for i in range(args.repeat):
                order = list(WRITERS) if i % 2 == 0 else list(reversed(WRITERS))
                for writer in order:
                    start = time.perf_counter()
                    WRITERS[writer](paths[writer], obj)
                    seconds[writer].append(time.perf_counter() - start)
            size = paths["write_json"].stat().st_size
            print(f"{name}: {size} bytes, {'same bytes' if same else 'BYTES DIFFER'}")
            for writer in WRITERS:
                q1, median, q3 = statistics.quantiles(seconds[writer], n=4)
                print(f"  {writer:<10} {median * 1e3:8.3f} ms [{q1 * 1e3:.3f}, {q3 * 1e3:.3f}]"
                      f"  peak {peak_mb(WRITERS[writer], paths[writer], obj):6.3f} MB")
            status |= not same
    return status


if __name__ == "__main__":
    sys.exit(main())

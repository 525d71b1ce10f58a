"""Time ``jsonio.write_csv`` against the earlier row template on the CSV
shapes the benchmark writes, and on a reports.csv of one row per failing
sample.

Usage:

    python tools/time_csv.py [--repeat 30] [--seed 0]

For each shape the script builds columns like the benchmark's (seeded,
synthetic values of the same kinds and magnitudes, and one long
``construct.csv`` of 200 000 rows) and, alternating, writes
them through ``oracles.write_csv_template`` (every row through one ``%``
template), through ``csvtext.write_csv`` (the column formatter, whatever the
size) and through ``jsonio.write_csv`` (which picks one of the two by
``jsonio.TEMPLATE_CELLS``).  It prints the median and quartiles of each
writer's wall time and its ``tracemalloc`` peak, the number of cells the
column formatter leaves to ``'%.17g'`` one at a time, and checks that all
three wrote the same bytes.  Files go to a temporary directory that is
removed.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracles  # noqa: E402
from isscert import csvtext, jsonio  # noqa: E402


def shapes(rng) -> dict:
    """name -> (header, columns) of each file shape the benchmark writes."""
    def decay(n, scale=2.0):
        return scale * np.exp(-np.cumsum(rng.uniform(0, 8.0 / n, n))) * rng.choice([-1, 1])

    def times(n, step):
        return np.arange(n) * step

    def modes(n, names):
        return np.array(names)[(np.arange(n) * len(names)) // n]

    n, long = 17505, 200000
    return {
        "bound.csv 51x3": (["r", "s", "beta(r,s)"],
                           [np.ones(51), np.linspace(0.0, 3.5, 51), decay(51)]),
        "long_switching construct.csv 536x4": (
            ["t", "V", "W", "h"],
            [times(536, 0.05), decay(536) ** 2, decay(536), -rng.uniform(0, 1, 536)]),
        # Not a file the benchmark writes: reports.csv has a row per run of
        # failing samples (one for certify_fast_phi_s).  Its 5 000 failing
        # samples as rows are a text-and-float shape near the template
        # threshold.
        "per-sample reports 5000x6": (
            ["kind", "time", "mode", "lhs", "rhs", "margin"],
            [np.full(5000, "flow"), times(5000, 2e-4), np.full(5000, "s"),
             -6 * decay(5000) ** 2, -7.2 * decay(5000) ** 2, 1.2 * decay(5000) ** 2]),
        "trajectory.csv 17505x4": (
            ["t", "mode", "x1", "jump_flag"],
            [times(n, 2e-4), modes(n, ["s", "u", "s", "u", "s"]), decay(n),
             (np.arange(n) % 3500 == 0).astype(int)]),
        "construct.csv 17505x4": (["t", "V", "W", "h"],
                                  [times(n, 2e-4), decay(n) ** 2, decay(n), decay(n, 0.8)]),
        # A long signal: the peak of the column formatter stays one block's.
        "construct.csv 200000x4": (["t", "V", "W", "h"],
                                   [times(long, 2e-4), decay(long) ** 2, decay(long),
                                    decay(long, 0.8)]),
    }


def columns_writer(path, header, columns):
    """The column formatter whatever the size."""
    if not csvtext.write_csv(path, header, [np.asarray(c) for c in columns]):
        raise ValueError("csvtext cannot print these columns")


WRITERS = {"template": oracles.write_csv_template, "columns": columns_writer,
           "write_csv": jsonio.write_csv}


def fallback_cells(columns) -> int:
    """Cells of the float columns that csvtext prints through '%.17g'."""
    return sum(int(csvtext._decimal(c)[2].sum()) for c in map(np.asarray, columns)
               if c.dtype.kind == "f")


def peak_mb(writer, path, header, columns) -> float:
    tracemalloc.start()
    try:
        writer(path, header, columns)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    print(f"jsonio.TEMPLATE_CELLS = {jsonio.TEMPLATE_CELLS}; median [quartiles] of "
          f"{args.repeat} alternating writes, tracemalloc peak")
    with tempfile.TemporaryDirectory() as work:
        for name, (header, columns) in shapes(np.random.default_rng(args.seed)).items():
            paths = {w: Path(work) / f"{w}.csv" for w in WRITERS}
            for writer, path in paths.items():  # warm up; columns imports csvtext
                WRITERS[writer](path, header, columns)
            same = len({p.read_bytes() for p in paths.values()}) == 1
            seconds = {w: [] for w in WRITERS}
            for i in range(args.repeat):
                order = list(WRITERS) if i % 2 == 0 else list(reversed(WRITERS))
                for writer in order:
                    start = time.perf_counter()
                    WRITERS[writer](paths[writer], header, columns)
                    seconds[writer].append(time.perf_counter() - start)
            rows = len(columns[0])
            print(f"{name}: {rows * len(columns)} cells, {fallback_cells(columns)} through "
                  f"'%.17g', {'same bytes' if same else 'BYTES DIFFER'}")
            for writer in WRITERS:
                q1, median, q3 = statistics.quantiles(seconds[writer], n=4)
                print(f"  {writer:<10} {median * 1e3:8.3f} ms [{q1 * 1e3:.3f}, {q3 * 1e3:.3f}]"
                      f"  peak {peak_mb(WRITERS[writer], paths[writer], header, columns):6.2f} MB")
            if not same:
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Time ``simulate_batch`` and ``iss_check_batch`` on Monte-Carlo batches, and
check every run of a batch against its solo ``simulate``, bit for bit.

Usage:

    python tools/time_batch.py [--repeat 30] [--seed 1] [--against TREE]

The batches come from the ``mc_bound`` workload that ``bench/generate.py``
builds for the seed: its own batch (20 runs, n = 1, as ``isscert bound``
draws and checks it), and, on its signal, step and ISS bound, one random
linear system for each n in 1, 2, 4, 8 with R = 1, 8 and 20 runs, whose
initial states and inputs ``cli._monte_carlo_runs`` draws, and one failing
batch: the ``mc_bound`` batch with its first run's input scaled by 1e15
after the first switching instant, so that run leaves the finite range in
the segment after its first jump and ``simulate_batch`` raises.  Each
repeat simulates a batch and then checks it, so the check never finds its
trajectories' samples cached; the failing batch is only simulated.  With
``--against``, the ``isscert`` package under ``TREE/src`` is imported
beside this one and the two run the same batches, in alternating order.
Every run must equal its solo ``simulate``, and a failing batch must raise
the error and partial trajectory of its first failing run alone; with
``--against`` the two trees must also agree, bit for bit.  The script
prints, per batch and tree, the median and quartiles of each call's wall
time and the ``tracemalloc`` peak of one simulation and check.  It exits 1
if any run differs.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import generate  # noqa: E402
import isscert  # noqa: E402
from isscert import cli  # noqa: E402

SIZES = (1, 2, 4, 8)
RUNS = (1, 8, 20)
SCALE = 1e15


def load_tree(src: Path, name: str):
    """The ``isscert`` package under ``src``, imported as ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, src / "isscert" / "__init__.py", submodule_search_locations=[str(src / "isscert")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def mc_bound_batch(seed: int) -> dict:
    """model, sig, x0s, inputs, step and the ISS bound of ``isscert bound``
    on the ``mc_bound`` config of ``seed``."""
    (inv,) = generate.build("mc_bound", seed).invocations
    batch = {}

    def record(bound, trajs, x0s, inputs):
        batch["bound"] = bound
        return isscert.iss_check_batch(bound, trajs, x0s, inputs)

    def simulate(model, sig, x0s, inputs, step):
        batch.update(model=model, sig=sig, x0s=x0s, inputs=inputs, step=step)
        return isscert.simulate_batch(model, sig, x0s, inputs, step)

    with tempfile.TemporaryDirectory() as out, \
            mock.patch.object(cli, "iss_check_batch", record), \
            mock.patch.object(cli, "simulate_batch", simulate):
        cli.cmd_bound(inv.config, Path(out), seed)
    return batch


def drawn_batch(base: dict, n: int, runs: int, seed: int) -> dict:
    """A random linear system of dimension n on ``base``'s signal,
    with the x0s and inputs that ``cli._monte_carlo_runs`` draws for it."""
    rng = np.random.default_rng([seed, n, runs])
    modes = dict.fromkeys(base["sig"].modes)
    model = isscert.LinearSystemModel(
        A={p: rng.standard_normal((n, n)) / np.sqrt(n) - 2 * np.eye(n) for p in modes},
        B={p: rng.standard_normal((n, 1)) for p in modes},
        J={p: 0.5 * np.eye(n) for p in modes},
        H={p: rng.standard_normal((n, 1)) for p in modes})
    x0s, inputs = cli._monte_carlo_runs(model.dims, runs, 2.0, 1.0, seed)
    return dict(base, model=model, x0s=x0s, inputs=inputs)


def failing_batch(base: dict) -> dict:
    """``base`` with its first run's input scaled by ``SCALE`` after the
    first switching instant."""
    t1, inp = base["sig"].instants[0], base["inputs"][0]
    scaled = isscert.InputSignal(
        lambda t: inp(t) * (SCALE if t > t1 else 1.0), inp.sup_norm * SCALE,
        lambda ts: inp.sample(ts) * np.where(ts > t1, SCALE, 1.0)[:, None])
    return dict(base, inputs=[scaled, *base["inputs"][1:]])


def same_bits(a, b) -> bool:
    """Whether two trajectories hold the same modes, times and states, bit for bit."""
    return len(a.segments) == len(b.segments) and all(
        x.mode == y.mode and x.states.shape == y.states.shape
        and x.times.tobytes() == y.times.tobytes() and x.states.tobytes() == y.states.tobytes()
        for x, y in zip(a.segments, b.segments))


def same_outcome(a, b) -> bool:
    """Whether two batch outcomes, lists of runs or NonFiniteErrors, agree
    bit for bit."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        return (type(a).__name__ == type(b).__name__ and str(a) == str(b)
                and same_bits(a.partial, b.partial))
    return len(a) == len(b) and all(map(same_bits, a, b))


def solo(package, args):
    """Each run's solo ``simulate``, or the error of the first that raises."""
    model, sig, x0s, inputs, step, _ = args
    trajs = []
    for x0, inp in zip(x0s, inputs):
        try:
            trajs.append(package.simulate(model, sig, x0, inp, step))
        except package.NonFiniteError as error:
            return error
    return trajs


def run_once(package, args):
    """Seconds of ``simulate_batch`` and of ``iss_check_batch`` on it, and
    the runs; if the batch raises, None for the check and the error."""
    model, sig, x0s, inputs, step, bound = args
    start = time.perf_counter()
    try:
        trajs = package.simulate_batch(model, sig, x0s, inputs, step)
    except package.NonFiniteError as error:
        return time.perf_counter() - start, None, error
    middle = time.perf_counter()
    package.iss_check_batch(bound, iter(trajs), x0s, inputs)
    return middle - start, time.perf_counter() - middle, trajs


def peak_mb(package, args) -> float:
    tracemalloc.start()
    try:
        run_once(package, args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--against", type=Path, help="another source tree to time alongside")
    args = parser.parse_args(argv)
    trees = {"this": isscert}
    if args.against:
        trees = {"against": load_tree(args.against.resolve() / "src", "isscert_against"), **trees}
    base = mc_bound_batch(args.seed)
    batches = {"mc_bound": base}
    batches.update((f"n={n} R={r}", drawn_batch(base, n, r, args.seed))
                   for n in SIZES for r in RUNS)
    batches["mc_bound failing"] = failing_batch(base)
    print(f"median [quartiles] of {args.repeat} alternating repeats, tracemalloc peak")
    status = 0
    for name, batch in batches.items():
        call = {}
        for tree, package in trees.items():
            model = package.LinearSystemModel(*(getattr(batch["model"], k) for k in "ABJH"))
            call[tree] = (model, batch["sig"], batch["x0s"], batch["inputs"], batch["step"],
                          batch["bound"])
        runs = {tree: run_once(trees[tree], call[tree])[2] for tree in trees}  # and warm up
        ok = all(same_outcome(runs[tree], solo(trees[tree], call[tree])) for tree in trees)
        if len(runs) == 2:
            ok &= same_outcome(*runs.values())
        seconds = {tree: ([], []) for tree in trees}
        for i in range(args.repeat):
            for tree in (trees if i % 2 == 0 else reversed(trees)):
                sim, check, _ = run_once(trees[tree], call[tree])
                seconds[tree][0].append(sim)
                seconds[tree][1].append(check)
        n = batch["model"].state_dim
        print(f"{name} (n = {n}, R = {len(batch['x0s'])}): "
              f"{'same bits' if ok else 'BITS DIFFER'}")
        for tree in trees:
            times = []
            for label, values in zip(("simulate", "check"), seconds[tree]):
                if None in values:
                    continue
                q1, median, q3 = statistics.quantiles(values, n=4)
                times.append(f"{label} {median * 1e3:7.3f} ms [{q1 * 1e3:.3f}, {q3 * 1e3:.3f}]")
            peak = peak_mb(trees[tree], call[tree])
            print(f"  {tree:<8} {'  '.join(times)}  peak {peak:6.3f} MB")
        status |= not ok
    return status


if __name__ == "__main__":
    sys.exit(main())

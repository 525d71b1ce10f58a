"""Compare the CLI outputs of two source trees on the benchmark's configs.

Usage:

    python tools/compare_outputs.py PARENT_DIR CHANGE_DIR [--seeds 1 2 3]
        [--workloads mc_bound ...] [--work DIR]

Each tree is run in its own interpreter with ``TREE/src`` and ``TREE/bench``
on ``PYTHONPATH``: every invocation that ``bench/generate.py`` builds for the
given workloads and seeds goes through that tree's ``isscert.cli.main``, the
same way ``bench/run.py`` calls it.  ``bench/`` is only read.  The outputs
land in ``WORK/parent`` and ``WORK/change`` (a temporary directory unless
``--work`` is given), one directory per workload, seed and invocation, next
to the config it ran.

The report lists differing exit codes, files present on one side only, and
every file whose bytes differ; for a differing CSV file it gives the largest
relative difference |a - b| / max(|a|, |b|) of each numeric column, and for
a differing JSON file the largest relative difference of the numeric leaves
under each key path (e.g. ``max_margin`` or ``flow.s.max_eig``).  A path
stands for every index of a list, as in ``M.s1[*][*]``, so that a changed
matrix takes one line, with the number of its leaves that moved.  The exit
code is 0 when every exit code and every file is identical, else 1.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path


def produce(out: Path, workloads: list[str], seeds: list[int]) -> None:
    """Run every invocation of the given workloads and seeds into ``out``
    through the ``isscert`` and ``generate`` found on ``sys.path``."""
    import generate
    from isscert import cli

    codes = {}
    for name in workloads:
        for seed in seeds:
            base = out / name / str(seed)
            base.mkdir(parents=True, exist_ok=True)
            for inv in generate.build(name, seed).invocations:
                cfg = inv.config
                if inv.derive:
                    # The verify config takes the synth's certificate, as in
                    # bench/run.py.
                    cert = json.loads((base / inv.derive / "certificate.json").read_text())
                    cfg = copy.deepcopy(cfg)
                    cfg["lmi"]["certificate"] = {k: cert[k] for k in ("M", "Q", "eta", "mu")}
                config = base / f"{inv.label}.json"
                config.write_text(json.dumps(cfg, sort_keys=True))
                argv = [inv.command, "--config", str(config), "--out", str(base / inv.label),
                        "--seed", str(seed)]
                with contextlib.redirect_stderr(io.StringIO()):
                    codes[f"{name}/{seed}/{inv.label}"] = cli.main(argv)
    (out / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


def run_tree(tree: Path, out: Path, workloads: list[str], seeds: list[int]) -> None:
    shutil.rmtree(out, ignore_errors=True)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tree / "src"), str(tree / "bench")]),
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    cmd = [sys.executable, str(Path(__file__).resolve()), "--produce", str(out),
           "--workloads", *workloads, "--seeds", *map(str, seeds)]
    subprocess.run(cmd, env=env, cwd=tree, check=True)


def _csv_columns(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    head, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    if rows and len(head) > len(rows[0]):
        # A comma inside the last column name, as in bound.csv's "beta(r,s)".
        width = len(rows[0])
        head = head[:width - 1] + [",".join(head[width - 1:])]
    return head, rows


def _rel(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    scale = max(abs(a), abs(b))
    return math.inf if math.isinf(scale) or math.isnan(a) or math.isnan(b) else abs(a - b) / scale


def csv_differences(a: str, b: str) -> str:
    """Largest relative difference per numeric column of two CSV texts."""
    head_a, rows_a = _csv_columns(a)
    head_b, rows_b = _csv_columns(b)
    if head_a != head_b or len(rows_a) != len(rows_b):
        return f"header or row count differs ({len(rows_a)} vs {len(rows_b)} rows)"
    parts = []
    for j, col in enumerate(head_a):
        worst, text_diffs = 0.0, 0
        for ra, rb in zip(rows_a, rows_b):
            if ra[j] == rb[j]:
                continue
            try:
                worst = max(worst, _rel(float(ra[j]), float(rb[j])))
            except ValueError:
                text_diffs += 1
        if text_diffs:
            parts.append(f"{col}: {text_diffs} non-numeric cells differ")
        elif worst:
            parts.append(f"{col}: max rel {worst:.3g}")
    return "; ".join(parts) or "identical values, different bytes"


def _leaves(obj, path: str = ""):
    """(key path, value) of every leaf of a parsed JSON document."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}.{key}" if path else str(key))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, obj


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _collapse(path: str) -> str:
    """A key path with every list index written ``[*]``."""
    return re.sub(r"\[\d+\]", "[*]", path)


def _share(count: int, total: int) -> str:
    """How many of a path's leaves differ, when the path stands for several."""
    return f" ({count} of {total} leaves)" if total > 1 else ""


def json_differences(a: str, b: str) -> str:
    """Per key path of two JSON texts, list indices collapsed: the largest
    relative difference of its numeric leaves that differ, and the first old
    and new value of its other leaves that do, each with the count of such
    leaves when the path stands for more than one."""
    leaves_a, leaves_b = dict(_leaves(json.loads(a))), dict(_leaves(json.loads(b)))
    if leaves_a.keys() != leaves_b.keys():
        return "keys differ: " + ", ".join(sorted({_collapse(k)
                                                   for k in leaves_a.keys() ^ leaves_b.keys()}))
    paths = {}
    for key, x in leaves_a.items():
        paths.setdefault(_collapse(key), []).append((x, leaves_b[key]))
    parts = []
    for path, pairs in paths.items():
        numeric = [_is_number(x) and _is_number(y) for x, y in pairs]
        rels = [r for (x, y), num in zip(pairs, numeric) if num and (r := _rel(float(x), float(y)))]
        # 1 == True in Python, so the types are compared too.
        others = [(x, y) for (x, y), num in zip(pairs, numeric)
                  if not num and (x != y or type(x) is not type(y))]
        if rels:
            parts.append(f"{path}: max rel {max(rels):.3g}{_share(len(rels), len(pairs))}")
        if others:
            (x, y), share = others[0], _share(len(others), len(pairs))
            parts.append(f"{path}: {x!r} -> {y!r}{share}")
    return "; ".join(parts) or "identical values, different bytes"


def compare(parent: Path, change: Path) -> list[str]:
    problems = []
    codes_a = json.loads((parent / "exit_codes.json").read_text())
    codes_b = json.loads((change / "exit_codes.json").read_text())
    for key in sorted(set(codes_a) | set(codes_b)):
        if codes_a.get(key) != codes_b.get(key):
            problems.append(f"exit code {key}: {codes_a.get(key)} -> {codes_b.get(key)}")
    files_a = {p.relative_to(parent) for p in parent.rglob("*") if p.is_file()}
    files_b = {p.relative_to(change) for p in change.rglob("*") if p.is_file()}
    for rel in sorted(files_a ^ files_b):
        problems.append(f"only in {'parent' if rel in files_a else 'change'}: {rel}")
    for rel in sorted(files_a & files_b):
        a, b = (parent / rel).read_bytes(), (change / rel).read_bytes()
        if a == b:
            continue
        detail = "bytes differ"
        if rel.suffix == ".csv":
            detail = csv_differences(a.decode(), b.decode())
        elif rel.suffix == ".json":
            detail = json_differences(a.decode(), b.decode())
        problems.append(f"differs: {rel}: {detail}")
    print(f"{len(codes_a)} invocations, {len(files_a & files_b)} files in common")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=Path, metavar="PARENT_DIR CHANGE_DIR")
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    parser.add_argument("--workloads", nargs="+",
                        default=["mc_bound", "long_switching", "dense_trajectory", "lmi_synth"])
    parser.add_argument("--work", type=Path, default=None)
    parser.add_argument("--produce", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.produce is not None:
        produce(args.produce, args.workloads, args.seeds)
        return 0
    if len(args.trees) != 2:
        parser.error("give PARENT_DIR and CHANGE_DIR")
    with contextlib.ExitStack() as stack:
        work = args.work or Path(stack.enter_context(tempfile.TemporaryDirectory()))
        sides = {}
        for side, tree in zip(("parent", "change"), args.trees):
            sides[side] = work / side
            run_tree(tree.resolve(), sides[side], args.workloads, args.seeds)
        problems = compare(sides["parent"], sides["change"])
    for line in problems:
        print(line)
    print("identical" if not problems else f"{len(problems)} difference(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

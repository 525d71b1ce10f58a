"""Command-line front end.

Commands: simulate, certify, construct, bound, lmi — one positional
argument of the one parser, which also takes a single JSON config plus
output-directory and seed flags.  ``jsonio`` reads the config and checks
the flags; each command computes and writes, and the failures it lets
through reach their exit code and stderr prefix through the one
``FAILURES`` table in ``main``.  Exit codes: 0 ok, 1 config error
(including a negative ``--seed`` and an ``--out`` that cannot be a
directory), 2 non-finite state (and argparse's usage errors), 3 violations
(including a signal that breaks the dwell preconditions of
``construct``), 4 structural precondition failure (including bound
envelopes that do not enclose the certificate's flow rates, or whose
transform image is bounded above when the dwell slack C is positive),
5 heuristic search infeasible.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import jsonio
from .bounds import build_bound, iss_check
from .certify import check_dwell_conditions, check_trajectory, dwell_slack_verdict
from .construct import build_decreasing, decrease_check
from .errors import (
    ConfigError,
    DwellPreconditionError,
    NonFiniteError,
    StepTooLargeError,
    StructuralError,
)
from .lmi import Infeasible, check_blocks, check_rate_conditions, synthesize
from .rates import envelope_check
from .simulate import (
    _unit_vector,
    constant_input,
    reachability_bound,
    simulate,
    simulate_batch,
    sinusoid_input,
    zero_input,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NONFINITE = 2
EXIT_VIOLATIONS = 3
EXIT_STRUCTURAL = 4
EXIT_INFEASIBLE = 5

# Each failure a command lets through: its exit code and the prefix of its
# one line on stderr.
FAILURES = {
    ConfigError: (EXIT_CONFIG, "config error"),
    StepTooLargeError: (EXIT_CONFIG, "config error"),
    NonFiniteError: (EXIT_NONFINITE, "non-finite state"),
    DwellPreconditionError: (EXIT_VIOLATIONS, "dwell precondition failed"),
    StructuralError: (EXIT_STRUCTURAL, "structural precondition failed"),
}


def cmd_simulate(cfg, out: Path, seed: int) -> int:
    model, sig, inp, x0, step = jsonio.parse_run(cfg)
    try:
        traj = simulate(model, sig, x0, inp, step)
    except NonFiniteError as e:
        if e.partial is not None:
            jsonio.write_trajectory_csv(out / "trajectory.csv", e.partial, model.dims[0])
        raise
    jsonio.write_trajectory_csv(out / "trajectory.csv", traj, model.dims[0])
    return EXIT_OK


def cmd_certify(cfg, out: Path, seed: int) -> int:
    model, sig, inp, x0, step = jsonio.parse_run(cfg)
    cert, form = jsonio.parse_run_certificate(cfg, sig, model.dims[0])
    dini_coeff, a_grid = jsonio.parse_checks(cfg)
    traj = simulate(model, sig, x0, inp, step)
    reports = (check_trajectory(cert, traj, inp, form, dini_coeff=dini_coeff)
               + check_dwell_conditions(cert, sig, a_grid))
    slack_s, slack_u, mdadt_ok, mdalt_ok = dwell_slack_verdict(cert, sig)
    violations = int(np.count_nonzero(reports.kind != "dwell-inconclusive"))
    jsonio.write_reports_csv(out / "reports.csv", reports)
    jsonio.write_json(out / "summary.json", {
        "violations": violations,
        "mdadt_slack": slack_s,
        "mdalt_slack": slack_u,
        "mdadt_ok": mdadt_ok,
        "mdalt_ok": mdalt_ok,
        **reports.counts,
    })
    return EXIT_OK if not violations and mdadt_ok and mdalt_ok else EXIT_VIOLATIONS


def cmd_construct(cfg, out: Path, seed: int) -> int:
    model, sig, inp, x0, step = jsonio.parse_run(cfg)
    cert, _ = jsonio.parse_run_certificate(cfg, sig, model.dims[0])
    dini_coeff, a_grid = jsonio.parse_checks(cfg)
    dec = build_decreasing(cert, sig, a_grid=a_grid)
    traj = simulate(model, sig, x0, inp, step)
    reports, columns = decrease_check(dec, traj, inp, dini_coeff=dini_coeff)
    jsonio.write_csv(out / "construct.csv", ["t", "V", "W", "h"], columns)
    jsonio.write_reports_csv(out / "reports.csv", reports)
    return EXIT_OK if not reports else EXIT_VIOLATIONS


def _monte_carlo(model, sig, bound, runs: int, x0_range: float, u_bound: float, step: float,
                 seed: int) -> tuple[int, float]:
    """The ISS check on ``runs`` random runs: the number of violations and
    the largest margin.  Each run's x0 and input are drawn in run order, and
    the runs are simulated as one batch."""
    rng = np.random.default_rng(seed)
    n, m = model.dims
    x0s, inputs = [], []
    for _ in range(runs):
        x0s.append(rng.uniform(-x0_range, x0_range, n))
        if u_bound > 0:
            amp = rng.uniform(0, u_bound)
            direction = _unit_vector(rng, m)
            if rng.uniform() < 0.5:
                inputs.append(constant_input(amp * direction))
            else:
                inputs.append(sinusoid_input(amp * direction, rng.uniform(0.5, 5.0)))
        else:
            inputs.append(zero_input(m))
    trajs = simulate_batch(model, sig, x0s, inputs, step)
    # Popped one at a time, so that only one run's cached samples are alive.
    trajs.reverse()
    total_violations, max_margin = 0, -np.inf
    for x0, inp in zip(x0s, inputs):
        reports, margin = iss_check(bound, trajs.pop(), x0, inp)
        total_violations += len(reports)
        max_margin = max(max_margin, margin)
    return total_violations, max_margin


def cmd_bound(cfg, out: Path, seed: int) -> int:
    model, sig, inp, x0, step = jsonio.parse_run(cfg)
    cert, _ = jsonio.parse_run_certificate(cfg, sig, model.dims[0])
    lower, upper, runs, x0_range, u_bound, patch_samples, r_list, s_grid = \
        jsonio.parse_bound(cfg, cert, sig)
    if not envelope_check(cert.phi, lower, upper):
        raise StructuralError("bound.envelopes do not enclose |phi_p| for every mode")
    # Built once without the patch first, so that envelopes the bound
    # refuses are refused before the reachability runs.
    bound = build_bound(cert, cert.dwell, lower, upper)
    if bound.C > 0:
        k_hat = reachability_bound(model, sig, x0_range, u_bound,
                                   bound.metadata["patch_window"], patch_samples,
                                   step=step, seed=seed)
        level = cert.alpha2(k_hat)
        bound = build_bound(cert, cert.dwell, lower, upper,
                            short_horizon_envelope=lambda r: level)
    jsonio.write_csv(out / "bound.csv", ["r", "s", "beta(r,s)"],
                     [np.repeat(r_list, len(s_grid)), np.tile(s_grid, len(r_list)),
                      np.ravel([bound.beta(r, s_grid) for r in r_list])])
    total_violations, max_margin = _monte_carlo(model, sig, bound, runs, x0_range, u_bound,
                                                step, seed)
    jsonio.write_json(out / "verdict.json", {
        "violations": total_violations,
        "max_margin": max_margin,
        "case": bound.case,
        "C": bound.C,
        "patched": bound.metadata["patched"],
        "t0_independent": bound.metadata["t0_independent"],
    })
    return EXIT_OK if total_violations == 0 else EXIT_VIOLATIONS


def cmd_lmi(cfg, out: Path, seed: int) -> int:
    model, partition, dwell, q_set, qc = jsonio.parse_lmi(cfg)
    if qc is None:
        result = synthesize(model, partition, q_set, dwell)
        if isinstance(result, Infeasible):
            jsonio.write_json(out / "verdict.json", {
                "infeasible": True,
                "reason": result.reason,
                "details": {k: _jsonable(v) for k, v in result.details.items()},
            })
            return EXIT_INFEASIBLE
        qc = result
        jsonio.write_json(out / "certificate.json", {
            "M": {p: m.tolist() for p, m in qc.M.items()},
            "Q": {p: m.tolist() for p, m in qc.Q.items()},
            "eta": dict(qc.eta),
            "mu": dict(qc.mu),
            "lambda_max": qc.lambda_max,
        })

    # A synthesized certificate carries the verdicts of its own block check.
    flow, jump = qc.blocks if qc.blocks is not None else check_blocks(model, qc, q_set)
    flow = {p: {"ok": ok, "max_eig": top} for p, (ok, top) in flow.items()}
    jump = {f"{p}<-{q}": {"ok": ok, "max_eig": top} for (p, q), (ok, top) in jump.items()}
    rates = [
        {"kind": kind, "where": where, "lhs": lhs, "rhs": rhs, "margin": margin}
        for kind, _, where, lhs, rhs, margin
        in check_rate_conditions(qc, partition, dwell, q_set).rows()
    ]
    jsonio.write_json(out / "verdict.json", {"flow": flow, "jump": jump, "rates": rates})
    all_ok = all(v["ok"] for v in flow.values()) and all(v["ok"] for v in jump.values()) \
        and not rates
    return EXIT_OK if all_ok else EXIT_VIOLATIONS


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return float(v)
    if isinstance(v, tuple):
        return list(v)
    return v


_COMMANDS = {
    "simulate": cmd_simulate,
    "certify": cmd_certify,
    "construct": cmd_construct,
    "bound": cmd_bound,
    "lmi": cmd_lmi,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="isscert",
        description="Simulate impulsive switched systems and certify input-to-state stability.",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=".")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        cfg = jsonio.load_config(args.config)
        out = jsonio.output_dir(args.out)
        seed = jsonio.parse_seed(cfg, args.seed)
        return _COMMANDS[args.command](cfg, out, seed)
    except tuple(FAILURES) as e:
        code, prefix = next(FAILURES[c] for c in type(e).__mro__ if c in FAILURES)
        print(f"{prefix}: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

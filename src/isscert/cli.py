"""Command-line front end.

Commands: simulate, certify, construct, bound, lmi — each takes a single
JSON config plus output-directory and seed flags.  Exit codes: 0 ok,
1 config error, 2 non-finite state, 3 violations, 4 structural
precondition failure (including bound envelopes that do not enclose the
certificate's flow rates, or whose transform image is bounded above when
the dwell slack C is positive), 5 heuristic search infeasible.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import jsonio
from .bounds import build_bound, iss_check
from .certify import (
    DEFAULT_DINI_COEFF,
    FORMS,
    check_dwell_conditions,
    check_trajectory,
    dwell_slack_verdict,
)
from .construct import build_decreasing, decrease_check
from .errors import (
    ConfigError,
    DegenerateGammaError,
    ImageNotFullError,
    NonFiniteError,
    StepTooLargeError,
)
from .lmi import (
    Infeasible,
    check_flow_lmi,
    check_jump_lmi,
    check_rate_conditions,
    synthesize,
)
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


def _convert(value, cast, field: str):
    """cast(value); a value it cannot convert is a ConfigError on ``field``."""
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"malformed value {value!r} ({e})", field=field) from e


def _number(value, field: str, cast=float, low=0.0, strict=False):
    """A finite number >= low (> low when ``strict``) from a config value."""
    x = _convert(value, cast, field)
    if not (math.isfinite(x) and (x > low if strict else x >= low)):
        raise ConfigError(f"must be a finite number {'>' if strict else '>='} {low}, "
                          f"got {value!r}", field=field)
    return x


def _numbers(value, field: str, strict=False) -> list[float]:
    """A nonempty list of finite numbers >= 0 (> 0 when ``strict``)."""
    values = _convert(value, list, field)
    if not values:
        raise ConfigError("must be a nonempty list", field=field)
    return [_number(v, field, strict=strict) for v in values]


def _run_setup(cfg):
    model = jsonio.parse_model(jsonio._require(cfg, "system", "config"))
    sig = jsonio.parse_signal(jsonio._require(cfg, "signal", "config"))
    n, m = model.dims
    missing = sig.mode_set - set(model.A)
    if missing:
        raise ConfigError(f"signal uses modes absent from the system: {sorted(missing)}",
                          field="signal.modes")
    inp = jsonio.parse_input(cfg.get("input"), m)
    x0 = _convert(jsonio._require(cfg, "x0", "config"), lambda v: np.array(v, dtype=float), "x0")
    if x0.shape != (n,) or not np.all(np.isfinite(x0)):
        raise ConfigError(f"x0 must be {n} finite numbers", field="x0")
    step = _number(cfg.get("step", 1e-3), "step", strict=True)
    return model, sig, inp, x0, step


def _certificate(cfg, sig, n: int):
    """The certificate, with an entry for every mode of the signal, and its
    form ("implication" unless given)."""
    obj = _convert(jsonio._require(cfg, "certificate", "config"), dict, "certificate")
    form = obj.get("form", "implication")
    if form not in FORMS:
        raise ConfigError(f"unknown form {form!r}; choose one of {list(FORMS)}",
                          field="certificate.form")
    return jsonio.parse_certificate(obj, sig.mode_set, n), form


def _dini(cfg) -> float:
    tolerances = _convert(cfg.get("tolerances", {}), dict, "tolerances")
    return _number(tolerances.get("dini_coeff", DEFAULT_DINI_COEFF), "tolerances.dini_coeff")


def _a_grid(cfg):
    return _numbers(cfg.get("dwell_a_grid", [1.0, 10.0, 100.0]), "dwell_a_grid", strict=True)


def cmd_simulate(cfg, out: Path, seed: int) -> int:
    model, sig, inp, x0, step = _run_setup(cfg)
    try:
        traj = simulate(model, sig, x0, inp, step)
    except NonFiniteError as e:
        if e.partial is not None:
            jsonio.write_trajectory_csv(out / "trajectory.csv", e.partial, model.dims[0])
        print(f"non-finite state: {e}", file=sys.stderr)
        return EXIT_NONFINITE
    jsonio.write_trajectory_csv(out / "trajectory.csv", traj, model.dims[0])
    return EXIT_OK


def cmd_certify(cfg, out: Path, seed: int) -> int:
    model, sig, inp, x0, step = _run_setup(cfg)
    cert, form = _certificate(cfg, sig, model.dims[0])
    dini_coeff, a_grid = _dini(cfg), _a_grid(cfg)
    try:
        traj = simulate(model, sig, x0, inp, step)
    except NonFiniteError as e:
        print(f"non-finite state: {e}", file=sys.stderr)
        return EXIT_NONFINITE
    reports = check_trajectory(cert, traj, inp, form, dini_coeff=dini_coeff)
    reports += check_dwell_conditions(cert, sig, a_grid)
    slack_s, slack_u, mdadt_ok, mdalt_ok = dwell_slack_verdict(cert, sig)
    violations = [r for r in reports if r.kind != "dwell-inconclusive"]
    jsonio.write_reports_csv(out / "reports.csv", reports)
    jsonio.write_json(out / "summary.json", {
        "violations": len(violations),
        "mdadt_slack": slack_s,
        "mdalt_slack": slack_u,
        "mdadt_ok": mdadt_ok,
        "mdalt_ok": mdalt_ok,
    })
    return EXIT_OK if not violations and mdadt_ok and mdalt_ok else EXIT_VIOLATIONS


def cmd_construct(cfg, out: Path, seed: int) -> int:
    model, sig, inp, x0, step = _run_setup(cfg)
    cert, _ = _certificate(cfg, sig, model.dims[0])
    dini_coeff, a_grid = _dini(cfg), _a_grid(cfg)
    try:
        dec = build_decreasing(cert, sig, a_grid=a_grid)
    except ImageNotFullError as e:
        print(f"structural precondition failed: {e}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except ValueError as e:
        print(f"dwell precondition failed: {e}", file=sys.stderr)
        return EXIT_VIOLATIONS
    try:
        traj = simulate(model, sig, x0, inp, step)
    except NonFiniteError as e:
        print(f"non-finite state: {e}", file=sys.stderr)
        return EXIT_NONFINITE
    reports, rows = decrease_check(dec, traj, inp, dini_coeff=dini_coeff)
    jsonio.write_csv(out / "construct.csv", ["t", "V", "W", "h"], rows)
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
    model, sig, inp, x0, step = _run_setup(cfg)
    cert, _ = _certificate(cfg, sig, model.dims[0])
    bcfg = jsonio._require(cfg, "bound", "config")
    env = jsonio._require(bcfg, "envelopes", "bound")
    lower = jsonio.parse_rate(jsonio._require(env, "lower", "bound.envelopes"),
                              "bound.envelopes.lower")
    upper = jsonio.parse_rate(jsonio._require(env, "upper", "bound.envelopes"),
                              "bound.envelopes.upper")
    runs = _number(bcfg.get("runs", 100), "bound.runs", cast=int, low=1)
    x0_range = _number(bcfg.get("x0_range", 1.0), "bound.x0_range")
    u_bound = _number(bcfg.get("u_bound", 0.0), "bound.u_bound")
    patch_samples = _number(bcfg.get("patch_samples", 20), "bound.patch_samples", cast=int, low=1)
    r_list = _numbers(bcfg.get("r_list", [1.0]), "bound.r_list")
    for r in r_list:
        if not math.isfinite(cert.alpha2(r)):
            raise ConfigError(f"alpha2({r!r}) exceeds the floats", field="bound.r_list")
    s_grid = _numbers(bcfg.get("s_grid", np.linspace(0.0, sig.horizon - sig.t0, 51)),
                      "bound.s_grid")

    if not envelope_check(cert.phi, lower, upper):
        print("structural precondition failed: bound.envelopes do not enclose "
              "|phi_p| for every mode", file=sys.stderr)
        return EXIT_STRUCTURAL

    try:
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
                         ((r, s, b) for r in r_list
                          for s, b in zip(s_grid, bound.beta(r, s_grid).tolist())))

        total_violations, max_margin = _monte_carlo(model, sig, bound, runs, x0_range, u_bound,
                                                    step, seed)
    except (DegenerateGammaError, ImageNotFullError) as e:
        print(f"structural precondition failed: {e}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except NonFiniteError as e:  # a reachability or Monte-Carlo run blew up
        print(f"non-finite state: {e}", file=sys.stderr)
        return EXIT_NONFINITE
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
    model = jsonio.parse_model(jsonio._require(cfg, "system", "config"))
    lcfg = jsonio._require(cfg, "lmi", "config")
    partition = jsonio.parse_partition(jsonio._require(lcfg, "partition", "lmi"), "lmi.partition")
    dwell = jsonio.parse_dwell(jsonio._require(lcfg, "dwell", "lmi"), "lmi.dwell", model.A)
    q_set = jsonio.parse_mode_changes(jsonio._require(lcfg, "pairs", "lmi"), model.A)
    mode = lcfg.get("mode", "verify")

    if mode == "synth":
        budget = _number(lcfg.get("budget", 40), "lmi.budget", cast=int, low=1)
        result = synthesize(model, partition, q_set, dwell, budget=budget)
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
    elif mode == "verify":
        qc = jsonio.parse_quadratic_certificate(
            jsonio._require(lcfg, "certificate", "lmi"), model)
    else:
        raise ConfigError(f"unknown lmi mode {mode!r}", field="lmi.mode")

    flow = {}
    for p in sorted(model.A):
        ok, top = check_flow_lmi(model, qc, p)
        flow[p] = {"ok": bool(ok), "max_eig": top}
    jump = {}
    for pair in sorted(q_set.pairs):
        ok, top = check_jump_lmi(model, qc, pair)
        jump[f"{pair[0]}->{pair[1]}"] = {"ok": bool(ok), "max_eig": top}
    rates = [
        {"kind": r.kind, "where": r.mode, "lhs": r.lhs, "rhs": r.rhs, "margin": r.margin}
        for r in check_rate_conditions(qc, partition, dwell, q_set)
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
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        s = sub.add_parser(name)
        s.add_argument("--config", required=True)
        s.add_argument("--out", default=".")
        s.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        cfg = jsonio.load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        seed = args.seed
        if seed is None:
            seed = _number(cfg.get("seed", 0), "seed", cast=int)
        return _COMMANDS[args.command](cfg, out, seed)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except StepTooLargeError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

"""Seeded configs for the benchmark's four workloads.

Every config is built from the workload name and the seed alone, and the
exit code each invocation should return is fixed here, by how the config was
built, never by what the program prints:

* a true certificate (or a correctly labelled LMI system) expects 0;
* each workload except ``mc_bound`` also carries a planted false case that
  expects the code the README documents for it (3 violations, 5 infeasible).

The seed changes values, never sizes: K (switches), N (samples per
trajectory), R (simulated runs per invocation) and n (state dimension) are the
same for every seed, so run-to-run spread measures the machine, not the input.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field

import numpy as np

from isscert.switching import ModePartition, SwitchingSignal, mdadt_slack, mdalt_slack

WORKLOADS = ("mc_bound", "long_switching", "dense_trajectory", "lmi_synth")

# The two-mode scalar system, signal and certificate of acceptance criterion 9
# (the README example with four switches).
ACC9_SYSTEM = {
    "kind": "linear",
    "A": {"s": [[-1.25]], "u": [[0.4]]},
    "B": {"s": [[0.5]], "u": [[0.5]]},
    "J": {"s": [[0.1]], "u": [[0.1]]},
    "H": {"s": [[0.0]], "u": [[0.0]]},
}
ACC9_SIGNAL = {"t0": 0.0, "instants": [1.0, 1.25, 2.25, 2.5],
               "modes": ["s", "u", "s", "u", "s"], "horizon": 3.5}
TAU = {"s": 1.0, "u": 0.25}
ACC9_CERTIFICATE = {
    "V": {"s": {"kind": "quadratic", "M": [[1.0]]},
          "u": {"kind": "quadratic", "M": [[1.0]]}},
    "alpha1": {"kind": "power", "c": 1.0, "k": 2.0},
    "alpha2": {"kind": "power", "c": 1.0, "k": 2.0},
    "alpha3": {"kind": "power", "c": 1.0, "k": 2.0},
    "chi": {"kind": "power", "c": 32.0, "k": 2.0},
    "phi": {"s": {"kind": "linear", "eta": -1.0},
            "u": {"kind": "linear", "eta": 1.0}},
    "psi": {"s": {"kind": "linear", "eta": 0.01},
            "u": {"kind": "linear", "eta": 0.01}},
    "partition": {"stable": ["s"], "unstable": ["u"]},
    "dwell": {"tau": TAU, "delta": 0.2, "T_S": 1.0, "T_U": 0.25},
}

MC_RUNS = 20
MC_PATCH_SAMPLES = 2
LONG_SWITCHES = 40
LONG_STEP = 0.05
DENSE_STEP = 2e-4
LMI_SIZES = (4, 8, 16, 32)
LMI_TAU = {"s1": 1.0, "s2": 1.0, "u1": 0.25, "u2": 0.25}
# Jumps contract by this factor, so every jump factor mu stays far below 1
# and the leave-time condition of the unstable modes holds with margin.
LMI_JUMP_GAIN = 0.1


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``isscert <command> --config <label>.json``.

    ``derive`` names an earlier ``lmi`` synth invocation whose
    ``certificate.json`` becomes this invocation's ``verify`` config at run
    time; ``config`` is then the config without the certificate.
    """

    label: str
    command: str
    config: dict
    expect: int
    derive: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    invocations: tuple[Invocation, ...]
    sizes: dict
    # label -> (mdadt_slack, mdalt_slack) of the config's signal, computed
    # while the config was built.
    slacks: dict = field(default_factory=dict)


def build(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose one of {WORKLOADS}")
    return globals()[f"_{name}"](seed)


def samples_per_trajectory(signal: dict, step: float) -> int:
    """Trajectory rows the simulator produces: one per RK4 step plus the
    start sample of each of the K + 1 segments."""
    bounds = [signal["t0"], *signal["instants"], signal["horizon"]]
    steps = sum(max(1, math.ceil((b - a) / step - 1e-12)) for a, b in zip(bounds, bounds[1:]))
    return steps + len(bounds) - 1


def _slacks(signal: dict) -> tuple[float, float]:
    sig = SwitchingSignal(signal["t0"], signal["instants"], signal["modes"], signal["horizon"])
    part = ModePartition(frozenset({"s"}), frozenset({"u"}))
    return mdadt_slack(sig, part, TAU), mdalt_slack(sig, part, TAU)


def _mc_bound(seed: int) -> Workload:
    # The certificate is true, so there is no planted case; the seed drives
    # the Monte-Carlo initial states and inputs through the CLI's --seed.
    cfg = {
        "system": ACC9_SYSTEM, "signal": ACC9_SIGNAL, "x0": [2.0], "step": 1e-3,
        "input": {"kind": "sinusoid", "amplitude": [0.5], "omega": 2.0},
        "certificate": ACC9_CERTIFICATE,
        "bound": {"envelopes": {"lower": {"kind": "linear", "eta": 1.0},
                                "upper": {"kind": "linear", "eta": 1.0}},
                  "runs": MC_RUNS, "x0_range": 2.0, "u_bound": 1.0,
                  "patch_samples": MC_PATCH_SAMPLES},
        "seed": seed,
    }
    return Workload(
        "mc_bound", seed, (Invocation("bound", "bound", cfg, 0),),
        {"K": len(ACC9_SIGNAL["instants"]), "N": samples_per_trajectory(ACC9_SIGNAL, 1e-3),
         "R": MC_RUNS + 3 * MC_PATCH_SAMPLES, "n": 1},
        {"bound": _slacks(ACC9_SIGNAL)})


def _alternating_signal(rng, switches: int) -> dict:
    # Dwell and leave durations are dyadic, so instants add up exactly and
    # every seed gives the same RK4 step count; the seed only shuffles them.
    # The first dwell is always the short one (0.75 < tau_s), so every seed
    # meets the same verdicts, the known disagreement of run.py included.
    n_s = switches // 2 + 1
    n_u = switches + 1 - n_s
    s_durs = [0.75, *rng.permutation(np.resize([0.75, 1.0, 1.0, 1.25], n_s)[1:])]
    u_durs = rng.permutation(np.resize([0.125, 0.25], n_u))
    durations = [float(d) for pair in zip(s_durs, [*u_durs, None]) for d in pair
                 if d is not None]
    instants = list(np.cumsum(durations)[:-1].tolist())
    modes = ["s" if i % 2 == 0 else "u" for i in range(switches + 1)]
    return {"t0": 0.0, "instants": instants, "modes": modes, "horizon": float(sum(durations))}


def _long_switching(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    signal = _alternating_signal(rng, LONG_SWITCHES)
    slack_s, slack_u = _slacks(signal)
    base = {"system": ACC9_SYSTEM, "signal": signal, "x0": [2.0], "step": LONG_STEP,
            "input": {"kind": "zero"}}
    true_cert = copy.deepcopy(ACC9_CERTIFICATE)
    true_cert["dwell"].update(T_S=slack_s, T_U=slack_u)
    # Planted: the declared T_S is half the signal's own dwell slack.
    false_cert = copy.deepcopy(true_cert)
    false_cert["dwell"]["T_S"] = slack_s / 2
    true_cfg = {**base, "certificate": true_cert}
    false_cfg = {**base, "certificate": false_cert}
    invocations = (Invocation("certify", "certify", true_cfg, 0),
                   Invocation("construct", "construct", true_cfg, 0),
                   Invocation("certify_short_T_S", "certify", false_cfg, 3),
                   Invocation("construct_short_T_S", "construct", false_cfg, 3))
    return Workload(
        "long_switching", seed, invocations,
        {"K": LONG_SWITCHES, "N": samples_per_trajectory(signal, LONG_STEP), "R": 1, "n": 1},
        {inv.label: (slack_s, slack_u) for inv in invocations})


def _dense_trajectory(seed: int) -> Workload:
    # Zero input makes chi(0) = 0, so every sample is checked; the seed picks
    # the sign and a +-10% magnitude of x0 = 2.
    rng = np.random.default_rng(seed)
    x0 = float(rng.choice([-1.0, 1.0]) * rng.uniform(1.8, 2.2))
    base = {"system": ACC9_SYSTEM, "signal": ACC9_SIGNAL, "x0": [x0], "step": DENSE_STEP,
            "input": {"kind": "zero"}}
    implication = {**base, "certificate": ACC9_CERTIFICATE}
    dissipation = {**base, "certificate": {**ACC9_CERTIFICATE, "form": "dissipation"}}
    # Planted: phi_s claims decay at rate 3 while mode s decays V at 2.5.
    false_cert = copy.deepcopy(ACC9_CERTIFICATE)
    false_cert["phi"]["s"]["eta"] = -3.0
    invocations = (
        Invocation("simulate", "simulate", base, 0),
        Invocation("certify_implication", "certify", implication, 0),
        Invocation("certify_dissipation", "certify", dissipation, 0),
        Invocation("construct", "construct", implication, 0),
        Invocation("certify_fast_phi_s", "certify", {**base, "certificate": false_cert}, 3))
    slacks = _slacks(ACC9_SIGNAL)
    return Workload(
        "dense_trajectory", seed, invocations,
        {"K": len(ACC9_SIGNAL["instants"]), "N": samples_per_trajectory(ACC9_SIGNAL, DENSE_STEP),
         "R": 1, "n": 1},
        {inv.label: slacks for inv in invocations if "certificate" in inv.config})


def _orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _lmi_system(rng, n: int) -> tuple[dict, dict]:
    """Two Hurwitz and two unstable modes; returns (system, planted system).

    Stable modes have a negative definite symmetric part (eigenvalues in
    [-2, -0.5]) plus a bounded skew part, which makes them Hurwitz. Unstable
    modes are symmetric with one eigenvalue in [0.2, 0.5]. The planted system
    shifts mode s2 by 2.5 I, which makes its symmetric part positive definite,
    so s2 is declared stable but is not Hurwitz.
    """
    A, B, J, H = {}, {}, {}, {}
    for p in ("s1", "s2", "u1", "u2"):
        Q = _orthogonal(rng, n)
        if p.startswith("s"):
            lam = rng.uniform(-2.0, -0.5, n)
            S = rng.standard_normal((n, n))
            S = (S - S.T) / 2
            S *= 0.5 / max(np.linalg.norm(S, 2), 1e-12)
            A[p] = Q @ np.diag(lam) @ Q.T + S
        else:
            lam = rng.uniform(-1.0, 0.5, n)
            lam[0] = rng.uniform(0.2, 0.5)
            A[p] = Q @ np.diag(lam) @ Q.T
        b = rng.standard_normal((n, 1))
        B[p] = b / np.linalg.norm(b)
        J[p] = LMI_JUMP_GAIN * _orthogonal(rng, n)
        H[p] = np.zeros((n, 1))
    system = {"kind": "linear", **{k: {p: m.tolist() for p, m in d.items()}
                                   for k, d in (("A", A), ("B", B), ("J", J), ("H", H))}}
    planted = copy.deepcopy(system)
    planted["A"]["s2"] = (A["s2"] + 2.5 * np.eye(n)).tolist()
    return system, planted


def _lmi_synth(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    modes = ("s1", "s2", "u1", "u2")
    lmi = {"partition": {"stable": ["s1", "s2"], "unstable": ["u1", "u2"]},
           "dwell": {"tau": LMI_TAU, "delta": 0.2},
           "pairs": [[p, q] for p in modes for q in modes if p != q]}
    invocations = []
    for n in LMI_SIZES:
        system, planted = _lmi_system(rng, n)
        invocations += [
            Invocation(f"synth_n{n}", "lmi", {"system": system, "lmi": {**lmi, "mode": "synth"}}, 0),
            Invocation(f"verify_n{n}", "lmi", {"system": system, "lmi": {**lmi, "mode": "verify"}},
                       0, derive=f"synth_n{n}"),
            Invocation(f"synth_unstable_s2_n{n}", "lmi",
                       {"system": planted, "lmi": {**lmi, "mode": "synth"}}, 5),
        ]
    return Workload("lmi_synth", seed, tuple(invocations),
                    {"K": 0, "N": 0, "R": 0, "n": list(LMI_SIZES)})


def config_bytes(inv: Invocation) -> bytes:
    return json.dumps(inv.config, sort_keys=True).encode()


def self_check(name: str, seed: int) -> list[str]:
    """Problems with the generator itself; an empty list means it is sound.

    * the same seed gives byte-identical configs;
    * another seed gives the same sizes, invocations and expected codes;
    * every true-certificate config declares T_S >= mdadt_slack and
      T_U >= mdalt_slack, with both slacks computed at build time, and every
      planted short-T_S config declares T_S below mdadt_slack.
    """
    first, again, other = build(name, seed), build(name, seed), build(name, seed + 1)
    problems = []
    if [config_bytes(i) for i in first.invocations] != [config_bytes(i) for i in again.invocations]:
        problems.append("same seed gave different config bytes")

    def shape(w):
        return w.sizes, [(i.label, i.command, i.expect, i.derive) for i in w.invocations]

    if shape(first) != shape(other):
        problems.append(f"seed {seed + 1} changed sizes or invocations")
    for inv in first.invocations:
        if "certificate" not in inv.config:
            continue
        if inv.label not in first.slacks:
            problems.append(f"{inv.label}: slacks not computed at build time")
            continue
        slack_s, slack_u = first.slacks[inv.label]
        dwell = inv.config["certificate"]["dwell"]
        if inv.label.endswith("short_T_S"):
            if not dwell["T_S"] < slack_s:
                problems.append(f"{inv.label}: planted T_S is not below mdadt_slack={slack_s}")
        elif inv.expect == 0 and not (dwell["T_S"] >= slack_s and dwell["T_U"] >= slack_u):
            problems.append(f"{inv.label}: T_S/T_U below the signal's slack")
    return problems

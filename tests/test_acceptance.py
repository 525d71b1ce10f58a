"""End-to-end acceptance gate.

Each test exercises one of the nine acceptance criteria at its stated
tolerance and prints a single ``[ACCEPTANCE n] PASS/FAIL`` line.
"""

import json
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

import isscert as iss

from conftest import JUMP_KINDS, jumps, make_family_model, make_family_signal, of_kind


_CAPTURE = None


@pytest.fixture(autouse=True)
def _expose_capture(capfd):
    # Lets _verdict suspend output capture so the verdict line shows up in
    # the run log even without -s.
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _verdict(n: int, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    with _CAPTURE.disabled():
        print(f"[ACCEPTANCE {n}] {status}{suffix}", flush=True)
    assert ok, f"acceptance criterion {n} failed{suffix}"


# --------------------------------------------------------------------------
# The two-mode scalar family used by criteria 3 and 4: stable mode with
# declared rate -2v, unstable mode with +v, both jumping x -> 0.1 x, on the
# alternating 1.0 s / 0.25 s signal.  All dwell constants hold by design.

def acceptance_certificate(sig):
    partition = iss.ModePartition(frozenset({"s"}), frozenset({"u"}))
    tau = {"s": 1.0, "u": 0.25}
    dwell = iss.DwellSpec(
        tau, 0.2,
        T_S=iss.mdadt_slack(sig, partition, tau),
        T_U=iss.mdalt_slack(sig, partition, tau),
    )
    v = iss.quadratic_v([[1.0]])
    return iss.Certificate(
        V={"s": v, "u": v},
        alpha1=iss.power_cf(1.0, 2.0),
        alpha2=iss.power_cf(1.0, 2.0),
        alpha3=iss.power_cf(1.0, 2.0),
        chi=iss.power_cf(32.0, 2.0),
        phi={"s": iss.linear_rate(-2.0), "u": iss.linear_rate(1.0)},
        psi={"s": iss.linear_rate(0.01), "u": iss.linear_rate(0.01)},
        partition=partition,
        dwell=dwell,
    )


def family_runs(rng, n_runs, x0_range, amp_range, step=2e-3):
    sig = make_family_signal()
    model = make_family_model()
    runs = []
    for _ in range(n_runs):
        x0 = np.array([rng.uniform(-x0_range, x0_range)])
        amp = rng.uniform(*amp_range)
        if rng.uniform() < 0.4:
            inp = iss.constant_input([amp])
        elif rng.uniform() < 0.7:
            inp = iss.sinusoid_input([amp], omega=rng.uniform(0.5, 5.0),
                                     phase=rng.uniform(0, 2 * math.pi))
        else:
            inp = iss.step_input([amp], [-amp], rng.uniform(0.5, 4.5))
        traj = iss.simulate(model, sig, x0, inp, step)
        runs.append((x0, inp, traj))
    return sig, runs


def test_acceptance_1_counters():
    """Counter suprema match dense brute-force enumeration."""
    rng = np.random.default_rng(101)
    cell = 1e-3
    ok = True
    detail = ""
    for trial in range(200):
        n = int(rng.integers(0, 21))
        gaps = rng.uniform(0.05, 0.4, n + 1)
        instants = np.cumsum(gaps)[:-1]
        horizon = float(np.sum(gaps))
        mode_names = ["a", "b", "c"]
        modes = tuple(mode_names[i] for i in rng.integers(0, 3, n + 1))
        sig = iss.SwitchingSignal(0.0, tuple(map(float, instants)), modes, horizon)
        part = iss.ModePartition(frozenset({"a"}), frozenset({"b"}))
        tau = {"a": 0.4, "b": 0.3, "c": 0.2}

        grid = np.unique(np.concatenate([
            np.arange(0.0, horizon + cell / 2, cell), instants, [horizon]]))

        def cumulative(mode_set, sign):
            f = np.zeros(len(grid))
            for p in mode_set & sig.mode_set:
                counts = np.zeros(len(grid))
                for t, m in sig.events():
                    if m == p:
                        counts += (grid >= t - 1e-15)
                t_active = np.zeros(len(grid))
                for a, b, m in sig.segments():
                    if m == p:
                        t_active += np.clip(grid, a, b) - a
                f += sign * (counts * tau[p] - t_active)
            run_min = np.minimum.accumulate(f)
            return max(0.0, float(np.max(f - run_min)))

        exact_s = iss.mdadt_slack(sig, part, tau)
        exact_u = iss.mdalt_slack(sig, part, tau)
        brute_s = cumulative(part.stable, +1)
        brute_u = cumulative(part.unstable, -1)
        for exact, brute, tag in ((exact_s, brute_s, "mdadt"),
                                  (exact_u, brute_u, "mdalt")):
            if not (brute <= exact + 1e-9 and exact <= brute + cell + 1e-9):
                ok = False
                detail = f"trial {trial}: {tag} exact={exact} brute={brute}"

        # Spot-check the raw counters against direct enumeration.
        s1, s2 = sorted(rng.uniform(0.0, horizon, 2))
        p = mode_names[int(rng.integers(0, 3))]
        n_ref = sum(1 for t, m in sig.events() if m == p and s1 < t <= s2)
        t_ref = sum(max(0.0, min(b, s2) - max(a, s1))
                    for a, b, m in sig.segments() if m == p)
        if iss.activation_count(sig, p, s1, s2) != n_ref:
            ok, detail = False, f"trial {trial}: activation_count"
        if abs(iss.active_time(sig, p, s1, s2) - t_ref) > 1e-12:
            ok, detail = False, f"trial {trial}: active_time"
    _verdict(1, ok, detail)


def test_acceptance_2_transform():
    """Quadrature transform matches closed forms and round-trips."""
    rng = np.random.default_rng(102)
    ok = True
    detail = ""
    for i in range(500):
        eta = rng.uniform(0.1, 10.0) * (1 if rng.uniform() < 0.5 else -1)
        v = float(10.0 ** rng.uniform(-2, 2))
        pts = [(s, eta * s) for s in np.logspace(-6, 6, 25)]
        t = iss.PhiTransform(iss.tabulated_rate(pts))
        got = t.value(v)
        want = math.log(v) / abs(eta)
        if abs(got - want) > 1e-9:
            ok, detail = False, f"linear point {i}: |{got} - {want}|"
            break
    if ok:
        t2 = iss.PhiTransform(iss.power_rate(1.0, 2.0))
        for i in range(500):
            v = float(10.0 ** rng.uniform(-2, 2))
            got = t2.value(v)
            want = 1.0 - 1.0 / v
            if abs(got - want) > 1e-9:
                ok, detail = False, f"power point {i}: |{got} - {want}|"
                break
            back = t2.inverse(got)
            if abs(back - v) > 1e-8 * max(1.0, abs(v)):
                ok, detail = False, f"round-trip {i}: {back} vs {v}"
                break
    _verdict(2, ok, detail)


@pytest.fixture(scope="module")
def seeded_family_runs():
    rng = np.random.default_rng(103)
    return family_runs(rng, 100, x0_range=10.0, amp_range=(0.2, 1.0))


def test_acceptance_3_iss_bound(seeded_family_runs):
    """Assembled transient/gain estimate holds on 100 seeded simulations."""
    sig, runs = seeded_family_runs
    cert = acceptance_certificate(sig)
    bound = iss.build_bound(cert, cert.dwell, iss.linear_rate(1.0),
                            iss.linear_rate(2.0))
    total = 0
    for x0, inp, traj in runs:
        total += len(iss.iss_check(bound, traj, x0, inp)[0])
    _verdict(3, total == 0, f"{total} sample violations")


def test_acceptance_4_decreasing_function(seeded_family_runs):
    """Constructed W stays in range, below V, and decreases on 100 runs."""
    sig, runs = seeded_family_runs
    cert = acceptance_certificate(sig)
    dec = iss.build_decreasing(cert, sig, a_grid=[1.0, 10.0, 100.0, 1e4])
    lo = dec.h_bound()
    ok = True
    detail = ""
    for t in np.linspace(sig.t0, sig.horizon, 500):
        h = dec.h(float(t))
        if not (lo - 1e-9 <= h <= 0.0):
            ok, detail = False, f"h({t}) = {h} outside [{lo}, 0]"
    instants = set(sig.instants)
    total = 0
    for x0, inp, traj in runs:
        total += len(iss.decrease_check(dec, traj, inp)[0])
        if ok:
            times, states, modes, _ = traj.samples
            for t, mode, x in list(zip(times.tolist(), modes.tolist(), states))[::25]:
                if t in instants:
                    continue
                v = float(cert.V[mode](t, x))
                if dec.w(t, x) > v * (1 + 1e-9) + 1e-12:
                    ok, detail = False, f"W > V at t={t}"
                    break
    ok = ok and total == 0
    _verdict(4, ok, detail or f"{total} monotonicity violations")


def test_acceptance_5_form_conversion():
    """Dissipation-form certificates convert to passing implication form."""
    rng = np.random.default_rng(105)
    ok = True
    detail = ""
    checked = 0
    for trial in range(100):
        a = rng.uniform(-3.0, -0.6)
        b = rng.uniform(0.1, 1.0) * (1 if rng.uniform() < 0.5 else -1)
        j = rng.uniform(0.2, 0.95)
        tau = rng.uniform(0.3, 1.5)
        delta = rng.uniform(0.1, 0.8)
        eta_t = 2 * a + 1.0  # dV/dt = 2aV + 2xbu <= (2a+1)V + b^2 u^2
        model = iss.LinearSystemModel(
            A={"a": [[a]]}, B={"a": [[b]]}, J={"a": [[j]]}, H={"a": [[0.0]]}
        ).to_system_model()
        base = iss.Certificate(
            V={"a": iss.quadratic_v([[1.0]])},
            alpha1=iss.power_cf(1.0, 2.0),
            alpha2=iss.power_cf(1.0, 2.0),
            alpha3=iss.power_cf(1.0, 2.0),
            chi=iss.power_cf(b * b, 2.0),
            phi={"a": iss.linear_rate(eta_t)},
            psi={"a": iss.linear_rate(j * j)},
            partition=iss.ModePartition(frozenset({"a"}), frozenset()),
            dwell=iss.DwellSpec({"a": tau}, delta),
        )
        conv = iss.dissipation_to_implication(base)
        # Post-jump values below the gate must clear alpha3; the gate level
        # itself is a valid (and tight) choice.
        conv = replace(conv, alpha3=conv.chi)

        n_sw = int(rng.integers(0, 4))
        gaps = rng.uniform(max(tau, 0.3), 2.0, n_sw + 1)
        instants = tuple(map(float, np.cumsum(gaps)[:-1]))
        sig = iss.SwitchingSignal(0.0, instants, ("a",) * (n_sw + 1),
                                  float(np.sum(gaps)))
        amp = rng.uniform(0.0, 1.0)
        inp = (iss.constant_input([amp]) if rng.uniform() < 0.5
               else iss.sinusoid_input([amp], omega=rng.uniform(0.5, 4.0)))
        x0 = [rng.uniform(-5.0, 5.0)]
        traj = iss.simulate(model, sig, x0, inp, 1e-3)

        if of_kind(iss.check_trajectory(base, traj, inp, "dissipation"), "flow", "jump"):
            continue  # criterion only binds where the original passes
        checked += 1
        reports = iss.check_trajectory(conv, traj, inp)
        flow = of_kind(reports, "flow")
        jump = of_kind(reports, *JUMP_KINDS)
        if flow or jump:
            ok = False
            detail = f"trial {trial}: {len(flow)} flow / {len(jump)} jump"
            break
        # Converted dwell margin at delta' = delta / 2, evaluated directly.
        first, second = iss.closed_form_dwell(
            conv.phi["a"].eta, conv.phi["a"].eta, abs(conv.psi["a"].eta),
            tau, conv.dwell.delta, stable=True)
        if first > second + 1e-9:
            ok, detail = False, f"trial {trial}: dwell margin {first} > {second}"
            break
    ok = ok and checked >= 80  # the construction passes by design
    _verdict(5, ok, detail or f"{checked} cases checked")


def test_acceptance_6_lmi_chain():
    """Eigenvalue tests, trajectory dissipation, and scalar synthesis."""
    rng = np.random.default_rng(106)
    ok = True
    detail = ""
    # Jacobi eigenvalues vs characteristic-polynomial roots.
    for i in range(1000):
        n = 2 if i % 2 == 0 else 3
        S = rng.uniform(-5, 5, (n, n))
        S = (S + S.T) / 2
        mine = iss.eigenvalues(S)
        ref = np.sort(np.real(np.roots(np.poly(S))))
        if not np.allclose(mine, ref, atol=1e-8):
            ok, detail = False, f"eigen instance {i}"
            break

    if ok:
        # Certificates passing the blocks bound trajectories pointwise.
        model = make_family_model()
        part = iss.ModePartition(frozenset({"s"}), frozenset({"u"}))
        dwell = iss.DwellSpec({"s": 1.0, "u": 0.25}, 0.2)
        qs = iss.ModeChangeSet(frozenset({("u", "s"), ("s", "u")}))
        qc = iss.synthesize(model, part, qs, dwell)
        if isinstance(qc, iss.Infeasible):
            ok, detail = False, "family synthesis infeasible"
    if ok:
        sig = make_family_signal()
        inp = iss.sinusoid_input([0.8], omega=1.3)
        traj = iss.simulate(model.to_system_model(), sig, [3.0], inp, 1e-3)
        for seg in traj.segments:
            M, Q, eta = qc.M[seg.mode], qc.Q[seg.mode], qc.eta[seg.mode]
            vs = np.einsum("ij,jk,ik->i", seg.states, M, seg.states)
            ts = seg.times
            for i in range(len(ts) - 1):
                h = float(ts[i + 1] - ts[i])
                if h <= 0:
                    continue
                u = inp(float(ts[i]))
                if (vs[i + 1] - vs[i]) / h > eta * vs[i] + float(u @ Q @ u) + 10 * h:
                    ok, detail = False, f"flow dissipation at t={ts[i]}"
                    break
            if not ok:
                break
        if ok:
            for t, q, p, pre, post in jumps(traj):
                v_pre = float(pre @ qc.M[q] @ pre)
                v_post = float(post @ qc.M[p] @ post)
                u = inp(t - traj.step / 2)  # the input the jump map saw
                if v_post > qc.mu[q] * v_pre + float(u @ qc.Q[q] @ u) + 1e-9:
                    ok, detail = False, f"jump dissipation at t={t}"
                    break
    if ok:
        scalar = iss.LinearSystemModel(
            A={"a": [[-1.0]]}, B={"a": [[1.0]]}, J={"a": [[0.5]]}, H={"a": [[0.0]]})
        part1 = iss.ModePartition(frozenset({"a"}), frozenset())
        qs1 = iss.ModeChangeSet(frozenset({("a", "a")}))
        dwell1 = iss.DwellSpec({"a": 1.0}, 0.2)
        res = iss.synthesize(scalar, part1, qs1, dwell1)
        if isinstance(res, iss.Infeasible):
            ok, detail = False, "scalar synthesis infeasible"
        else:
            flow, jump = iss.check_blocks(scalar, res, qs1)
            ok = (flow["a"][0] and jump[("a", "a")][0]
                  and not iss.check_rate_conditions(res, part1, dwell1, qs1))
            if not ok:
                detail = "scalar certificate fails a check"
    _verdict(6, ok, detail)


def test_acceptance_7_decreasing_dwell_free():
    """Decreasing certificates satisfy the dwell inequality at any level."""
    rng = np.random.default_rng(107)
    ok = True
    detail = ""
    sig = iss.SwitchingSignal(0.0, (1.0, 2.0, 3.0), ("a", "b", "a", "b"), 4.0)
    for trial in range(50):
        if rng.uniform() < 0.5:
            c = rng.uniform(0.2, 5.0)
            common = iss.linear_rate(-c)
        else:
            c = rng.uniform(0.2, 5.0)
            common = iss.power_rate(-c, 2.0)
        psi = {p: iss.linear_rate(rng.uniform(0.05, 1.0)) for p in ("a", "b")}
        cert = iss.Certificate(
            V={p: iss.quadratic_v([[1.0]]) for p in ("a", "b")},
            alpha1=iss.power_cf(1.0, 2.0),
            alpha2=iss.power_cf(1.0, 2.0),
            alpha3=iss.power_cf(1.0, 2.0),
            chi=iss.power_cf(1.0, 2.0),
            phi={"a": common, "b": common},
            psi=psi,
            partition=iss.ModePartition(frozenset({"a", "b"}), frozenset()),
            dwell=iss.DwellSpec({"a": 1e-12, "b": 1e-12}, 0.5),
        )
        if not iss.check_decreasing_certificate(cert):
            ok, detail = False, f"trial {trial}: decreasing check refused"
            break
        reports = iss.check_dwell_conditions(cert, sig, [0.01, 0.1, 1.0, 10.0, 1e3])
        reports = reports[reports.kind != "dwell-inconclusive"]
        if reports:
            ok, detail = False, f"trial {trial}: {reports.rows()[0]}"
            break
    _verdict(7, ok, detail)


def test_acceptance_8_simulator_convergence():
    """Fixed-step integrator shows 4th-order behavior and matches expm."""
    A = np.array([[0.0, 1.0], [-4.0, -0.4]])
    model = iss.LinearSystemModel(
        A={"a": A}, B={"a": [[0.0], [1.0]]},
        J={"a": 0.5 * np.eye(2)}, H={"a": [[0.0], [0.0]]},
    ).to_system_model()
    sig = iss.SwitchingSignal(0.0, (), ("a",), 1.0)
    x0 = np.array([1.0, 0.0])
    exact = expm(A) @ x0

    def err(step):
        traj = iss.simulate(model, sig, x0, iss.zero_input(), step)
        return float(np.linalg.norm(traj.final_state() - exact))

    ratio = err(0.05) / err(0.025)
    ok = 8.0 <= ratio <= 32.0
    detail = f"halving factor {ratio:.2f}"

    # Switched run against the composed matrix-exponential oracle.
    sig2 = iss.SwitchingSignal(0.0, (0.4, 0.8), ("a", "a", "a"), 1.2)
    traj = iss.simulate(model, sig2, x0, iss.zero_input(), 1e-3)
    oracle = expm(0.4 * A) @ (0.5 * np.eye(2)) @ expm(0.4 * A) \
        @ (0.5 * np.eye(2)) @ expm(0.4 * A) @ x0
    rel = float(np.linalg.norm(traj.final_state() - oracle)
                / np.linalg.norm(oracle))
    if rel > 1e-6:
        ok, detail = False, f"oracle mismatch {rel:.2e}"
    _verdict(8, ok, detail)


def test_acceptance_9_cli_determinism(tmp_path):
    """Identical config and seed produce byte-identical outputs."""
    system = {
        "kind": "linear",
        "A": {"s": [[-1.25]], "u": [[0.4]]},
        "B": {"s": [[0.5]], "u": [[0.5]]},
        "J": {"s": [[0.1]], "u": [[0.1]]},
        "H": {"s": [[0.0]], "u": [[0.0]]},
    }
    signal = {"t0": 0.0, "instants": [1.0, 1.25, 2.25, 2.5],
              "modes": ["s", "u", "s", "u", "s"], "horizon": 3.5}
    certificate = {
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
        "dwell": {"tau": {"s": 1.0, "u": 0.25}, "delta": 0.2,
                  "T_S": 1.0, "T_U": 0.25},
    }
    base = {"system": system, "signal": signal, "x0": [2.0], "step": 1e-3,
            "input": {"kind": "sinusoid", "amplitude": [0.5], "omega": 2.0}}
    configs = {
        "simulate": base,
        "certify": {**base, "certificate": certificate},
        "construct": {**base, "certificate": certificate,
                      "dwell_a_grid": [1.0, 100.0]},
        "bound": {**base, "certificate": certificate,
                  "bound": {"envelopes": {"lower": {"kind": "linear", "eta": 1.0},
                                          "upper": {"kind": "linear", "eta": 1.0}},
                            "runs": 3, "x0_range": 2.0, "u_bound": 1.0,
                            "patch_samples": 3}},
        "lmi": {"system": system,
                "lmi": {"partition": {"stable": ["s"], "unstable": ["u"]},
                        "dwell": {"tau": {"s": 1.0, "u": 0.25}, "delta": 0.2},
                        "pairs": [["u", "s"], ["s", "u"]],
                        "mode": "synth"}},
    }
    ok = True
    detail = ""
    for command, cfg in configs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        outputs = []
        for run_idx in (1, 2):
            out_dir = tmp_path / f"{command}-{run_idx}"
            proc = subprocess.run(
                [sys.executable, "-m", "isscert.cli", command,
                 "--config", str(cfg_path), "--out", str(out_dir),
                 "--seed", "42"],
                capture_output=True,
            )
            if proc.returncode != 0:
                ok = False
                detail = f"{command} exit {proc.returncode}: {proc.stderr[:120]}"
                break
            outputs.append({f.name: f.read_bytes()
                            for f in sorted(out_dir.iterdir())})
        if not ok:
            break
        if outputs[0] != outputs[1]:
            ok, detail = False, f"{command} outputs differ"
            break
    _verdict(9, ok, detail)

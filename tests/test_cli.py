import copy
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import oracles
from isscert import cli, jsonio
from isscert.cli import main
from isscert.errors import NonFiniteError
from isscert.simulate import simulate, zero_input


def family_system():
    return {
        "kind": "linear",
        "A": {"s": [[-1.25]], "u": [[0.4]]},
        "B": {"s": [[0.5]], "u": [[0.5]]},
        "J": {"s": [[0.1]], "u": [[0.1]]},
        "H": {"s": [[0.0]], "u": [[0.0]]},
    }


def family_signal_json():
    return {
        "t0": 0.0,
        "instants": [1.0, 1.25, 2.25, 2.5, 3.5, 3.75, 4.75],
        "modes": ["s", "u", "s", "u", "s", "u", "s", "u"],
        "horizon": 5.0,
    }


def family_certificate_json():
    return {
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


def base_config():
    return {
        "system": family_system(),
        "signal": family_signal_json(),
        "x0": [2.0],
        "step": 1e-3,
    }


def acceptance9_config():
    cfg = base_config()
    cfg["signal"] = {"t0": 0.0, "instants": [1.0, 1.25, 2.25, 2.5],
                     "modes": ["s", "u", "s", "u", "s"], "horizon": 3.5}
    cfg["certificate"] = family_certificate_json()
    cfg["dwell_a_grid"] = [1.0, 100.0]
    cfg["step"] = 2e-4
    return cfg


def run(tmp_path, command, cfg, name="cfg.json", seed=None):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    out = tmp_path / f"out-{command}-{name}"
    argv = [command, "--config", str(path), "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return main(argv), out


class TestSimulate:
    def test_ok(self, tmp_path):
        code, out = run(tmp_path, "simulate", base_config())
        assert code == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,mode,x1,jump_flag"
        flagged = [l for l in lines[1:] if l.endswith(",1")]
        assert len(flagged) == 7  # one post-jump row per switching instant

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 1

    def test_missing_key(self, tmp_path):
        cfg = base_config()
        del cfg["x0"]
        code, _ = run(tmp_path, "simulate", cfg)
        assert code == 1

    def test_step_too_large(self, tmp_path):
        cfg = base_config()
        cfg["step"] = 0.5  # exceeds the 0.25 inter-switch gap
        code, _ = run(tmp_path, "simulate", cfg)
        assert code == 1

    def test_blow_up_partial_csv(self, tmp_path):
        cfg = base_config()
        cfg["system"] = {
            "kind": "linear",
            "A": {"a": [[50.0]]}, "B": {"a": [[0.0]]},
            "J": {"a": [[1.0]]}, "H": {"a": [[0.0]]},
        }
        cfg["signal"] = {"t0": 0.0, "instants": [], "modes": ["a"], "horizon": 1.0}
        code, out = run(tmp_path, "simulate", cfg)
        assert code == 2
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert len(lines) > 2  # partial trajectory flushed before the failure

    def test_blow_up_partial_matches_generic_loop(self, tmp_path):
        # x' = 30 x crosses the 1e12 limit near t = 0.92; the CSV holds the
        # same partial trajectory the generic RK4 loop stops with.
        system = {"kind": "linear", "A": {"a": [[30.0]]}, "B": {"a": [[1.0]]},
                  "J": {"a": [[1.0]]}, "H": {"a": [[0.0]]}}
        cfg = {"system": system, "x0": [1.0], "step": 1e-3,
               "signal": {"t0": 0.0, "instants": [], "modes": ["a"], "horizon": 2.0}}
        code, out = run(tmp_path, "simulate", cfg)
        assert code == 2
        model = jsonio.parse_model(system).to_system_model()
        with pytest.raises(NonFiniteError) as exc:
            simulate(model, jsonio.parse_signal(cfg["signal"]), [1.0],
                     zero_input(), 1e-3)
        ref = exc.value.partial
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 1 + len(ref.samples[0])
        assert lines[-1].split(",")[0] == f"{ref.horizon:.17g}"


class TestCertify:
    def test_ok(self, tmp_path):
        cfg = base_config()
        cfg["certificate"] = family_certificate_json()
        code, out = run(tmp_path, "certify", cfg)
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["violations"] == 0
        assert summary["mdadt_ok"] and summary["mdalt_ok"]
        assert (out / "reports.csv").read_text().splitlines()[0] == \
            "kind,time,mode,lhs,rhs,margin"

    def test_violations(self, tmp_path):
        cfg = base_config()
        cert = family_certificate_json()
        cert["phi"]["s"] = {"kind": "linear", "eta": -10.0}  # faster than true decay
        cfg["certificate"] = cert
        code, out = run(tmp_path, "certify", cfg)
        assert code == 3
        body = (out / "reports.csv").read_text()
        assert "flow" in body

    def test_readme_config_counts_the_flow_samples(self, tmp_path):
        # chi(0.5) = 32 * 0.25 = 8 while V = x^2 <= 4: the threshold skips
        # every forward difference, and summary.json says so.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        cfg = json.loads(re.search(r"### Config sketch\s+```json\n(.*?)```", readme, re.S)[1])
        code, out = run(tmp_path, "certify", cfg)
        summary = json.loads((out / "summary.json").read_text())
        model, sig, inp, x0, step = jsonio.parse_run(cfg)
        traj = simulate(model, sig, x0, inp, step)
        assert code == 0 and summary["flow_evaluated"] == 0
        assert summary["flow_skipped"] == len(traj.samples[0]) - len(traj.segments) > 0


class TestConstruct:
    def test_ok(self, tmp_path):
        cfg = base_config()
        cfg["certificate"] = family_certificate_json()
        cfg["dwell_a_grid"] = [1.0, 100.0, 1e4]
        code, out = run(tmp_path, "construct", cfg)
        assert code == 0
        lines = (out / "construct.csv").read_text().splitlines()
        assert lines[0] == "t,V,W,h"
        assert len(lines) > 5000

    def test_pre_jump_left_limit(self, tmp_path):
        # Acceptance-9 signal and certificate, zero input, fine step: a true
        # certificate, so no report (the last sample before t = 2.25 takes
        # the left limit of h).
        code, out = run(tmp_path, "construct", acceptance9_config())
        assert code == 0
        assert (out / "reports.csv").read_text().splitlines() == [
            "kind,time,mode,lhs,rhs,margin"]

    def test_rows_match_trajectory(self, tmp_path):
        cfg = acceptance9_config()
        cfg["step"] = 1e-2
        code, sim_out = run(tmp_path, "simulate", cfg)
        assert code == 0
        code, out = run(tmp_path, "construct", cfg)
        assert code == 0
        traj = (sim_out / "trajectory.csv").read_text().splitlines()[1:]
        rows = (out / "construct.csv").read_text().splitlines()[1:]
        assert len(rows) == len(traj)
        assert [r.split(",")[0] for r in rows] == [r.split(",")[0] for r in traj]
        # Jump rows repeat the instant of the row before them.
        jumps = [i for i, r in enumerate(traj) if r.endswith(",1")]
        repeats = [i for i in range(1, len(rows))
                   if rows[i].split(",")[0] == rows[i - 1].split(",")[0]]
        assert jumps == repeats and len(jumps) == 4

    def test_power_rate_at_small_levels(self, tmp_path):
        # phi_s = power(-1, 1) is linear(-1) written as a power rate; on the
        # 8-switch signal V falls to 4.0e-10, and both configs write the same
        # bytes.
        cfg = base_config()
        cfg["certificate"] = family_certificate_json()
        code, linear = run(tmp_path, "construct", cfg, name="linear.json")
        assert code == 0
        cfg["certificate"]["phi"]["s"] = {"kind": "power", "c": -1.0, "k": 1.0}
        code, power = run(tmp_path, "construct", cfg, name="power.json")
        assert code == 0
        assert min(float(r.split(",")[1])
                   for r in (power / "construct.csv").read_text().splitlines()[1:]) < 1e-9
        for name in ("construct.csv", "reports.csv"):
            assert (power / name).read_bytes() == (linear / name).read_bytes()

    def test_image_not_full(self, tmp_path):
        cfg = base_config()
        cert = family_certificate_json()
        cert["phi"]["s"] = {"kind": "power", "c": -1.0, "k": 2.0}
        cfg["certificate"] = cert
        code, _ = run(tmp_path, "construct", cfg)
        assert code == 4

    def test_dwell_precondition(self, tmp_path):
        cfg = base_config()
        cert = family_certificate_json()
        cert["dwell"]["T_S"] = 0.0  # declared slack below the signal's actual
        cfg["certificate"] = cert
        code, _ = run(tmp_path, "construct", cfg)
        assert code == 3


class TestBound:
    def _cfg(self):
        cfg = base_config()
        cfg["certificate"] = family_certificate_json()
        cfg["bound"] = {
            "envelopes": {"lower": {"kind": "linear", "eta": 1.0},
                          "upper": {"kind": "linear", "eta": 1.0}},
            "runs": 5,
            "x0_range": 3.0,
            "u_bound": 1.0,
            "r_list": [1.0, 3.0],
            "patch_samples": 5,
        }
        return cfg

    def test_ok(self, tmp_path):
        code, out = run(tmp_path, "bound", self._cfg(), seed=0)
        assert code == 0
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["violations"] == 0
        assert verdict["max_margin"] <= 0
        assert verdict["patched"] and not verdict["t0_independent"]
        lines = (out / "bound.csv").read_text().splitlines()
        assert lines[0] == "r,s,beta(r,s)"
        assert len(lines) == 1 + 2 * 51

    @pytest.mark.parametrize("lower, upper", [(5.0, 5.0), (1.0, 0.5)])
    def test_envelopes_must_enclose_the_rates(self, tmp_path, capsys, lower, upper):
        cfg = self._cfg()
        cfg["bound"]["envelopes"] = {"lower": {"kind": "linear", "eta": lower},
                                     "upper": {"kind": "linear", "eta": upper}}
        code, out = run(tmp_path, "bound", cfg, seed=0)
        assert code == 4
        assert "envelopes" in capsys.readouterr().err
        assert not (out / "verdict.json").exists()

    def test_envelope_image_bounded_above(self, tmp_path, capsys):
        # Quadratic rates and envelopes: the envelopes' transform images end
        # at 1, which beta's lift by C = 1.1 would pass.
        cfg = self._cfg()
        cfg["certificate"]["phi"] = {"s": {"kind": "power", "c": -1.0, "k": 2.0},
                                     "u": {"kind": "power", "c": 1.0, "k": 2.0}}
        square = {"kind": "power", "c": 1.0, "k": 2.0}
        cfg["bound"].update(envelopes={"lower": square, "upper": square}, runs=2,
                            x0_range=2.0)
        code, out = run(tmp_path, "bound", cfg, seed=0)
        assert code == 4
        assert "bounded above" in capsys.readouterr().err
        assert not (out / "verdict.json").exists()

    def _count_reachability(self, monkeypatch):
        calls = []
        reach = cli.reachability_bound

        def counted(*args, **kwargs):
            calls.append((args, kwargs))
            return reach(*args, **kwargs)
        monkeypatch.setattr(cli, "reachability_bound", counted)
        return calls

    def test_refusal_runs_no_reachability(self, tmp_path, monkeypatch):
        # The power(1, 2)-envelope config of the test above: the envelopes
        # are refused before the Monte-Carlo patch is sampled.
        calls = self._count_reachability(monkeypatch)
        cfg = self._cfg()
        cfg["certificate"]["phi"] = {"s": {"kind": "power", "c": -1.0, "k": 2.0},
                                     "u": {"kind": "power", "c": 1.0, "k": 2.0}}
        square = {"kind": "power", "c": 1.0, "k": 2.0}
        cfg["bound"].update(envelopes={"lower": square, "upper": square}, runs=2,
                            x0_range=2.0)
        code, _ = run(tmp_path, "bound", cfg, seed=0)
        assert code == 4 and calls == []

    def test_accepted_bound_samples_the_patch_once(self, tmp_path, monkeypatch):
        calls = self._count_reachability(monkeypatch)
        cfg = self._cfg()
        code, _ = run(tmp_path, "bound", cfg, seed=0)
        assert code == 0
        dwell = cfg["certificate"]["dwell"]
        delta = dwell["delta"]
        window = ((1 - delta) * dwell["T_S"] + (1 + delta) * dwell["T_U"]) / delta
        assert len(calls) == 1
        (model, sig, *rest), kwargs = calls[0]
        assert rest == [3.0, 1.0, window, 5] and kwargs == {"step": 1e-3, "seed": 0}
        assert sig.instants == tuple(cfg["signal"]["instants"])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_batch_writes_the_per_run_bytes(self, tmp_path, monkeypatch, seed):
        # The acceptance-9 bound config with 20 Monte-Carlo runs and 2
        # reachability samples: the batched runs give the bytes of the
        # earlier one-run-at-a-time loops, so every run draws the same
        # numbers in the same order and gets the same states.
        cfg = acceptance9_config()
        cfg["step"] = 1e-3
        cfg["input"] = {"kind": "sinusoid", "amplitude": [0.5], "omega": 2.0}
        cfg["bound"] = {"envelopes": {"lower": {"kind": "linear", "eta": 1.0},
                                      "upper": {"kind": "linear", "eta": 1.0}},
                        "runs": 20, "x0_range": 2.0, "u_bound": 1.0, "patch_samples": 2}
        code, out = run(tmp_path, "bound", cfg, name="batch.json", seed=seed)
        monkeypatch.setattr(cli, "reachability_bound", oracles.reachability_per_run)
        monkeypatch.setattr(cli, "_monte_carlo", oracles.monte_carlo_per_run)
        ref_code, ref = run(tmp_path, "bound", cfg, name="per-run.json", seed=seed)
        assert code == ref_code == 0
        for name in ("bound.csv", "verdict.json"):
            assert (out / name).read_bytes() == (ref / name).read_bytes()

    def test_r_list_beyond_floats(self, tmp_path, capsys):
        cfg = self._cfg()
        cfg["bound"]["r_list"] = [1.0, 1e200]
        code, out = run(tmp_path, "bound", cfg, seed=0)
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("config error: bound.r_list")
        assert "Traceback" not in err and not (out / "bound.csv").exists()

    def test_reachability_blow_up_is_non_finite(self, tmp_path, capsys):
        # Initial states of norm up to 1e200 exceed the simulator's finite
        # limit in the first reachability run, before any Monte-Carlo run.
        cfg = self._cfg()
        cfg["bound"]["x0_range"] = 1e200
        code, out = run(tmp_path, "bound", cfg, seed=0)
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("non-finite state: state norm exceeded")
        assert "Traceback" not in err and not (out / "verdict.json").exists()


class TestLmi:
    def _base(self):
        return {
            "system": family_system(),
            "lmi": {
                "partition": {"stable": ["s"], "unstable": ["u"]},
                "dwell": {"tau": {"s": 1.0, "u": 0.25}, "delta": 0.2},
                "pairs": [["u", "s"], ["s", "u"]],
            },
        }

    def test_synth_ok(self, tmp_path):
        cfg = self._base()
        cfg["lmi"]["mode"] = "synth"
        code, out = run(tmp_path, "lmi", cfg)
        assert code == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert set(cert["eta"]) == {"s", "u"}
        verdict = json.loads((out / "verdict.json").read_text())
        assert all(v["ok"] for v in verdict["flow"].values())
        assert all(v["ok"] for v in verdict["jump"].values())
        assert verdict["rates"] == []

    def test_synth_infeasible(self, tmp_path):
        cfg = self._base()
        cfg["system"]["A"]["s"] = [[0.0]]  # declared stable, not Hurwitz
        cfg["lmi"]["mode"] = "synth"
        code, out = run(tmp_path, "lmi", cfg)
        assert code == 5
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["infeasible"]

    def test_verify_roundtrip(self, tmp_path):
        cfg = self._base()
        cfg["lmi"]["mode"] = "synth"
        code, out = run(tmp_path, "lmi", cfg, name="synth.json")
        assert code == 0
        cert = json.loads((out / "certificate.json").read_text())
        cert.pop("lambda_max")
        cfg2 = self._base()
        cfg2["lmi"]["mode"] = "verify"
        cfg2["lmi"]["certificate"] = cert
        code2, out2 = run(tmp_path, "lmi", cfg2, name="verify.json")
        assert code2 == 0

    def test_verify_failing_certificate(self, tmp_path):
        cfg = self._base()
        cfg["lmi"]["mode"] = "verify"
        cfg["lmi"]["certificate"] = {
            "M": {"s": [[1.0]], "u": [[1.0]]},
            "Q": {"s": [[1e-9]], "u": [[1e-9]]},
            "eta": {"s": -10.0, "u": 0.1},
            "mu": {"s": 1.0, "u": 1.0},
        }
        code, out = run(tmp_path, "lmi", cfg)
        assert code == 3

    def test_unknown_mode(self, tmp_path):
        cfg = self._base()
        cfg["lmi"]["mode"] = "nonsense"
        code, _ = run(tmp_path, "lmi", cfg)
        assert code == 1

    def test_synth_ill_conditioned_lyapunov_is_infeasible(self, tmp_path):
        # A stable mode with a slow direction: its Lyapunov solution has
        # condition number 5e12.
        cfg = self._base()
        cfg["system"] = copy.deepcopy(TWO_STATE_SYSTEM)
        cfg["system"]["A"]["s"] = [[-1.0, 0.0], [0.0, -1e-13]]
        cfg["lmi"]["mode"] = "synth"
        code, out = run(tmp_path, "lmi", cfg)
        assert code == cli.EXIT_INFEASIBLE
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["infeasible"] and verdict["details"]["mode"] == "s"
        assert verdict["details"]["condition"] > 1e12


    def test_synth_decides_its_blocks_once(self, tmp_path, monkeypatch):
        # The flow blocks of both modes and the jump blocks of both pairs
        # go through one eigenvalue call, and cmd_lmi reuses its verdicts.
        from isscert import lmi

        shapes = []
        solve = lmi.eigenvalues

        def recorded(S):
            shapes.append(np.shape(S))
            return solve(S)
        monkeypatch.setattr(lmi, "eigenvalues", recorded)
        cfg = self._base()
        cfg["lmi"]["mode"] = "synth"
        code, out = run(tmp_path, "lmi", cfg)
        assert code == 0
        assert shapes.count((4, 2, 2)) == 1
        assert all(len(shape) == 3 for shape in shapes)
        verdict = json.loads((out / "verdict.json").read_text())
        assert sorted(verdict["flow"]) == ["s", "u"]
        assert sorted(verdict["jump"]) == ["s<-u", "u<-s"]


class TestArguments:
    """The command line outside the config: ``--seed``, ``--out`` and usage."""

    def test_negative_seed_flag_is_a_config_error(self, tmp_path, capsys):
        code, _ = run(tmp_path, "bound", TestBound()._cfg(), seed=-1)
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: --seed: ") and "Traceback" not in err

    def test_negative_config_seed_is_a_config_error(self, tmp_path, capsys):
        cfg = TestBound()._cfg()
        cfg["seed"] = -1
        code, _ = run(tmp_path, "bound", cfg)
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: seed: ")

    @pytest.mark.parametrize("below", [False, True])
    def test_out_that_cannot_be_a_directory(self, tmp_path, capsys, below):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config()))
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / "sub" if below else taken
        code = main(["simulate", "--config", str(path), "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: --out: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        [],
        ["nonsense", "--config", "cfg.json"],
        ["simulate"],
        ["simulate", "--config", "cfg.json", "--seed", "x"],
    ])
    def test_usage_errors_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        assert "usage: isscert" in capsys.readouterr().err


def test_every_failure_has_a_documented_exit_code():
    """Each entry of ``cli.FAILURES`` has a row for its code in README's
    exit-code table that names the exception and its stderr prefix."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = re.findall(r"^\| `(\d+)` \| ([^|]*) \|", readme, re.M)
    assert rows
    for error, (code, prefix) in cli.FAILURES.items():
        assert any(int(c) == code and f"`{error.__name__}`" in cell and f"`{prefix}: " in cell
                   for c, cell in rows), error.__name__


def malformed_config(command):
    cfg = base_config()
    if command == "lmi":
        cfg = TestLmi()._base()
        cfg["lmi"]["mode"] = "synth"
    elif command == "bound":
        cfg = TestBound()._cfg()
    elif command != "simulate":
        cfg["certificate"] = family_certificate_json()
    return cfg


MALFORMED = [
    *((cmd, key, value) for cmd in ("certify", "construct")
      for key, value in [("dwell_a_grid", [-1]), ("dwell_a_grid", []), ("dwell_a_grid", ["x"]),
                         ("dwell_a_grid", 5), ("tolerances", {"dini_coeff": "x"})]),
    *((cmd, key, value) for cmd in ("simulate", "certify", "construct", "bound")
      for key, value in [("step", "abc"), ("step", float("nan")), ("x0", ["a"]),
                         ("x0", [float("inf")])]),
    ("certify", "certificate.form", "disipation"),
    ("construct", "certificate.form", "disipation"),
    ("bound", "bound.runs", "x"),
    ("bound", "bound.r_list", [-1.0]),
    ("bound", "bound.patch_samples", 0),
    ("lmi", "lmi.dwell.delta", "x"),
    ("simulate", "seed", "x"),
    ("bound", "bound.runs", 0),
    ("bound", "bound.r_list", [1e200]),
]


class TestMalformedConfig:
    @pytest.mark.parametrize("command, key, value", MALFORMED)
    def test_exit_1_without_traceback(self, tmp_path, capsys, command, key, value):
        cfg = malformed_config(command)
        edit(cfg, key, value)
        code, _ = run(tmp_path, command, cfg)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error") and "Traceback" not in err


DELETE = object()


def edit(cfg, key, value):
    """Set the node at the dotted ``key`` (list indices as numbers) to
    ``value``, or remove it for DELETE."""
    *path, last = [int(k) if k.isdigit() else k for k in key.split(".")]
    target = cfg
    for part in path:
        target = target[part]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value


def lmi_certificate(**entries):
    cert = {"M": {"s": [[1.0]], "u": [[1.0]]}, "Q": {"s": [[1.0]], "u": [[1.0]]},
            "eta": {"s": -1.0, "u": 1.0}, "mu": {"s": 1.0, "u": 1.0}}
    return {**cert, **entries}


def lmi_verify(**entries):
    return {"lmi.mode": "verify", "lmi.certificate": lmi_certificate(**entries)}


TWO_STATE_SYSTEM = {"kind": "linear", "A": {"s": [[-1.0, 0.0], [0.0, -1.0]],
                                            "u": [[0.5, 0.0], [0.0, 0.5]]},
                    "B": {"s": [[1.0], [0.0]], "u": [[1.0], [0.0]]},
                    "J": {"s": [[1.0, 0.0], [0.0, 1.0]], "u": [[1.0, 0.0], [0.0, 1.0]]},
                    "H": {"s": [[0.0], [0.0]], "u": [[0.0], [0.0]]}}

# Config sections that used to escape ``main`` as exceptions, each with the
# field its error names.
MALFORMED_SECTIONS = [
    pytest.param("certify", {"system.A": 5}, "system.A", id="A-not-an-object"),
    pytest.param("certify", {"system.A": {}}, "system.A", id="A-without-modes"),
    pytest.param("certify", {"system.A.s": 5}, "system.A.s", id="A-matrix-a-number"),
    *(pytest.param("simulate", {f"system.{name}.u": DELETE}, f"system.{name}.u",
                   id=f"{name}-missing-a-mode") for name in "BJH"),
    pytest.param("lmi", {"system.A.s": [[None]]}, "system.A.s", id="null-matrix-entry"),
    pytest.param("lmi", lmi_verify(eta=5), "lmi.certificate.eta", id="eta-a-number"),
    pytest.param("lmi", {"system": TWO_STATE_SYSTEM,
                         **lmi_verify(M={"s": [[1.0, 0.5], [0.0, 1.0]],
                                         "u": [[1.0, 0.0], [0.0, 1.0]]})},
                 "lmi.certificate", id="M-not-symmetric"),
    pytest.param("lmi", lmi_verify(M={"s": [[1.0]]}), "lmi.certificate.M.u",
                 id="M-missing-a-mode"),
    pytest.param("lmi", {"lmi.dwell.tau.u": DELETE}, "lmi.dwell.tau.u", id="tau-missing-a-mode"),
    pytest.param("lmi", {"lmi.pairs": 5}, "lmi.pairs", id="pairs-a-number"),
    pytest.param("lmi", {"lmi.pairs": [["s"]]}, "lmi.pairs.0", id="pair-of-one-mode"),
    pytest.param("lmi", {"lmi.pairs.1.0": "w"}, "lmi.pairs.1", id="pair-unknown-mode"),
    # A bare string where a list of modes belongs: each letter became a mode.
    pytest.param("certify", {"signal.modes": "susususu"}, "signal.modes",
                 id="modes-a-bare-string"),
    pytest.param("certify", {"certificate.partition.stable": "s"},
                 "certificate.partition.stable", id="stable-a-bare-string"),
    pytest.param("simulate", {"input": 5}, "input", id="input-a-number"),
    pytest.param("simulate", {"input": {"kind": "constant", "value": [0.1, 0.2]}},
                 "input.value", id="input-wrong-length"),
    # A certificate that misses a signal mode, or whose quadratic V does not
    # match the state: bound never evaluates V and exited 0.
    *(pytest.param(cmd, {f"certificate.{key}.u": DELETE}, f"certificate.{key}.u",
                   id=f"{cmd}-{key}-missing-a-mode")
      for cmd in ("certify", "construct", "bound") for key in ("V", "phi", "psi", "dwell.tau")),
    *(pytest.param(cmd, {"certificate.V.s.M": [[1.0, 0.0]]}, "certificate.V.s",
                   id=f"{cmd}-M-not-n-by-n") for cmd in ("certify", "construct", "bound")),
    # Tabulated rates whose values change sign are in neither P nor -P: the
    # first ended in a traceback, the second passed envelope_check and then
    # failed in the transform, and construct exited 0 on the third.
    pytest.param("certify", {"certificate.phi.s": {"kind": "tabulated",
                                                   "points": [[1, -1], [2, 2]]}},
                 "certificate.phi.s", id="phi-changes-sign"),
    pytest.param("bound", {"bound.envelopes.lower": {"kind": "tabulated",
                                                     "points": [[1, -0.5], [2, 0.9], [3, 1.0]]}},
                 "bound.envelopes.lower", id="envelope-changes-sign"),
    pytest.param("construct", {"certificate.psi.s": {"kind": "tabulated",
                                                     "points": [[1, -0.01], [2, 0.02]]}},
                 "certificate.psi.s", id="psi-changes-sign"),
    # A partition that leaves out mode u: neither the sign check nor either
    # dwell budget counted it, so T_U = 0 passed where u's leave slack is 0.25
    # (certify and construct exited 0), and the lmi search treated u as unstable.
    *(pytest.param(cmd, {"certificate.partition.unstable": [], "certificate.dwell.T_U": 0},
                   "certificate", id=f"{cmd}-partition-misses-a-mode")
      for cmd in ("certify", "construct")),
    *(pytest.param("lmi", {**edits, "lmi.partition.unstable": []}, "lmi.partition",
                   id=f"lmi-{mode}-partition-misses-a-mode")
      for mode, edits in (("synth", {}), ("verify", lmi_verify()))),
]


class TestMalformedSections:
    @pytest.mark.parametrize("command, edits, field", MALFORMED_SECTIONS)
    def test_exit_1_naming_the_field(self, tmp_path, capsys, command, edits, field):
        cfg = malformed_config(command)
        for key, value in edits.items():
            edit(cfg, key, value)
        code, _ = run(tmp_path, command, cfg)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"config error: {field}: ") and "Traceback" not in err


def sweep_configs():
    """The configs above for every command (lmi both ways), with an input in
    the simulate, certify and construct configs and the runs cut down."""
    configs = {command: malformed_config(command)
               for command in ("simulate", "certify", "construct", "bound", "lmi")}
    configs["simulate"]["input"] = {"kind": "constant", "value": [0.1]}
    configs["certify"]["input"] = {"kind": "step", "before": [0.1], "after": [0.0],
                                   "t_switch": 2.0}
    configs["construct"]["input"] = {"kind": "sinusoid", "amplitude": [0.1], "omega": 1.0,
                                     "phase": 0.5}
    configs["bound"]["bound"].update(runs=1, patch_samples=1)
    verify = malformed_config("lmi")
    for key, value in lmi_verify().items():
        edit(verify, key, value)
    for cfg in configs.values():
        if "step" in cfg:
            cfg["step"] = 0.05
    return [*configs.items(), ("lmi", verify)]


def nodes(obj, path=()):
    """The dotted path of every node under ``obj``, containers and leaves."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) \
        if isinstance(obj, list) else ()
    for key, value in items:
        yield ".".join(map(str, (*path, key)))
        yield from nodes(value, (*path, key))


WRONG_VALUES = ("x", 5, [], {}, None)


class TestTypeConfusion:
    def test_every_node_exits_with_a_documented_code(self, tmp_path, capsys):
        # Each node of every config, replaced by two of the wrong values in
        # turn, ends in an exit code and never in an exception or a traceback.
        escapes = []
        cases = 0
        for command, cfg in sweep_configs():
            for k, key in enumerate(nodes(cfg)):
                for value in (WRONG_VALUES[k % 5], WRONG_VALUES[(k + 2) % 5]):
                    bad = copy.deepcopy(cfg)
                    edit(bad, key, value)
                    cases += 1
                    try:
                        code, _ = run(tmp_path, command, bad)
                    except Exception as e:  # noqa: BLE001 - every escape is collected
                        escapes.append((command, key, value, repr(e)))
                        continue
                    err = capsys.readouterr().err
                    if code not in range(cli.EXIT_OK, cli.EXIT_INFEASIBLE + 1) \
                            or "Traceback" in err:
                        escapes.append((command, key, value, code, err))
        assert cases > 800
        assert escapes == []


def numeric_leaves(obj, path=()):
    """The dotted path of every number under ``obj``, booleans excluded."""
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from numeric_leaves(value, (*path, key))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield ".".join(map(str, path))


class TestNonFiniteNumbers:
    def test_every_number_rejects_nan_inf_and_huge_integers(self, tmp_path, capsys):
        # Each number of every config, replaced by NaN, by Infinity and by an
        # integer beyond the floats, is a config error on its own field: the
        # leaf itself, or the matrix, vector or list that holds it (a
        # quadratic V's M is named by its V entry).
        wrong = []
        cases = 0
        for command, cfg in sweep_configs():
            for key in numeric_leaves(cfg):
                for value in (math.nan, math.inf, 10**400):
                    bad = copy.deepcopy(cfg)
                    edit(bad, key, value)
                    cases += 1
                    code, _ = run(tmp_path, command, bad)
                    err = capsys.readouterr().err
                    field = re.match(r"config error: (\S+): ", err)
                    if code != cli.EXIT_CONFIG or "Traceback" in err or field is None \
                            or not key.startswith(field[1]) \
                            or not re.fullmatch(r"(\.M)?(\.\d+)*", key[len(field[1]):]):
                        wrong.append((command, key, value, code, err))
        assert cases > 400
        assert wrong == []


class TestWriteCsv:
    def test_matches_the_per_cell_writer(self, tmp_path):
        numbers = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, math.inf, -math.inf, math.nan,
                   1 / 3, -1e300, 0.1, 3, -7, 2**60 + 1, True]
        columns = [["kind"] * len(numbers), numbers, ["mode"] * len(numbers),
                   [-x for x in numbers], [x / 3 for x in numbers],
                   np.arange(len(numbers)) - 7, np.arange(len(numbers)) % 2 == 0]
        header = ["a", "b", "c", "d", "e", "int", "bool"]
        jsonio.write_csv(tmp_path / "template.csv", header, columns)
        oracles.write_csv_per_cell(tmp_path / "per_cell.csv", header, columns)
        assert (tmp_path / "template.csv").read_bytes() == \
            (tmp_path / "per_cell.csv").read_bytes()

    def test_header_only(self, tmp_path):
        jsonio.write_csv(tmp_path / "empty.csv", ["t", "V"], [np.empty(0), np.empty(0)])
        assert (tmp_path / "empty.csv").read_text() == "t,V\n"


class TestDeterminism:
    def test_identical_reruns(self, tmp_path):
        cfg = base_config()
        cfg["certificate"] = family_certificate_json()
        code1, out1 = run(tmp_path, "certify", cfg, name="a.json", seed=7)
        code2, out2 = run(tmp_path, "certify", cfg, name="b.json", seed=7)
        assert code1 == code2 == 0
        for fname in ("reports.csv", "summary.json"):
            assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()

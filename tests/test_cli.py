import json

import pytest

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
        assert len(lines) == 1 + len(ref.rows())
        assert lines[-1].split(",")[0] == jsonio.fmt(ref.horizon)


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
    ("lmi", "lmi.budget", "x"),
    ("simulate", "seed", "x"),
    ("bound", "bound.runs", 0),
    ("bound", "bound.r_list", [1e200]),
]


class TestMalformedConfig:
    @pytest.mark.parametrize("command, key, value", MALFORMED)
    def test_exit_1_without_traceback(self, tmp_path, capsys, command, key, value):
        cfg = malformed_config(command)
        *path, last = key.split(".")
        target = cfg
        for part in path:
            target = target[part]
        target[last] = value
        code, _ = run(tmp_path, command, cfg)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error") and "Traceback" not in err


class TestDeterminism:
    def test_identical_reruns(self, tmp_path):
        cfg = base_config()
        cfg["certificate"] = family_certificate_json()
        code1, out1 = run(tmp_path, "certify", cfg, name="a.json", seed=7)
        code2, out2 = run(tmp_path, "certify", cfg, name="b.json", seed=7)
        assert code1 == code2 == 0
        for fname in ("reports.csv", "summary.json"):
            assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()

"""``Reports.intervals`` and ``reports.csv``: one row per maximal run of
failing samples (one kind, one mode, samples of consecutive index within one
segment), against a loop over the reports, on small trajectories and
through the CLI.  Every report keeps the index of its trajectory sample, and
a report of no sample (a jump, a dwell condition) is a run of its own."""

import collections
import copy
import csv
import json
import math

import numpy as np
import pytest

import isscert as iss
from isscert import jsonio
from isscert.certify import FORMS

from test_array_checks import INPUT, certificate, trajectory
from test_cli import acceptance9_config, run

HEADER = ["kind", "time", "mode", "t_last", "samples", "t_worst", "lhs", "rhs", "margin"]


def intervals_loop(reports) -> list[list]:
    """The rows of ``reports.csv`` one report at a time."""
    out, previous = [], -1
    for kind, t, mode, lhs, rhs, margin, sample in zip(
            *(c.tolist() for c in (reports.kind, reports.time, reports.mode, reports.lhs,
                                   reports.rhs, reports.margin, reports.sample))):
        if (previous >= 0 and sample == previous + 1
                and (kind, mode) == (out[-1][0], out[-1][2]) and t > out[-1][3]):
            row = out[-1]
            row[3], row[4] = t, row[4] + 1
            if margin > row[8] or (math.isnan(margin) and not math.isnan(row[8])):
                row[5:] = [t, lhs, rhs, margin]
        else:
            out.append([kind, t, mode, t, 1, t, lhs, rhs, margin])
        previous = sample
    return out


def interval_rows(reports) -> list[list]:
    columns = reports.intervals()
    assert list(columns) == HEADER
    return [list(row) for row in zip(*(c.tolist() for c in columns.values()))]


def same(a, b) -> bool:
    """Equal rows, NaN equal to NaN."""
    return len(a) == len(b) and all(
        x == y or (isinstance(x, float) and math.isnan(x) and math.isnan(y))
        for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def one_mode_certificate(V, phi, partition, **cfs):
    square = iss.power_cf(1.0, 2.0)
    funcs = {"alpha1": square, "alpha2": square, "alpha3": square, "chi": square, **cfs}
    stable = frozenset({"a"}) if partition == "stable" else frozenset()
    return iss.Certificate(
        V={"a": V}, phi={"a": iss.linear_rate(phi)}, psi={"a": iss.linear_rate(1.0)},
        partition=iss.ModePartition(stable, frozenset({"a"}) - stable),
        dwell=iss.DwellSpec({"a": 1.0}, 0.5), **funcs)


def still_model(jump=1.0):
    """x' = 0 in one mode "a"; each jump multiplies x by ``jump``."""
    return iss.LinearSystemModel(A={"a": [[0.0]]}, B={"a": [[0.0]]}, J={"a": [[jump]]},
                                 H={"a": [[0.0]]})


class TestRuns:
    @pytest.mark.parametrize("form", FORMS)
    def test_every_kind_against_the_loop(self, form):
        traj = trajectory()
        reports = iss.check_trajectory(certificate(), traj, INPUT, form, dini_coeff=1.0)
        rows = interval_rows(reports)
        assert same(rows, intervals_loop(reports))
        assert len(rows) < len(reports) and sum(row[4] for row in rows) == len(reports)
        # The index names the sample a report was taken at.
        times = traj.samples[0]
        at = reports.sample >= 0
        assert set(reports.kind[at]) == {"sandwich", "flow"} and len(at) > np.count_nonzero(at)
        assert np.array_equal(times[reports.sample[at]], reports.time[at])

    def test_a_same_mode_jump_splits_a_sandwich_run(self):
        # V breaks alpha2 at t = 0.5 only: at the last pre-jump sample and the
        # first post-jump sample, which share the time and the mode.
        sig = iss.SwitchingSignal(0.0, (0.5,), ("a", "a"), 1.0)
        traj = iss.simulate(still_model(), sig, [1.0], iss.zero_input(), 0.1)

        def V(t, x):
            return x[..., 0] ** 2 * np.where(np.abs(t - 0.5) < 1e-9, 10.0, 1.0)

        reports = iss.check_trajectory(one_mode_certificate(V, 1e3, "unstable"), traj,
                                       iss.zero_input())
        assert reports.kind.tolist() == ["sandwich", "sandwich"]
        assert reports.sample.tolist() == [5, 6]
        assert [row[:6] for row in interval_rows(reports)] == [
            ["sandwich", 0.5, "a", 0.5, 1, 0.5], ["sandwich", 0.5, "a", 0.5, 1, 0.5]]

    def test_a_gated_gap_splits_a_flow_run(self):
        # V = 4 |t - 0.5| + 0.01 falls below chi(||u||) = 0.5 around t = 0.5,
        # and the claimed decay at rate 100 fails everywhere else.
        sig = iss.SwitchingSignal(0.0, (), ("a",), 1.0)
        inp = iss.constant_input([1.0])
        traj = iss.simulate(still_model(), sig, [1.0], inp, 0.05)

        def V(t, x):
            return 4.0 * np.abs(t - 0.5) + 0.01 + 0.0 * x[..., 0]

        cert = one_mode_certificate(V, -100.0, "stable", alpha1=iss.linear_cf(1e-3),
                                    alpha2=iss.linear_cf(10.0), chi=iss.linear_cf(0.5))
        gated = iss.check_trajectory(cert, traj, inp)
        assert gated.counts == {"flow_evaluated": 15, "flow_skipped": 5}
        rows = interval_rows(gated)
        assert [(row[0], row[4]) for row in rows] == [("flow", 8), ("flow", 7)]
        assert rows[0][1] == 0.0 and rows[0][3] == pytest.approx(0.35)
        assert rows[1][1] == pytest.approx(0.65) and rows[1][3] == pytest.approx(0.95)
        # The dissipation form gates nothing: one run of every difference.
        whole = iss.check_trajectory(cert, traj, inp, "dissipation")
        assert [(row[0], row[4]) for row in interval_rows(whole)] == [("flow", 20)]

    def test_each_jump_is_a_row_of_its_own(self):
        # x doubles at each jump while psi allows V no growth.
        sig = iss.SwitchingSignal(0.0, (0.3, 0.6), ("a", "a", "a"), 1.0)
        traj = iss.simulate(still_model(2.0), sig, [1.0], iss.zero_input(), 0.1)
        reports = iss.check_trajectory(one_mode_certificate(iss.quadratic_v([[1.0]]), 1e3,
                                                            "unstable"),
                                       traj, iss.zero_input())
        assert reports.kind.tolist() == ["jump", "jump"] and reports.sample.tolist() == [-1, -1]
        assert [(row[0], row[1], row[4]) for row in interval_rows(reports)] == [
            ("jump", 0.3, 1), ("jump", 0.6, 1)]

    def test_a_mode_or_kind_change_or_a_gap_splits_a_run(self):
        t = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
        reports = iss.Reports(["flow"] * 4 + ["sandwich"] * 2, t, list("sssuuu"),
                              np.arange(6.0), 0.0, [0, 1, 2, 3, 4, 6])
        assert [(row[0], row[2], row[4]) for row in interval_rows(reports)] == [
            ("flow", "s", 3), ("flow", "u", 1), ("sandwich", "u", 1), ("sandwich", "u", 1)]
        assert same(interval_rows(reports), intervals_loop(reports))

    def test_the_worst_sample_is_the_largest_margin_first_on_ties(self):
        t = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
        reports = iss.Reports("flow", t, "s", [1.0, 3.0, 2.0, 3.0, 1.0, math.nan, 2.0], 0.5,
                              [0, 1, 2, 3, 10, 11, 12])
        rows = interval_rows(reports)
        assert [row[3:] for row in rows[:1]] == [[0.3, 4, 0.1, 3.0, 0.5, 2.5]]
        # A NaN margin is above all.
        assert rows[1][3:6] == [0.6, 3, 0.5] and math.isnan(rows[1][8])
        assert same(rows, intervals_loop(reports))

    def test_no_reports_no_rows(self, tmp_path):
        assert interval_rows(iss.Reports()) == []
        jsonio.write_reports_csv(tmp_path / "reports.csv", iss.Reports())
        assert (tmp_path / "reports.csv").read_text() == ",".join(HEADER) + "\n"

    def test_indices_survive_selection_and_concatenation(self):
        reports = iss.check_trajectory(certificate(), trajectory(), INPUT)
        flow = reports[reports.kind == "flow"]
        assert flow.sample.tolist() == reports.sample[reports.kind == "flow"].tolist()
        assert (reports[:3] + flow).sample.tolist() == \
            reports.sample[:3].tolist() + flow.sample.tolist()


def acceptance9_variants():
    """The acceptance-9 config at step 2e-4, true and with planted errors."""
    base = acceptance9_config()
    fast = copy.deepcopy(base)
    fast["certificate"]["phi"]["s"]["eta"] = -3.0
    gated = copy.deepcopy(fast)
    gated["input"] = {"kind": "sinusoid", "amplitude": [0.5], "omega": 2.0}
    gated["certificate"]["chi"] = {"kind": "power", "c": 8.0, "k": 2.0}
    tight = copy.deepcopy(base)
    tight["certificate"]["psi"]["u"]["eta"] = 5.0
    tight["certificate"]["alpha2"]["c"] = 0.9
    return {"true": base, "fast_phi_s": fast, "gated": gated, "tight": tight}


def csv_rows(path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


class TestReportsCsv:
    def test_the_planted_dense_config_writes_one_flow_row(self, tmp_path):
        code, out = run(tmp_path, "certify", acceptance9_variants()["fast_phi_s"])
        assert code == 3
        rows = csv_rows(out / "reports.csv")
        assert [(r["kind"], r["mode"], r["time"], r["samples"]) for r in rows] == [
            ("flow", "s", "0", "5000")]
        assert float(rows[0]["t_last"]) == pytest.approx(0.9998)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["violations"] == 5000
        assert summary["by_kind"] == {"flow": {"samples": 5000, "intervals": 1,
                                               "worst_margin": float(rows[0]["margin"])}}

    @pytest.mark.parametrize("name", list(acceptance9_variants()))
    def test_samples_add_up_to_the_per_sample_reports(self, tmp_path, name):
        cfg = acceptance9_variants()[name]
        code, out = run(tmp_path, "certify", cfg)
        model, sig, inp, x0, step = jsonio.parse_run(cfg)
        cert, form = jsonio.parse_run_certificate(cfg, sig, model.dims[0])
        reports = (iss.check_trajectory(cert, iss.simulate(model, sig, x0, inp, step), inp, form)
                   + iss.check_dwell_conditions(cert, sig, jsonio.parse_checks(cfg)[1]))
        rows = csv_rows(out / "reports.csv")
        summed = collections.Counter()
        for row in rows:
            summed[row["kind"]] += int(row["samples"])
        assert summed == collections.Counter(reports.kind.tolist())
        assert (code == 0) == (name == "true") and len(rows) <= len(reports)
        by_kind = json.loads((out / "summary.json").read_text())["by_kind"]
        assert {k: v["samples"] for k, v in by_kind.items()} == dict(summed)
        for kind, record in by_kind.items():
            assert record["intervals"] == sum(row["kind"] == kind for row in rows)
            assert record["worst_margin"] == reports.margin[reports.kind == kind].max()

    def test_construct_writes_runs_too(self, tmp_path):
        cfg = acceptance9_variants()["fast_phi_s"]
        code, out = run(tmp_path, "construct", cfg)
        assert code == 3
        rows = csv_rows(out / "reports.csv")
        assert [(r["kind"], r["samples"]) for r in rows] == [("flow", "5000"), ("jump", "1"),
                                                               ("jump", "1")]

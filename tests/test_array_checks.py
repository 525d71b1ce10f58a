"""The whole-trajectory checks of ``isscert.certify`` and
``isscert.construct.decrease_check`` against the per-sample loops in
``tests/oracles.py``.

The case is two-dimensional with power and tabulated rates and comparison
functions, a constant input whose threshold gates part of the samples, a
jump map that sends the state to 0 (so V = 0 and W = 0 there), and a last
switching instant on the horizon (a final segment of one sample).  The
reports must agree in kind, time, mode and order, and the sandwich values
within ``conftest.mismatches``: the norm of one row and the row norms of an
array may round differently.  A one-dimensional case, where the norm is
|x| either way, and the decreasing-function check must agree bit for bit.
"""

import numpy as np
import pytest

import isscert as iss
from isscert import certify, construct, rates
from isscert.certify import FORMS
from isscert.construct import decrease_check

from conftest import JUMP_KINDS, mismatches
import oracles

SIG = iss.SwitchingSignal(0.0, (0.7, 1.4, 2.0), ("u", "s", "u", "s"), 2.0)
INPUT = iss.constant_input([0.3])
TABLE_U = ((0.5, 0.2), (2.0, 0.9), (6.0, 3.0))


def model():
    zero = [[0.0, 0.0], [0.0, 0.0]]
    return iss.LinearSystemModel(
        A={"s": [[-1.0, 0.8], [-0.8, -1.2]], "u": [[0.6, 0.1], [0.0, 0.5]]},
        B={"s": [[1.0], [0.5]], "u": [[1.0], [0.0]]},
        # Out of s the state jumps to 0; out of u it grows.
        J={"s": zero, "u": [[1.6, 0.0], [0.2, 1.4]]},
        H={"s": [[0.0], [0.0]], "u": [[0.0], [0.0]]},
    )


def certificate():
    """Wrong on purpose in every part, so that every report kind occurs: the
    sandwich is too tight on both sides, phi_u too slow,
    psi_u too small and alpha3 tiny."""
    v = iss.quadratic_v([[1.0, 0.2], [0.2, 1.5]])
    return iss.Certificate(
        V={"s": v, "u": v},
        alpha1=iss.power_cf(1.1, 2.0),
        alpha2=iss.ComparisonFunction("tabulated", points=((0.5, 0.3), (1.0, 1.2), (3.0, 12.0))),
        alpha3=iss.linear_cf(1e-3),
        chi=iss.power_cf(4.0, 1.5),
        phi={"s": iss.power_rate(-0.3, 1.2), "u": iss.tabulated_rate(TABLE_U)},
        psi={"s": iss.tabulated_rate(((0.5, 0.1), (4.0, 0.9))), "u": iss.power_rate(0.5, 1.2)},
        partition=iss.ModePartition(frozenset({"s"}), frozenset({"u"})),
        dwell=iss.DwellSpec({"s": 0.5, "u": 0.5}, 0.5, T_S=1.0, T_U=0.5),
    )


def trajectory(step=1e-2):
    return iss.simulate(model(), SIG, [2.0, -1.5], INPUT, step)


def assert_same_reports(got, want):
    rows = got.rows()
    assert [row[:3] for row in rows] == [row[:3] for row in want]
    for k, field in ((3, "lhs"), (4, "rhs")):
        assert mismatches([row[k] for row in rows], [row[k] for row in want]) == [], field


def assert_same_bits(got, want):
    """``Reports`` against the oracle's (kind, time, mode, lhs, rhs, margin)
    rows: the same rows in the same order, every float bit for bit."""
    want = list(zip(*want)) or [()] * 6
    assert got.kind.tolist() == list(want[0]) and got.mode.tolist() == list(want[2])
    for column, expected in zip((got.time, got.lhs, got.rhs, got.margin), want[1:2] + want[3:]):
        assert column.tobytes() == np.array(expected, dtype=float).tobytes()


class TestAgainstTheSampleLoops:
    def test_case_reaches_what_it_is_for(self):
        traj = trajectory()
        times, states, _, starts = traj.samples
        assert times[-1] == times[-2] == SIG.horizon and starts[-1] == len(times) - 1
        assert not states[starts[2]].any()  # the jump out of s lands on 0
        threshold = certificate().chi(INPUT.sup_norm)
        v = oracles._segment_values(certificate(), traj)
        flat = np.concatenate(v)
        assert (flat < threshold).any() and (flat >= threshold).any()

    @pytest.mark.parametrize("form, kinds", [
        ("implication", {"sandwich", "flow", "jump", "small-input-jump"}),
        ("dissipation", {"sandwich", "flow", "jump"}),
    ])
    def test_check_trajectory(self, form, kinds):
        cert, traj = certificate(), trajectory()
        got = iss.check_trajectory(cert, traj, INPUT, form, dini_coeff=1.0)
        want = oracles.trajectory_reports(cert, traj, INPUT, form, 1.0)
        assert set(got.kind) == kinds
        assert_same_reports(got, want)

    def test_decrease_check(self):
        cert, traj = certificate(), trajectory()
        dec = iss.DecreasingCertificate(cert, SIG)
        reports, columns = decrease_check(dec, traj, INPUT, dini_coeff=1.0)
        want_reports, want_rows = oracles.decrease_rows(dec, traj, INPUT, 1.0)
        assert set(reports.kind) >= {"flow", "jump"}
        assert_same_bits(reports, want_reports)
        got, want = np.column_stack(columns), np.array(want_rows, dtype=float)
        assert got.tobytes() == want.tobytes()
        zero = got[:, 1] == 0.0
        assert zero.any() and (got[zero, 2] == 0.0).all()


class TestColumnsBitForBit:
    """One dimension, so that the norm of a state is |x| in the library and
    in the oracle alike.  alpha1 = 2 r^2 lies above V = x^2 at every state
    and alpha2 = 1.5 r below it where |x| > 1.5, so the first samples fail
    both sides of the sandwich; chi(0.3) = 0.45 puts the jumps at t = 0.5, 1
    and 1.5 above the threshold and the one at t = 2 below it."""

    SIG = iss.SwitchingSignal(0.0, (0.5, 1.0, 1.5, 2.0), ("u", "s", "u", "s", "u"), 2.5)

    def case(self):
        model = iss.LinearSystemModel(
            A={"s": [[-2.0]], "u": [[0.3]]}, B={"s": [[1.0]], "u": [[0.5]]},
            J={"s": [[0.4]], "u": [[1.5]]}, H={"s": [[0.0]], "u": [[0.0]]})
        v = iss.quadratic_v([[1.0]])
        cert = iss.Certificate(
            V={"s": v, "u": v},
            alpha1=iss.power_cf(2.0, 2.0),
            alpha2=iss.linear_cf(1.5),
            alpha3=iss.linear_cf(1e-3),
            chi=iss.linear_cf(1.5),
            phi={"s": iss.linear_rate(-5.0), "u": iss.power_rate(0.2, 1.5)},
            psi={"s": iss.linear_rate(0.1), "u": iss.linear_rate(1.1)},
            partition=iss.ModePartition(frozenset({"s"}), frozenset({"u"})),
            dwell=iss.DwellSpec({"s": 0.5, "u": 0.5}, 0.5, T_S=1.0, T_U=0.5),
        )
        return cert, iss.simulate(model, self.SIG, [2.0], INPUT, 1e-2)

    @pytest.mark.parametrize("form", FORMS)
    def test_check_trajectory(self, form):
        cert, traj = self.case()
        got = iss.check_trajectory(cert, traj, INPUT, form, dini_coeff=1.0)
        want = oracles.trajectory_reports(cert, traj, INPUT, form, 1.0)
        assert_same_bits(got, want)
        # At x0 = 2: alpha1 = 8 > V = 4 > alpha2 = 3, the lower side first.
        assert got[got.kind == "sandwich"].rows()[:2] == [("sandwich", 0.0, "u", 8.0, 4.0, 4.0),
                                                          ("sandwich", 0.0, "u", 4.0, 3.0, 1.0)]
        assert {"flow", "jump"} <= set(got.kind)
        if form == "implication":
            assert set(JUMP_KINDS) <= set(got.kind)

    def test_reports_concatenate_and_select(self):
        cert, traj = self.case()
        got = iss.check_trajectory(cert, traj, INPUT, dini_coeff=1.0)
        flow = got[got.kind == "flow"]
        assert (got[:3] + flow).rows() == got.rows()[:3] + flow.rows()
        assert len(got[:0] + got[:0]) == 0 and got[:0].rows() == []
        assert got.counts == flow.counts


class TestRateCallsPerTrajectory:
    """The rate, comparison and transform functions, V and the correction h
    are called a number of times that does not grow with the samples N: once
    per mode or check, on arrays."""

    def count_calls(self, monkeypatch, cert):
        counts = {}

        def counting(f, key):
            def counted(*args, **kwargs):
                counts[key] = counts.get(key, 0) + 1
                return f(*args, **kwargs)
            return counted
        for owner, name in ((rates.RateFunction, "__call__"),
                            (rates.ComparisonFunction, "__call__"),
                            (rates.ComparisonFunction, "inverse"),
                            (rates.PhiTransform, "value"),
                            (rates.PhiTransform, "inverse"),
                            (construct.DecreasingCertificate, "h")):
            monkeypatch.setattr(owner, name,
                                counting(getattr(owner, name), f"{owner.__name__}.{name}"))
        for p in cert.V:
            monkeypatch.setitem(cert.V, p, counting(cert.V[p], f"V.{p}"))
        return counts

    def calls(self, monkeypatch, step):
        cert, traj = certificate(), trajectory(step)
        dec = iss.DecreasingCertificate(cert, SIG)
        counts = self.count_calls(monkeypatch, cert)
        out = []
        for run in (lambda: certify.check_trajectory(cert, traj, INPUT),
                    lambda: certify.check_trajectory(cert, traj, INPUT, "dissipation"),
                    lambda: construct.decrease_check(dec, traj, INPUT)):
            counts.clear()
            run()
            out.append(dict(counts))
        monkeypatch.undo()
        return out, sum(len(seg.times) for seg in traj.segments)

    def test_doubling_the_samples(self, monkeypatch):
        coarse, n_coarse = self.calls(monkeypatch, 2e-2)
        fine, n_fine = self.calls(monkeypatch, 1e-2)
        assert n_fine > 1.9 * n_coarse
        assert fine == coarse
        assert all(counts for counts in coarse)
        assert all(counts["V.s"] == counts["V.u"] == 1 for counts in coarse)
        assert coarse[2]["DecreasingCertificate.h"] == 2

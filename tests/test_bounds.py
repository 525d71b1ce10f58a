import math
from dataclasses import replace

import numpy as np
import pytest

import isscert as iss
from isscert.bounds import iss_check
from isscert.errors import DegenerateGammaError, DomainError, ImageNotFullError

from conftest import FAMILY_ENVELOPES, make_family_certificate, mismatches
from oracles import iss_rows, scalar_beta


def single_stable_cert(eta=-1.0, delta=0.5, T_S=0.0):
    return iss.Certificate(
        V={"a": iss.quadratic_v([[1.0]])},
        alpha1=iss.linear_cf(1.0),
        alpha2=iss.linear_cf(1.0),
        alpha3=iss.linear_cf(1.0),
        chi=iss.linear_cf(1.0),
        phi={"a": iss.linear_rate(eta)},
        psi={"a": iss.linear_rate(1.0)},
        partition=iss.ModePartition(frozenset({"a"}), frozenset()),
        dwell=iss.DwellSpec({"a": 1.0}, delta, T_S=T_S),
    )


class TestDecayInterpolant:
    def test_initial_value(self):
        assert iss.decay_interpolant(2.0, 0.0, 3.0, -1.0) == pytest.approx(5.0)

    def test_dominates_linear_decay(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            u = rng.uniform(-2, 2)
            v = rng.uniform(0, 10)
            C = rng.uniform(0, 3)
            m = u + C - rng.uniform(0, 5)
            val = iss.decay_interpolant(u, v, C, m)
            assert val >= u + C - v - 1e-12
            assert val >= m - 1e-12

    def test_zero_gap(self):
        assert iss.decay_interpolant(1.0, 7.0, 2.0, 3.0) == 3.0

    def test_negative_gap(self):
        with pytest.raises(DegenerateGammaError):
            iss.decay_interpolant(0.0, 1.0, 0.0, 1.0)


class TestBuildBound:
    def test_frozen_single_stable(self):
        # Unit-magnitude rate, delta = 0.5, no slack: the Lyapunov-level
        # bound is r exp(-delta s), so at (1, 2) it equals e^{-1}.
        cert = single_stable_cert()
        bound = iss.build_bound(cert, cert.dwell, iss.linear_rate(1.0),
                                iss.linear_rate(1.0))
        assert bound.case == "infinite-m"
        assert bound.C == 0.0
        assert bound.beta_tilde(1.0, 2.0) == pytest.approx(math.exp(-1.0))

    def test_slack_inflates(self):
        cert = single_stable_cert(T_S=2.0)
        bound = iss.build_bound(cert, cert.dwell, iss.linear_rate(1.0),
                                iss.linear_rate(1.0))
        assert bound.C == pytest.approx(1.0)
        assert bound.beta_tilde(1.0, 0.0) == pytest.approx(math.e)

    def test_finite_floor_case(self):
        # Sublinear lower envelope: the transform image is bounded below,
        # so the decay saturates at the floor instead of reaching zero.
        cert = single_stable_cert()
        bound = iss.build_bound(cert, cert.dwell, iss.power_rate(1.0, 0.5),
                                iss.linear_rate(2.0))
        assert bound.case == "finite-m"
        assert bound.m == pytest.approx(-2.0)
        # Large s: both terms clamp to zero as the interpolant reaches the
        # floor and the upper-envelope argument leaves the image.
        assert bound.beta_tilde(1.0, 1e6) == 0.0
        # Moderate s: still strictly positive decay.
        assert 0.0 < bound.beta_tilde(1.0, 2.0) < bound.beta_tilde(1.0, 0.0)

    def test_image_bounded_above_refused(self):
        # A superlinear envelope's transform ends at a finite sup, which
        # beta's lift by C > 0 could pass; with C = 0 it never does.
        cert = single_stable_cert(T_S=1.0)
        for lower, upper in ((iss.power_rate(1.0, 2.0), iss.linear_rate(1.0)),
                             (iss.linear_rate(1.0), iss.power_rate(1.0, 2.0))):
            with pytest.raises(ImageNotFullError):
                iss.build_bound(cert, cert.dwell, lower, upper)
        cert = single_stable_cert()
        bound = iss.build_bound(cert, cert.dwell, iss.power_rate(1.0, 2.0),
                                iss.power_rate(1.0, 2.0))
        assert bound.C == 0.0 and bound.beta(1.0, 1.0) < 1.0

    def test_monotone(self):
        cert = single_stable_cert(T_S=1.0)
        bound = iss.build_bound(cert, cert.dwell, iss.linear_rate(1.0),
                                iss.linear_rate(2.0))
        rs = [0.5, 1.0, 2.0, 5.0]
        ss = [0.0, 1.0, 3.0, 10.0, 50.0]
        for s in ss:
            vals = [bound.beta(r, s) for r in rs]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
        for r in rs:
            vals = [bound.beta(r, s) for s in ss]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_decay_to_zero(self):
        cert = single_stable_cert()
        bound = iss.build_bound(cert, cert.dwell, iss.linear_rate(1.0),
                                iss.linear_rate(1.0))
        assert bound.beta(1.0, 200.0) < 1e-12

    def test_short_horizon_patch(self):
        cert = single_stable_cert(T_S=2.0)  # C = 1, patch window = 2
        bound = iss.build_bound(cert, cert.dwell, iss.linear_rate(1.0),
                                iss.linear_rate(1.0),
                                short_horizon_envelope=lambda r: 50.0)
        assert bound.metadata["patched"] and not bound.metadata["t0_independent"]
        assert bound.beta(1.0, 1.0) >= 50.0
        assert bound.beta(1.0, 3.0) < 50.0  # beyond the window the decay rules


class TestGainChain:
    def test_nested_levels(self):
        cert = single_stable_cert(T_S=1.0)
        bound = iss.build_bound(cert, cert.dwell, iss.linear_rate(1.0),
                                iss.linear_rate(2.0))
        # In Lyapunov levels: chi <= gamma2 = max(alpha3, chi) <= alpha1(gamma).
        for u in (0.0, 0.3, 1.0, 7.0):
            chi, g2 = cert.chi(u), max(cert.alpha3(u), cert.chi(u))
            assert chi <= g2 + 1e-12
            assert g2 <= cert.alpha1(bound.gamma(u)) * (1 + 1e-12) + 1e-12

    def test_zero_input_zero_gain(self):
        cert = single_stable_cert()
        bound = iss.build_bound(cert, cert.dwell, iss.linear_rate(1.0),
                                iss.linear_rate(1.0))
        assert bound.gamma(0.0) == 0.0

    def test_negative_input_rejected(self):
        cert = single_stable_cert()
        bound = iss.build_bound(cert, cert.dwell, iss.linear_rate(1.0),
                                iss.linear_rate(1.0))
        with pytest.raises(DomainError):
            bound.gamma(-1.0)


class TestCertifyIss:
    """``iss_check`` against the row loop of ``tests/oracles.py``: the same
    reports in (kind, time, mode), and lhs, rhs and the largest margin
    within the array forms' tolerance (``conftest.mismatches``)."""

    def _family_bound(self, family_signal):
        cert = make_family_certificate(family_signal)
        return cert, iss.build_bound(cert, cert.dwell, *FAMILY_ENVELOPES)

    def _same_as_row_loop(self, bound, traj, x0, inp, reference_beta=None):
        reports, margin = iss_check(bound, traj, x0, inp)
        ref = bound if reference_beta is None else replace(bound, beta=reference_beta)
        want, want_margin = iss_rows(ref, traj, x0, inp)
        assert [(r.kind, r.time, r.mode) for r in reports] == \
            [(r.kind, r.time, r.mode) for r in want]
        got = [v for r in reports for v in (r.lhs, r.rhs, r.margin)]
        assert mismatches(got, [v for r in want for v in (r.lhs, r.rhs, r.margin)]) == []
        assert mismatches(margin, want_margin) == []
        return reports

    def test_family_zero_input(self, family_signal, family_model):
        cert, bound = self._family_bound(family_signal)
        x0 = [5.0]
        traj = iss.simulate(family_model.to_system_model(), family_signal,
                            x0, iss.zero_input(), 1e-3)
        assert iss_check(bound, traj, x0, iss.zero_input())[0] == []
        self._same_as_row_loop(bound, traj, x0, iss.zero_input(),
                               scalar_beta(cert, cert.dwell, *FAMILY_ENVELOPES)[1])

    def test_family_bounded_input(self, family_signal, family_model):
        cert, bound = self._family_bound(family_signal)
        x0 = [-3.0]
        inp = iss.sinusoid_input([1.0], omega=1.5)
        traj = iss.simulate(family_model.to_system_model(), family_signal,
                            x0, inp, 1e-3)
        assert iss_check(bound, traj, x0, inp)[0] == []
        self._same_as_row_loop(bound, traj, x0, inp,
                               scalar_beta(cert, cert.dwell, *FAMILY_ENVELOPES)[1])

    def test_two_dimensional(self, family_signal):
        # Row norms for n = 2: rotating flows in both modes.
        model = iss.LinearSystemModel(
            A={"s": [[-1.0, 2.0], [-2.0, -1.0]], "u": [[0.3, 1.0], [-1.0, 0.3]]},
            B={"s": [[0.5], [0.2]], "u": [[0.5], [0.1]]},
            J={"s": [[0.1, 0.0], [0.0, 0.1]], "u": [[0.1, 0.02], [0.0, 0.1]]},
            H={"s": [[0.0], [0.0]], "u": [[0.0], [0.0]]},
        )
        cert, bound = self._family_bound(family_signal)
        x0 = [2.0, -1.5]
        inp = iss.sinusoid_input([0.7], omega=2.0)
        traj = iss.simulate(model.to_system_model(), family_signal, x0, inp, 1e-3)
        self._same_as_row_loop(bound, traj, x0, inp,
                               scalar_beta(cert, cert.dwell, *FAMILY_ENVELOPES)[1])
        # A bound far below the transient: every sample is reported.
        tight = replace(bound, beta=lambda r, s: 1e-3 * r * np.exp(-np.asarray(s)),
                        gamma=lambda s: 0.0)
        reports = self._same_as_row_loop(tight, traj, x0, inp)
        assert len(reports) == sum(len(seg.times) for seg in traj.segments)

    def test_fabricated_violation(self, family_signal, family_model):
        cert, bound = self._family_bound(family_signal)
        # Shrink beta far below the actual transient to force reports; this
        # beta ignores s and returns a scalar.
        tiny = replace(bound, beta=lambda r, s: 1e-9 * r, gamma=lambda s: 0.0)
        x0 = [5.0]
        traj = iss.simulate(family_model.to_system_model(), family_signal,
                            x0, iss.zero_input(), 1e-3)
        reports = iss_check(tiny, traj, x0, iss.zero_input())[0]
        assert reports and all(r.kind == "iss" for r in reports)
        self._same_as_row_loop(tiny, traj, x0, iss.zero_input())

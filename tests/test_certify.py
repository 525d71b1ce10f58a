import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import isscert as iss
from isscert.certify import DEFAULT_DINI_COEFF, FORMS, dwell_slack_verdict
from isscert.construct import decrease_check
from isscert.errors import DegenerateGapError, SignAmbiguousError
from isscert.simulate import Segment, Trajectory

from conftest import JUMP_KINDS, make_family_certificate, make_family_model, of_kind
import oracles


def scalar_cert(eta=-1.0, psi_eta=0.5, tau=1.0, delta=0.5, chi_c=1.0):
    stable = eta < 0
    partition = iss.ModePartition(
        frozenset({"a"}) if stable else frozenset(),
        frozenset() if stable else frozenset({"a"}),
    )
    return iss.Certificate(
        V={"a": iss.quadratic_v([[1.0]])},
        alpha1=iss.power_cf(1.0, 2.0),
        alpha2=iss.power_cf(1.0, 2.0),
        alpha3=iss.power_cf(1.0, 2.0),
        chi=iss.power_cf(chi_c, 2.0),
        phi={"a": iss.linear_rate(eta)},
        psi={"a": iss.linear_rate(psi_eta)},
        partition=partition,
        dwell=iss.DwellSpec({"a": tau}, delta),
    )


def scalar_traj(a=-1.0, x0=1.0, horizon=1.0, u=None, step=1e-3, instants=(), j=0.1):
    modes = ("a",) * (len(instants) + 1)
    sig = iss.SwitchingSignal(0.0, instants, modes, horizon)
    model = iss.LinearSystemModel(
        A={"a": [[a]]}, B={"a": [[1.0]]}, J={"a": [[j]]}, H={"a": [[0.0]]}
    ).to_system_model()
    inp = u if u is not None else iss.zero_input()
    return iss.simulate(model, sig, [x0], inp, step), inp


class TestSandwich:
    def test_exact_envelope_passes(self):
        cert = scalar_cert()
        traj, inp = scalar_traj()
        assert not of_kind(iss.check_trajectory(cert, traj, inp), "sandwich")

    def test_violation_reported(self):
        cert = scalar_cert()
        object.__setattr__(cert, "alpha1", iss.power_cf(2.0, 2.0))  # above V = x^2
        traj, inp = scalar_traj()
        reports = of_kind(iss.check_trajectory(cert, traj, inp), "sandwich")
        assert reports and set(reports.kind) == {"sandwich"}
        assert (reports.margin > 0).all()


class TestFlowImplication:
    def test_true_rate_passes(self):
        # V = x^2, flow a = -1 gives exactly dV/dt = -2 V with zero input.
        cert = scalar_cert(eta=-2.0)
        traj, inp = scalar_traj(a=-1.0)
        assert not of_kind(iss.check_trajectory(cert, traj, inp), "flow")

    def test_too_fast_rate_fails(self):
        cert = scalar_cert(eta=-3.0)
        traj, inp = scalar_traj(a=-1.0)
        reports = of_kind(iss.check_trajectory(cert, traj, inp), "flow")
        assert reports and set(reports.kind) == {"flow"}

    def test_threshold_gates_small_values(self):
        # With a large input the trajectory stays below chi(||u||inf),
        # so a wrong rate goes unchecked.
        cert = scalar_cert(eta=-3.0, chi_c=100.0)
        traj, inp = scalar_traj(a=-1.0, x0=0.5, u=iss.constant_input([1.0]))
        assert not of_kind(iss.check_trajectory(cert, traj, inp), "flow")

    def test_dini_tolerance_shrinks_with_step(self):
        # A marginal violation hides under the step-linear tolerance at a
        # coarse step and surfaces as the step shrinks.
        cert = scalar_cert(eta=-2.001)
        coarse, inp = scalar_traj(a=-1.0, step=0.1)
        fine, _ = scalar_traj(a=-1.0, step=1e-4)
        assert not of_kind(iss.check_trajectory(cert, coarse, inp), "flow")
        assert of_kind(iss.check_trajectory(cert, fine, inp), "flow")


class TestJumpImplication:
    def test_contraction_passes(self):
        cert = scalar_cert(psi_eta=0.5)
        traj, inp = scalar_traj(instants=(0.5,), j=0.1)  # V jumps by 0.01
        assert not of_kind(iss.check_trajectory(cert, traj, inp), *JUMP_KINDS)

    def test_expansion_fails(self):
        cert = scalar_cert(psi_eta=0.5)
        traj, inp = scalar_traj(instants=(0.5,), j=0.9)  # V jumps by 0.81 > 0.5
        reports = of_kind(iss.check_trajectory(cert, traj, inp), *JUMP_KINDS)
        assert reports and reports.kind[0] == "jump"

    def test_small_input_branch(self):
        cert = scalar_cert(psi_eta=1e-6, chi_c=100.0)
        traj, inp = scalar_traj(x0=0.1, u=iss.constant_input([1.0]), instants=(0.5,), j=1.0)
        # Pre-jump V sits below chi(1) = 100; post-jump V <= alpha3(1) = 1.
        assert not of_kind(iss.check_trajectory(cert, traj, inp), *JUMP_KINDS)


class TestDissipation:
    def test_additive_slack(self):
        # dV/dt = -2V + 2xu <= -2V + chi(||u||inf) with chi = s^2 + ... here
        # checked empirically: a generous chi absorbs the cross term.
        cert = scalar_cert(eta=-2.0, chi_c=10.0)
        traj, inp = scalar_traj(a=-1.0, u=iss.constant_input([1.0]))
        assert not of_kind(iss.check_trajectory(cert, traj, inp, "dissipation"), "flow", "jump")

    def test_no_gating(self):
        # Unlike the implication form, small V values are still checked
        # (with the step tolerance suppressed so tiny slopes are visible).
        cert = scalar_cert(eta=-5.0, chi_c=1e-9)
        traj, inp = scalar_traj(a=-1.0, x0=0.01)
        assert of_kind(iss.check_trajectory(cert, traj, inp, "dissipation", dini_coeff=0.0),
                       "flow", "jump")


# Item 1 of the linear dwell condition: two stable modes, q: eta = -0.1 and
# x+ = sqrt(e) x, p: eta = -10 and x+ = x, tau = (0.2, 0.01), delta = 0.2.
# The periodic signal q for 0.2, p for 0.01 grows V by e^0.88 a cycle.
ITEM_1 = {"eta": {"q": -0.1, "p": -10.0}, "log_mu": {"q": 1.0, "p": 0.0},
          "tau": {"q": 0.2, "p": 0.01}, "share": {"q": 0.2, "p": 0.01},
          "stretch": {"stable": 0.0, "unstable": 0.0},
          "stable": {"q": True, "p": True}, "delta": 0.2, "cycles": 30}
# Two more signals on which a weaker rule lets V grow: the jump sits on the
# fast stable mode q (ln mu_q = |eta_q| tau_q (1 - delta), its own rate's
# edge) while the slow mode p spends q's dwell budget; and the unstable time
# goes to the faster-growing mode u2 while both jump by the slower u1's edge.
REGRESSIONS = (ITEM_1, {
    "eta": {"q": -5.0, "p": -0.1}, "log_mu": {"q": 0.8, "p": 0.0},
    "tau": {"q": 0.2, "p": 0.01}, "share": {"q": 0.01, "p": 0.2},
    "stretch": {"stable": 0.0, "unstable": 0.0},
    "stable": {"q": True, "p": True}, "delta": 0.2, "cycles": 10,
}, {
    "eta": {"s": -1.0, "u1": 0.1, "u2": 2.0}, "log_mu": {"s": 0.8, "u1": -0.06, "u2": -0.06},
    "tau": {"s": 1.0, "u1": 0.5, "u2": 0.5}, "share": {"s": 1.0, "u1": 0.05, "u2": 1.0},
    "stretch": {"stable": 0.0, "unstable": 0.0},
    "stable": {"s": True, "u1": False, "u2": False}, "delta": 0.2, "cycles": 10,
})


def linear_rows(eta, mu, tau, delta, stable=None):
    """``linear_dwell_conditions`` with every mode left at t = 0 and the
    stable modes those of negative eta unless given."""
    stable = {p for p in eta if eta[p] < 0} if stable is None else set(stable)
    part = iss.ModePartition(frozenset(stable), frozenset(eta) - stable)
    return iss.linear_dwell_conditions(eta, mu, part, tau, delta, dict.fromkeys(eta, 0.0))


class TestLinearDwell:
    """The rule is compared in the multiplied scale: lhs = ln mu_q and rhs =
    eta_S tau_q (1 - delta), or -eta_U tau_p (1 + delta) out of an unstable
    mode.  With every |eta| equal that is the earlier closed form
    ln(mu)/|eta| <= tau (1 - delta) times |eta|."""

    def test_stable_frozen(self):
        # |eta| = 2: ln(2)/2 ~ 0.3466 <= 0.4, so ln 2 <= 0.8; at tau = 0.4,
        # ln(2)/2 > 0.32 and the report reads ln 2 > 2 * 0.32.
        assert not linear_rows({"a": -2.0}, {"a": 2.0}, {"a": 0.5}, 0.2)
        reports = linear_rows({"a": -2.0}, {"a": 2.0}, {"a": 0.4}, 0.2)
        assert reports.rows() == [("dwell-linear", 0.0, "a", math.log(2.0), 2.0 * 0.4 * 0.8,
                                   math.log(2.0) - 2.0 * 0.4 * 0.8)]

    def test_unstable_frozen(self):
        # |eta| = 1: -ln(0.2) ~ 1.609 >= tau (1 + delta) = 1.3, so
        # ln 0.2 <= -1.3; at tau = 1.3 the report reads ln 0.2 > -1.69.
        assert not linear_rows({"a": 1.0}, {"a": 0.2}, {"a": 1.0}, 0.3)
        reports = linear_rows({"a": 1.0}, {"a": 0.2}, {"a": 1.3}, 0.3)
        assert reports.kind.tolist() == ["dwell-linear"]
        assert reports.lhs[0] == math.log(0.2) and reports.rhs[0] == pytest.approx(-1.69)

    def test_contracting_jump_passes_whatever_the_rates(self):
        # eta_q = -2, eta_p = -1, mu_q = 0.5, tau_q = 0.1: a jump that halves
        # V needs no dwell.  The earlier closed form read
        # ln(0.5 e^(2 - 1))/2 ~ 0.153 > 0.08 here, a false alarm.
        assert not linear_rows({"q": -2.0, "p": -1.0}, {"q": 0.5, "p": 1.0},
                               {"q": 0.1, "p": 0.1}, 0.2)

    def test_item_1_refused_out_of_q(self):
        # eta_S = 0.1, the slower stable rate: ln e = 1 > 0.1 * 0.2 * 0.8.
        mu = {p: math.exp(v) for p, v in ITEM_1["log_mu"].items()}
        reports = linear_rows(ITEM_1["eta"], mu, ITEM_1["tau"], ITEM_1["delta"])
        assert reports.rows() == [("dwell-linear", 0.0, "q", 1.0, 0.1 * 0.2 * 0.8,
                                   1.0 - 0.1 * 0.2 * 0.8)]

    def test_the_smallest_stable_and_largest_unstable_rate_bind(self):
        # eta_S = 1 (not 3) and eta_U = 2 (not 0.5), whichever mode is left.
        eta = {"s1": -3.0, "s2": -1.0, "u1": 0.5, "u2": 2.0}
        tau = dict.fromkeys(eta, 1.0)
        edge = {"s1": 0.5, "s2": 0.5, "u1": -3.0, "u2": -3.0}  # 1 * 0.5 and -2 * 1.5
        mu = {p: math.exp(v) for p, v in edge.items()}
        assert not linear_rows(eta, mu, tau, 0.5)
        mu = {p: math.exp(v + 1e-6) for p, v in edge.items()}
        assert linear_rows(eta, mu, tau, 0.5).mode.tolist() == ["s1", "s2", "u1", "u2"]

    def test_sign_reports_come_first(self):
        reports = linear_rows({"a": 0.5, "b": -1.0}, {"a": 1.0, "b": 1.0},
                              {"a": 1.0, "b": 1.0}, 0.2, stable={"a", "b"})
        assert [row[:5] for row in reports.rows()][0] == ("rate-sign", 0.0, "a", 0.5, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(oracles.periodic_cases())
    @example(REGRESSIONS[0])
    @example(REGRESSIONS[1])
    @example(REGRESSIONS[2])
    def test_a_pass_bounds_every_periodic_signal(self, case):
        """Against the scalar comparison system: wherever the rule passes,
        ln V at the end of every visit of the periodic signal stays within
        eta_S (1 - delta) T_S + eta_U (1 + delta) T_U - delta (eta_S T_stab
        + eta_U T_unst) + c_sigma(t0) - c_sigma(t-), with T_S and T_U the
        signal's own dwell and leave slack."""
        sig, part, w, bound = oracles.periodic_dwell_bound(case)
        mu = {p: math.exp(v) for p, v in case["log_mu"].items()}
        reports = iss.linear_dwell_conditions(case["eta"], mu, part, case["tau"],
                                              case["delta"], dict.fromkeys(sig.modes[:-1], math.nan))
        broken = w > bound + 1e-9 * len(w) * (1 + np.abs(bound))
        assert not broken.any() or reports
        if case in REGRESSIONS:
            assert broken.any() and reports
        if case == ITEM_1:
            assert w[-1] > 0.87 * ITEM_1["cycles"]


class TestDwellConditions:
    def test_family_passes(self, family_signal, family_certificate):
        reports = iss.check_dwell_conditions(family_certificate, family_signal,
                                             [1.0, 100.0, 1e4])
        assert set(reports.kind) <= {"dwell-inconclusive"}

    def test_short_dwell_fails(self, family_signal):
        cert = make_family_certificate(family_signal)
        bad = iss.DwellSpec({"s": 1.0, "u": 5.0}, 0.2, cert.dwell.T_S, cert.dwell.T_U)
        from dataclasses import replace
        reports = iss.check_dwell_conditions(replace(cert, dwell=bad),
                                             family_signal, [1.0])
        assert set(reports.kind) == {"dwell-linear"}

    def test_non_finite_difference_is_inconclusive(self, family_signal, family_certificate):
        # Phi_s of power(-1, 40) is -inf below about 1.2e-8 (beyond the
        # floats): at a = 1e-12 every switch, out of s or into it, has a
        # non-finite transform difference and is inconclusive; a = 1 passes.
        cert = replace(family_certificate,
                       phi={**family_certificate.phi, "s": iss.power_rate(-1.0, 40.0)})
        reports = iss.check_dwell_conditions(cert, family_signal, [1e-12, 1.0])
        assert [row[:2] for row in reports.rows()] == \
            [("dwell-inconclusive", t) for t in family_signal.instants]
        assert np.isnan(reports.lhs).all() and np.isnan(reports.rhs).all()

    def test_argument_outside_the_domain_is_inconclusive(self, family_signal,
                                                         family_certificate):
        # psi_s = s^3 underflows to 0 at a = 1e-120 and overflows to inf at
        # a = 1e120, both outside Phi's domain: inconclusive at those levels
        # of every switch out of s, point by point; a = 1 passes.
        cert = replace(family_certificate,
                       psi={**family_certificate.psi, "s": iss.power_rate(1.0, 3.0)})
        reports = iss.check_dwell_conditions(cert, family_signal, [1e-120, 1.0, 1e120])
        out_of_s = family_signal.instants[::2]
        assert [row[:2] for row in reports.rows()] == \
            [("dwell-inconclusive", t) for t in out_of_s for _ in range(2)]
        # The same levels as an array give the same rows.
        same = iss.check_dwell_conditions(cert, family_signal, np.array([1e-120, 1.0, 1e120]))
        assert [row[:3] for row in same.rows()] == [row[:3] for row in reports.rows()]
        np.testing.assert_array_equal([same.lhs, same.rhs], [reports.lhs, reports.rhs])

    def test_grid_validation(self, family_signal, family_certificate):
        with pytest.raises(ValueError):
            iss.check_dwell_conditions(family_certificate, family_signal, [])
        with pytest.raises(ValueError):
            iss.check_dwell_conditions(family_certificate, family_signal, [-1.0])
        for grid in (np.empty(0), np.array([1.0, -1.0]), np.ones((2, 2))):
            with pytest.raises(ValueError):
                iss.check_dwell_conditions(family_certificate, family_signal, grid)


class TestClassification:
    """The declared partition must match the sign of each flow rate."""

    @staticmethod
    def certificate(phi):
        return iss.Certificate(
            V={"a": iss.quadratic_v([[1.0]])},
            alpha1=iss.power_cf(1.0, 2.0),
            alpha2=iss.power_cf(1.0, 2.0),
            alpha3=iss.power_cf(1.0, 2.0),
            chi=iss.power_cf(1.0, 2.0),
            phi={"a": phi},
            psi={"a": iss.linear_rate(0.5)},
            partition=iss.ModePartition(frozenset({"a"}), frozenset()),
            dwell=iss.DwellSpec({"a": 1.0}, 0.5),
        )

    def test_ambiguous_sign(self):
        with pytest.raises(SignAmbiguousError):
            self.certificate(iss.tabulated_rate([(1.0, -1.0), (2.0, 3.0)]))  # crosses zero

    def test_wrong_declaration_rejected(self):
        with pytest.raises(ValueError):
            self.certificate(iss.linear_rate(1.0))


class TestDecreasingCheck:
    def test_all_negative_nonexpansive(self):
        cert = scalar_cert(eta=-1.0, psi_eta=1.0)
        assert iss.check_decreasing_certificate(cert)

    def test_positive_rate_fails(self):
        cert = scalar_cert(eta=1.0, psi_eta=0.5)
        assert not iss.check_decreasing_certificate(cert)

    def test_expansive_jump_fails(self):
        cert = scalar_cert(eta=-1.0, psi_eta=1.5)
        assert not iss.check_decreasing_certificate(cert)

    def test_an_expansion_beyond_any_grid_fails(self):
        # 0.99 s^1.0001 > s only past 1.0101^10000, about 4e43.
        cert = replace(scalar_cert(), psi={"a": iss.power_rate(0.99, 1.0001)})
        assert oracles.decreasing_on_grid(cert)
        assert not iss.check_decreasing_certificate(cert)

    @pytest.mark.parametrize("psi, ok", [
        (iss.linear_rate(-1.0), True),
        (iss.linear_rate(1 + 1e-8), False),
        (iss.power_rate(1.0, 1.0), True),
        (iss.power_rate(-1 - 1e-8, 1.0), False),
        (iss.power_rate(0.5, 2.0), False),  # expands above s = 2
        (iss.power_rate(0.5, 0.5), False),  # expands below s = 1/4
        (iss.tabulated_rate([(1.0, 0.5), (2.0, 1.5)]), True),  # last slope 1
        (iss.tabulated_rate([(1.0, 1 + 1e-8), (2.0, 1.5)]), False),  # above s at s = 1
        (iss.tabulated_rate([(1.0, 0.5), (2.0, 1.5), (3.0, 2.5 + 1e-8)]), False),  # slope
    ])
    def test_closed_form_per_rate_kind(self, psi, ok):
        cert = replace(scalar_cert(), psi={"a": psi})
        assert iss.check_decreasing_certificate(cert) == ok

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.floats(0.01, 2.0).map(iss.linear_rate),
        st.builds(iss.power_rate, st.floats(0.01, 2.0), st.sampled_from([0.5, 1.0, 1.0001, 2.0])),
        # Increments (ds, slope) of a table, through the origin below the first point.
        st.lists(st.tuples(st.floats(0.1, 10.0), st.floats(0.3, 1.2)), min_size=2, max_size=5)
        .map(lambda steps: iss.tabulated_rate(zip(
            np.cumsum([ds for ds, _ in steps]), np.cumsum([ds * m for ds, m in steps]))))))
    def test_a_pass_passes_the_grid(self, psi):
        cert = replace(scalar_cert(), psi={"a": psi})
        assert not iss.check_decreasing_certificate(cert) or oracles.decreasing_on_grid(cert)


class TestConversion:
    def test_frozen_rate(self):
        cert = scalar_cert(eta=-1.0, psi_eta=1.0, tau=1.0, delta=0.5)
        conv = iss.dissipation_to_implication(cert)
        assert conv.phi["a"].eta == pytest.approx(-0.8)
        assert conv.psi["a"].eta == pytest.approx(math.exp(0.1))
        assert conv.dwell.delta == pytest.approx(0.25)

    def test_small_delta_continuity(self):
        cert = scalar_cert(eta=-1.0, psi_eta=1.0, tau=1.0, delta=1e-3)
        conv = iss.dissipation_to_implication(cert)
        assert conv.phi["a"].eta == pytest.approx(-1.0, abs=1e-3)
        assert conv.psi["a"].eta == pytest.approx(1.0, abs=1e-3)

    def test_degenerate_gap(self):
        cert = scalar_cert(eta=-1e-12, psi_eta=1.0, tau=1.0, delta=0.5)
        with pytest.raises(DegenerateGapError):
            iss.dissipation_to_implication(cert)

    def test_requires_linear(self):
        cert = scalar_cert()
        object.__setattr__(cert, "phi", {"a": iss.power_rate(-1.0, 2.0)})
        with pytest.raises(ValueError):
            iss.dissipation_to_implication(cert)

    @settings(max_examples=150, deadline=None)
    @given(
        st.floats(0.1, 5.0),
        st.floats(0.1, 3.0),
        st.floats(0.05, 0.95),
        st.floats(0.0, 1.0),
    )
    def test_converted_dwell_margin(self, eta_mag, tau, delta, frac):
        """If the original linear dwell condition holds with margin delta,
        the converted rates satisfy it with margin delta/2."""
        mu_t = math.exp(frac * eta_mag * tau * (1 - delta))
        cert = scalar_cert(eta=-eta_mag, psi_eta=mu_t, tau=tau, delta=delta)
        conv = iss.dissipation_to_implication(cert)
        assert not linear_rows({"a": conv.phi["a"].eta}, {"a": conv.psi["a"].eta},
                               {"a": tau}, conv.dwell.delta)


class TestLyapunovHelpers:
    def test_quadratic(self):
        v = iss.quadratic_v([[2.0, 0.0], [0.0, 1.0]])
        assert v(0.0, np.array([1.0, 2.0])) == pytest.approx(6.0)

    def test_norm_power(self):
        v = iss.norm_power_v(2.0, 3.0)
        assert v(0.0, np.array([3.0, 4.0])) == pytest.approx(250.0)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_a_state_alone_equals_its_row_in_a_stack(self, n):
        rng = np.random.default_rng(n)
        states = rng.normal(size=(200, n)) * rng.lognormal(0.0, 4.0, size=(200, 1))
        A = rng.normal(size=(n, n))
        for v in (iss.quadratic_v(A @ A.T + np.eye(n)), iss.norm_power_v(0.7, 2.3)):
            stack = v(np.zeros(200), states)
            assert stack.shape == (200,)
            alone = [v(0.0, x) for x in states]
            assert all(type(a) is float for a in alone)
            assert np.array_equal(stack, alone)
            assert np.array_equal(stack[50:120], v(np.zeros(70), states[50:120]))

    def test_quadratic_needs_a_square_matrix_and_states_to_match(self):
        with pytest.raises(ValueError, match="square"):
            iss.quadratic_v([[1.0, 0.0]])
        with pytest.raises(ValueError, match="2 components"):
            iss.quadratic_v(np.eye(2))(0.0, np.ones(3))


def every_kind_case():
    """x' = -2x + u, V = x^2, u = 0.1: the first jump happens above chi(0.1) =
    0.1 and the second below it, and the certificate is wrong everywhere:
    alpha1 sits above V, phi is too fast, psi too small and alpha3 tiny."""
    cert = iss.Certificate(
        V={"a": iss.quadratic_v([[1.0]])},
        alpha1=iss.power_cf(2.0, 2.0),
        alpha2=iss.power_cf(1.0, 2.0),
        alpha3=iss.power_cf(1e-6, 2.0),
        chi=iss.power_cf(10.0, 2.0),
        phi={"a": iss.linear_rate(-5.0)},
        psi={"a": iss.linear_rate(0.5)},
        partition=iss.ModePartition(frozenset({"a"}), frozenset()),
        dwell=iss.DwellSpec({"a": 1.0}, 0.5),
    )
    traj, inp = scalar_traj(a=-2.0, x0=3.0, horizon=3.0, u=iss.constant_input([0.1]),
                            step=1e-2, instants=(0.5, 2.5), j=0.9)
    return cert, traj, inp


class TestCheckTrajectory:
    def test_family_certificate(self, family_signal, family_certificate):
        traj = iss.simulate(make_family_model(), family_signal, [3.0],
                            iss.sinusoid_input([0.8], omega=1.3), 1e-3)
        inp = traj.input
        for form in FORMS:
            assert iss.check_trajectory(family_certificate, traj, inp, form).rows() == \
                oracles.trajectory_reports(family_certificate, traj, inp, form, DEFAULT_DINI_COEFF)

    def test_v_evaluated_once_per_sample(self):
        # V is elementwise over the rows of x: every sample is passed to it
        # exactly once, as a row of some call.
        cert, traj, inp = every_kind_case()
        rows = []
        quadratic = cert.V["a"]

        def counted(t, x):
            rows.extend(zip(np.atleast_1d(t).tolist(), np.atleast_2d(x).tolist()))
            return quadratic(t, x)

        counting = replace(cert, V={"a": counted})
        times, states, _, _ = traj.samples
        every_sample = sorted(zip(times.tolist(), states.tolist()))
        reports = iss.check_trajectory(counting, traj, inp)
        assert sorted(rows) == every_sample
        assert reports.rows() == iss.check_trajectory(cert, traj, inp).rows()
        rows.clear()
        iss.check_trajectory(counting, traj, inp, form="dissipation")
        assert sorted(rows) == every_sample

    def test_v_must_give_one_value_per_row(self):
        cert, traj, inp = every_kind_case()
        quadratic = cert.V["a"]
        for wrong in (lambda t, x: 1.0, lambda t, x: quadratic(t, x)[:, None]):
            with pytest.raises(ValueError, match="mode 'a'.*one per sample"):
                iss.check_trajectory(replace(cert, V={"a": wrong}), traj, inp)

    def test_unknown_form(self):
        cert, traj, inp = every_kind_case()
        with pytest.raises(ValueError):
            iss.check_trajectory(cert, traj, inp, form="disipation")


def jump_trajectory(v_pre, v_post):
    """Hand-built one-mode trajectory, V = |x|, with one jump at t = 1 taking
    V from v_pre to v_post."""
    pre, post = np.array([v_pre]), np.array([v_post])
    segments = (
        Segment("a", np.array([0.0, 0.5, 1.0]), np.array([[v_pre], [v_pre], pre])),
        Segment("a", np.array([1.0, 1.5, 2.0]), np.array([post, [v_post], [v_post]])),
    )
    sig = iss.SwitchingSignal(0.0, (1.0,), ("a", "a"), 2.0)
    return sig, Trajectory(segments, iss.zero_input(), 0.5)


class TestRelativeJumpTolerance:
    """Jumps are flagged above rhs (1 + REL_TOL) in both the
    certificate checks and the decreasing-function check: at rhs = 1e3 a
    relative excess of 1e-10 passes and one of 1e-6 is flagged."""

    RHS = 1e3

    def certificate(self):
        return iss.Certificate(
            V={"a": iss.norm_power_v(1.0, 1.0)},
            alpha1=iss.linear_cf(1.0),
            alpha2=iss.linear_cf(1.0),
            alpha3=iss.linear_cf(1.0),
            chi=iss.linear_cf(1.0),
            phi={"a": iss.linear_rate(-1.0)},
            psi={"a": iss.linear_rate(1.0)},
            partition=iss.ModePartition(frozenset({"a"}), frozenset()),
            dwell=iss.DwellSpec({"a": 1.0}, 0.5, 1.0, 0.0),
        )

    @pytest.mark.parametrize("excess, flagged", [(1e-10, False), (1e-6, True)])
    def test_certify(self, excess, flagged):
        _, traj = jump_trajectory(self.RHS, self.RHS * (1 + excess))
        reports = of_kind(iss.check_trajectory(self.certificate(), traj, iss.zero_input()),
                          *JUMP_KINDS)
        assert bool(reports) == flagged
        assert set(reports.kind) <= {"jump"} and (reports.rhs == self.RHS).all()

    @pytest.mark.parametrize("excess, flagged", [(1e-10, False), (1e-6, True)])
    def test_construct(self, excess, flagged):
        cert = self.certificate()
        sig, traj = jump_trajectory(self.RHS, self.RHS)
        dec = iss.DecreasingCertificate(cert, sig)
        w_pre = dec.compose(self.RHS, "a", "a", dec.h(1.0, side="left"))
        # The post-jump V whose W is w_pre (1 + excess).
        tr, h_post = dec.transforms["a"], dec.h(1.0)
        v_post = tr.inverse(tr.value(w_pre * (1 + excess)) - h_post)
        _, traj = jump_trajectory(self.RHS, v_post)
        reports, _ = decrease_check(dec, traj, iss.zero_input())
        jumps = of_kind(reports, "jump")
        assert bool(jumps) == flagged
        assert jumps.rhs == pytest.approx([self.RHS] * len(jumps), rel=1e-3)


class TestHomogeneity:
    """On the rotation x' = [[-0.1, 1], [-1, -0.1]] x with the jump x+ = x/2
    at t = 1, V = x'x and power-2 comparison functions, every rule is
    homogeneous in x0, so each kind has the same rows from c (0.3, 0.4)
    whatever c is: none for the true certificate, and all of them for a
    break of 1e-6 relative planted in psi or in alpha2."""

    MODEL = iss.LinearSystemModel(A={"a": [[-0.1, 1.0], [-1.0, -0.1]]}, B={"a": [[0.0], [0.0]]},
                                  J={"a": [[0.5, 0.0], [0.0, 0.5]]}, H={"a": [[0.0], [0.0]]})
    SIGNAL = iss.SwitchingSignal(0.0, (1.0,), ("a", "a"), 2.0)

    def certificate(self, psi_eta=0.25, alpha2_c=1.0):
        square = iss.power_cf(1.0, 2.0)
        return iss.Certificate(
            V={"a": iss.quadratic_v(np.eye(2))},
            alpha1=square,
            alpha2=iss.power_cf(alpha2_c, 2.0),
            alpha3=square,
            chi=square,
            phi={"a": iss.linear_rate(-0.1)},
            psi={"a": iss.linear_rate(psi_eta)},
            partition=iss.ModePartition(frozenset({"a"}), frozenset()),
            dwell=iss.DwellSpec({"a": 1.0}, 0.2),
        )

    @pytest.mark.parametrize("c", [10.0**k for k in range(-4, 6)])
    @pytest.mark.parametrize("planted, rows", [
        ({}, {}),
        ({"psi_eta": 0.25 * (1 - 1e-6)}, {"jump": 1}),
        ({"alpha2_c": 1 - 1e-6}, {"sandwich": 2002}),
    ], ids=["true", "psi", "alpha2"])
    def test_rows_per_kind_do_not_depend_on_the_scale(self, c, planted, rows):
        traj = iss.simulate(self.MODEL, self.SIGNAL, [0.3 * c, 0.4 * c], iss.zero_input(), 1e-3)
        reports = iss.check_trajectory(self.certificate(**planted), traj, iss.zero_input())
        assert Counter(reports.kind.tolist()) == rows


class TestLooserDwellSlack:
    """The dwell rule and the slack verdict compare relative to their own
    size, looser than the former absolute 1e-9 above 1, and still catch a
    break of 1e-8 relative there."""

    @pytest.mark.parametrize("excess, flagged", [(0.0, False), (1e-8, True)])
    def test_linear_rule(self, excess, flagged):
        # ln mu = 10 (1 + excess) against eta_S tau (1 - delta) = 10.
        reports = iss.linear_dwell_conditions({"a": -10.0}, {"a": math.exp(10.0 * (1 + excess))},
                                              iss.ModePartition(frozenset({"a"}), frozenset()),
                                              {"a": 1.0}, 0.0, {"a": 1.0})
        assert bool(reports) == flagged

    @pytest.mark.parametrize("stable", [True, False])
    @pytest.mark.parametrize("excess, flagged", [(0.0, False), (1e-8, True)])
    def test_sampled_rule(self, stable, excess, flagged):
        # Phi = ln(v) / 2 (a power rate with k = 1), so Phi(psi(a)) - Phi(a)
        # = ln(mu) / 2 at every level: out of a stable mode it may reach
        # tau (1 - delta) = 10, out of an unstable one it must stay at most
        # -tau (1 + delta) = -30; the excess moves it past by 1e-8 relative.
        sign = -1.0 if stable else 1.0
        limit = 10.0 if stable else 30.0
        modes = frozenset({"a"})
        cert = iss.Certificate(
            V={"a": iss.quadratic_v([[1.0]])},
            alpha1=iss.power_cf(1.0, 2.0),
            alpha2=iss.power_cf(1.0, 2.0),
            alpha3=iss.power_cf(1.0, 2.0),
            chi=iss.power_cf(1.0, 2.0),
            phi={"a": iss.power_rate(2.0 * sign, 1.0)},
            psi={"a": iss.linear_rate(math.exp(-2 * sign * limit * (1 - sign * excess)))},
            partition=iss.ModePartition(modes if stable else frozenset(),
                                    frozenset() if stable else modes),
            dwell=iss.DwellSpec({"a": 20.0}, 0.5),
        )
        sig = iss.SwitchingSignal(0.0, (1.0,), ("a", "a"), 2.0)
        reports = iss.check_dwell_conditions(cert, sig, [1.0])
        assert set(reports.kind) == ({"dwell-condition"} if flagged else set())

    @pytest.mark.parametrize("excess, fits", [(0.0, True), (1e-10, True), (1e-8, False)])
    def test_slack_verdict_scales_with_the_times(self, excess, fits):
        # Slack beyond T_S by 1e-10 of the largest |t| fits, though it is
        # more than 1e-9 of T_S; by 1e-8 of it, it does not.
        sig = iss.SwitchingSignal(1000.0, (1000.5,), ("a", "b"), 1001.0)
        part = iss.ModePartition(frozenset({"a", "b"}), frozenset())
        tau = {"a": 2.0, "b": 2.0}
        slack = iss.mdadt_slack(sig, part, tau)
        cert = replace(scalar_cert(), V={p: iss.quadratic_v([[1.0]]) for p in "ab"},
                       phi={p: iss.linear_rate(-1.0) for p in "ab"},
                       psi={p: iss.linear_rate(0.5) for p in "ab"}, partition=part,
                       dwell=iss.DwellSpec(tau, 0.5, slack - excess * 1001.0, 0.0))
        assert dwell_slack_verdict(cert, sig)[2] == fits

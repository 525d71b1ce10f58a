import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import isscert as iss
from isscert.errors import AsymmetricError
from isscert.lmi import PSD_TOL


def scalar_system(a=-1.0, b=1.0, j=0.5, h=0.0):
    return iss.LinearSystemModel(
        A={"a": [[a]]}, B={"a": [[b]]}, J={"a": [[j]]}, H={"a": [[h]]}
    )


def scalar_qc(eta=-1.0, mu=0.25, m=1.0, q=1.0):
    return iss.QuadraticCertificate(
        M={"a": [[m]]}, Q={"a": [[q]]}, eta={"a": eta}, mu={"a": mu}
    )


class TestJacobi:
    def test_oracle_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = rng.integers(1, 7)
            S = rng.standard_normal((n, n))
            S = (S + S.T) / 2
            mine = iss.jacobi_eigenvalues(S)
            ref = np.linalg.eigvalsh(S)
            assert mine == pytest.approx(ref, abs=1e-10)

    def test_diagonal(self):
        assert iss.jacobi_eigenvalues(np.diag([3.0, -1.0, 2.0])) == pytest.approx(
            [-1.0, 2.0, 3.0])

    def test_asymmetric_rejected(self):
        with pytest.raises(AsymmetricError):
            iss.jacobi_eigenvalues([[0.0, 1.0], [0.0, 0.0]])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            iss.jacobi_eigenvalues(np.zeros((2, 3)))

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, (4, 4), elements=st.floats(-10, 10)))
    def test_oracle_property(self, raw):
        S = (raw + raw.T) / 2
        assert iss.jacobi_eigenvalues(S) == pytest.approx(
            np.linalg.eigvalsh(S), abs=1e-9)


class TestSemidefiniteTolerance:
    def test_scaled_roundoff_accepted(self):
        # 1e8 Q diag(-1, 0) Q^T is negative semidefinite; its computed top
        # eigenvalue is roundoff of order 1e8 * eps, above an absolute 1e-9
        # for some rotations but tiny against the block's norm.
        tops = []
        for seed in range(20):
            Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((2, 2)))
            S = 1e8 * Q @ np.diag([-1.0, 0.0]) @ Q.T
            ok, top = iss.is_negative_semidefinite((S + S.T) / 2)
            assert ok
            tops.append(top)
        assert max(tops) > PSD_TOL

    def test_exact_tiny_eigenvalue_accepted(self):
        ok, top = iss.is_negative_semidefinite(np.diag([-1e8, 5e-9]))
        assert ok and top == 5e-9

    def test_unit_block_positive_eigenvalue_rejected(self):
        Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))
        S = Q @ np.diag([-1.0, -0.5, 1e-6]) @ Q.T
        ok, top = iss.is_negative_semidefinite((S + S.T) / 2)
        assert not ok and top == pytest.approx(1e-6, rel=1e-6)

    def test_zero_block_accepted(self):
        assert iss.is_negative_semidefinite(np.zeros((2, 2))) == (True, 0.0)


class TestFlowBlock:
    def test_scalar_feasible(self):
        # A = -1, B = 1, M = Q = 1, eta = -1: block [[-1, 1], [1, -1]]
        # with eigenvalues {0, -2}.
        model, qc = scalar_system(), scalar_qc(eta=-1.0)
        block = iss.flow_block(model, qc, "a")
        assert iss.jacobi_eigenvalues(block) == pytest.approx([-2.0, 0.0])
        ok, top = iss.check_flow_lmi(model, qc, "a")
        assert ok and top == pytest.approx(0.0, abs=1e-12)

    def test_scalar_infeasible(self):
        ok, top = iss.check_flow_lmi(scalar_system(), scalar_qc(eta=-2.0), "a")
        assert not ok and top > 0


class TestJumpBlock:
    def test_scalar_feasible(self):
        ok, top = iss.check_jump_lmi(scalar_system(j=0.5, h=0.0),
                                     scalar_qc(mu=0.25), ("a", "a"))
        assert ok and top == pytest.approx(0.0, abs=1e-12)

    def test_scalar_infeasible(self):
        ok, top = iss.check_jump_lmi(scalar_system(j=1.0, h=0.0),
                                     scalar_qc(mu=0.5), ("a", "a"))
        assert not ok and top == pytest.approx(0.5)

    def test_identity_jump(self):
        ok, _ = iss.check_jump_lmi(scalar_system(j=1.0, h=0.0),
                                   scalar_qc(mu=1.0), ("a", "a"))
        assert ok


class TestValidation:
    def test_pd_required(self):
        with pytest.raises(ValueError):
            iss.QuadraticCertificate(M={"a": [[0.0]]}, Q={"a": [[1.0]]},
                                     eta={"a": -1.0}, mu={"a": 1.0})

    def test_symmetric_required(self):
        with pytest.raises(AsymmetricError):
            iss.QuadraticCertificate(M={"a": [[1.0, 1.0], [0.0, 1.0]]},
                                     Q={"a": [[1.0, 0.0], [0.0, 1.0]]},
                                     eta={"a": -1.0}, mu={"a": 1.0})

    def test_positive_mu_required(self):
        with pytest.raises(ValueError):
            scalar_qc(mu=0.0)

    def test_lambda_max(self):
        qc = iss.QuadraticCertificate(
            M={"a": np.eye(2)}, Q={"a": np.diag([1.0, 3.0])},
            eta={"a": -1.0}, mu={"a": 1.0})
        assert qc.lambda_max == pytest.approx(3.0)


class TestRateConditions:
    def _spec(self, tau=1.0, delta=0.2):
        return (iss.ModePartition(frozenset({"a"}), frozenset()),
                iss.DwellSpec({"a": tau}, delta),
                iss.ModeChangeSet(frozenset({("a", "a")})))

    def test_stable_pass(self):
        part, dwell, qs = self._spec()
        # ln(0.25)/1 < 0 <= 0.8
        assert iss.check_rate_conditions(scalar_qc(eta=-1.0, mu=0.25),
                                         part, dwell, qs) == []

    def test_stable_dwell_fail(self):
        part, dwell, qs = self._spec(tau=0.5, delta=0.5)
        # ln(2)/1 ~ 0.693 > 0.25
        reports = iss.check_rate_conditions(scalar_qc(eta=-1.0, mu=2.0),
                                            part, dwell, qs)
        assert reports and reports[0].kind == "rate-dwell"

    def test_sign_fail(self):
        part, dwell, qs = self._spec()
        reports = iss.check_rate_conditions(scalar_qc(eta=0.5, mu=0.25),
                                            part, dwell, qs)
        assert reports and reports[0].kind == "rate-sign"

    def test_unstable_pass(self):
        part = iss.ModePartition(frozenset(), frozenset({"a"}))
        dwell = iss.DwellSpec({"a": 1.0}, 0.3)
        qs = iss.ModeChangeSet(frozenset({("a", "a")}))
        # -ln(0.2)/1 ~ 1.609 >= 1.3
        assert iss.check_rate_conditions(scalar_qc(eta=1.0, mu=0.2),
                                         part, dwell, qs) == []

    def test_missing_mode(self):
        part, dwell, _ = self._spec()
        qs = iss.ModeChangeSet(frozenset({("b", "a")}))
        with pytest.raises(ValueError):
            iss.check_rate_conditions(scalar_qc(), part, dwell, qs)


class TestRescaling:
    def test_block_scale_invariance(self):
        rng = np.random.default_rng(17)
        model = iss.LinearSystemModel(
            A={"a": [[-1.0, 0.5], [0.0, -2.0]]},
            B={"a": [[1.0], [0.5]]},
            J={"a": 0.5 * np.eye(2)},
            H={"a": [[0.0], [0.0]]},
        )
        M = np.array([[2.0, 0.3], [0.3, 1.0]])
        qc = iss.QuadraticCertificate(M={"a": M}, Q={"a": np.eye(1)},
                                      eta={"a": -0.5}, mu={"a": 0.5})
        ok, _ = iss.check_flow_lmi(model, qc, "a")
        for c in (0.1, 3.0, 42.0):
            scaled = iss.QuadraticCertificate(
                M={"a": c * M}, Q={"a": c * np.eye(1)},
                eta={"a": -0.5}, mu={"a": 0.5})
            ok_c, _ = iss.check_flow_lmi(model, scaled, "a")
            assert ok_c == ok
            ok_j, _ = iss.check_jump_lmi(model, scaled, ("a", "a"))
            assert ok_j == iss.check_jump_lmi(model, qc, ("a", "a"))[0]


class TestSynthesize:
    def _spec(self, stable=True, tau=1.0, delta=0.2):
        part = iss.ModePartition(
            frozenset({"a"}) if stable else frozenset(),
            frozenset() if stable else frozenset({"a"}),
        )
        return part, iss.DwellSpec({"a": tau}, delta), \
            iss.ModeChangeSet(frozenset({("a", "a")}))

    def test_scalar_stable(self):
        model = scalar_system(a=-1.0, j=0.5)
        part, dwell, qs = self._spec()
        qc = iss.synthesize(model, part, qs, dwell)
        assert isinstance(qc, iss.QuadraticCertificate)
        assert qc.eta["a"] < 0
        ok, _ = iss.check_flow_lmi(model, qc, "a")
        assert ok
        ok, _ = iss.check_jump_lmi(model, qc, ("a", "a"))
        assert ok

    def test_marginal_mode_infeasible(self):
        model = scalar_system(a=0.0)
        part, dwell, qs = self._spec(stable=True)
        result = iss.synthesize(model, part, qs, dwell)
        assert isinstance(result, iss.Infeasible)

    def test_unstable_mode(self):
        model = scalar_system(a=0.4, j=0.1)
        part, dwell, qs = self._spec(stable=False, tau=0.25, delta=0.2)
        qc = iss.synthesize(model, part, qs, dwell)
        assert isinstance(qc, iss.QuadraticCertificate)
        assert qc.eta["a"] > 0

    def test_identity_jump_mu_near_one(self):
        model = scalar_system(a=-1.0, j=1.0)
        part, dwell, qs = self._spec()
        qc = iss.synthesize(model, part, qs, dwell)
        assert isinstance(qc, iss.QuadraticCertificate)
        assert qc.mu["a"] == pytest.approx(1.0, rel=1e-6)

    def test_two_mode_family(self, family_model):
        part = iss.ModePartition(frozenset({"s"}), frozenset({"u"}))
        dwell = iss.DwellSpec({"s": 1.0, "u": 0.25}, 0.2)
        qs = iss.ModeChangeSet(frozenset({("u", "s"), ("s", "u")}))
        qc = iss.synthesize(family_model, part, qs, dwell)
        assert isinstance(qc, iss.QuadraticCertificate)
        for p in ("s", "u"):
            ok, _ = iss.check_flow_lmi(family_model, qc, p)
            assert ok
        for pair in (("u", "s"), ("s", "u")):
            ok, _ = iss.check_jump_lmi(family_model, qc, pair)
            assert ok
        assert iss.check_rate_conditions(qc, part, dwell, qs) == []

    def test_stable_rate_at_the_closed_form_edge(self, family_model):
        # A_s = -1.25, so M_s = 0.4 and the first guess 2 * A_s = -2.5 lies
        # past the edge -(1 - 1e-9) / 0.4, where the top eigenvalue
        # -1 - eta * M_s of -I - eta M_s reaches -1e-9: eta_s is 0.99 of it.
        part = iss.ModePartition(frozenset({"s"}), frozenset({"u"}))
        dwell = iss.DwellSpec({"s": 1.0, "u": 0.25}, 0.2)
        qs = iss.ModeChangeSet(frozenset({("u", "s"), ("s", "u")}))
        qc = iss.synthesize(family_model, part, qs, dwell)
        edge = -(1 - 1e-9) / qc.M["s"][0, 0]
        assert 2 * family_model.A["s"][0, 0] < edge
        assert qc.eta["s"] == pytest.approx(0.99 * edge, rel=1e-15)
        assert iss.check_flow_lmi(family_model, qc, "s")[0]

    def test_dissipation_along_trajectory(self, family_model, family_signal):
        # The flow block implies dV/dt <= eta V + u^T Q u pointwise; verify
        # with forward differences on a simulated run.
        part = iss.ModePartition(frozenset({"s"}), frozenset({"u"}))
        dwell = iss.DwellSpec({"s": 1.0, "u": 0.25}, 0.2)
        qs = iss.ModeChangeSet(frozenset({("u", "s"), ("s", "u")}))
        qc = iss.synthesize(family_model, part, qs, dwell)
        inp = iss.sinusoid_input([0.5], omega=1.0)
        traj = iss.simulate(family_model.to_system_model(), family_signal,
                            [2.0], inp, 1e-3)
        for seg in traj.segments:
            M = qc.M[seg.mode]
            Q = qc.Q[seg.mode]
            eta = qc.eta[seg.mode]
            vs = np.einsum("ij,jk,ik->i", seg.states, M, seg.states)
            for i in range(len(seg.times) - 1):
                h = seg.times[i + 1] - seg.times[i]
                if h <= 0:
                    continue
                u = inp(float(seg.times[i]))
                slope = (vs[i + 1] - vs[i]) / h
                rhs = eta * vs[i] + float(u @ Q @ u) + 10.0 * h
                assert slope <= rhs + 1e-9

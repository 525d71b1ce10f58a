import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import isscert as iss
import oracles
from isscert.errors import AsymmetricError
from isscert.tolerance import REL_TOL


def scalar_system(a=-1.0, b=1.0, j=0.5, h=0.0):
    return iss.LinearSystemModel(
        A={"a": [[a]]}, B={"a": [[b]]}, J={"a": [[j]]}, H={"a": [[h]]}
    )


def scalar_qc(eta=-1.0, mu=0.25, m=1.0, q=1.0):
    return iss.QuadraticCertificate(
        M={"a": [[m]]}, Q={"a": [[q]]}, eta={"a": eta}, mu={"a": mu}
    )


def verdicts(model, qc, pair=("a", "a")):
    """The flow verdict of every mode and the jump verdict of ``pair`` (new
    mode, old mode), from ``check_blocks`` with ``pair`` as the one mode change."""
    flow, jump = iss.check_blocks(model, qc, iss.ModeChangeSet(frozenset({pair})))
    return flow, jump[pair]


class TestEigenvalues:
    def test_oracle_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = rng.integers(1, 7)
            S = rng.standard_normal((n, n))
            S = (S + S.T) / 2
            mine = iss.eigenvalues(S)
            ref = np.linalg.eigvalsh(S)
            assert mine == pytest.approx(ref, abs=1e-10)

    def test_diagonal(self):
        assert iss.eigenvalues(np.diag([3.0, -1.0, 2.0])) == pytest.approx(
            [-1.0, 2.0, 3.0])

    def test_asymmetric_rejected(self):
        with pytest.raises(AsymmetricError):
            iss.eigenvalues([[0.0, 1.0], [0.0, 0.0]])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            iss.eigenvalues(np.zeros((2, 3)))

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, (4, 4), elements=st.floats(-10, 10)))
    def test_oracle_property(self, raw):
        S = (raw + raw.T) / 2
        assert iss.eigenvalues(S) == pytest.approx(
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
        assert max(tops) > REL_TOL

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

    def test_nan_top_eigenvalue_rejected(self):
        # An infinite entry leaves LAPACK with NaN eigenvalues, which never
        # exceed anything, and still fail.
        with np.errstate(invalid="ignore"):
            ok, top = iss.is_negative_semidefinite(np.diag([math.inf, -1.0]))
        assert not ok and math.isnan(top)


class TestFlowBlock:
    def test_scalar_feasible(self):
        # A = -1, B = 1, M = Q = 1, eta = -1: block [[-1, 1], [1, -1]]
        # with eigenvalues {0, -2}.
        model, qc = scalar_system(), scalar_qc(eta=-1.0)
        block = iss.flow_blocks(model, qc.M, qc.Q, qc.eta, ["a"])[0]
        assert iss.eigenvalues(block) == pytest.approx([-2.0, 0.0])
        ok, top = verdicts(model, qc)[0]["a"]
        assert ok and top == pytest.approx(0.0, abs=1e-12)

    def test_scalar_infeasible(self):
        ok, top = verdicts(scalar_system(), scalar_qc(eta=-2.0))[0]["a"]
        assert not ok and top > 0


class TestJumpBlock:
    def test_scalar_feasible(self):
        ok, top = verdicts(scalar_system(j=0.5, h=0.0), scalar_qc(mu=0.25))[1]
        assert ok and top == pytest.approx(0.0, abs=1e-12)

    def test_scalar_infeasible(self):
        ok, top = verdicts(scalar_system(j=1.0, h=0.0), scalar_qc(mu=0.5))[1]
        assert not ok and top == pytest.approx(0.5)

    def test_identity_jump(self):
        ok, _ = verdicts(scalar_system(j=1.0, h=0.0), scalar_qc(mu=1.0))[1]
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


def rate_rows(qc, part, dwell, qs):
    """The linear dwell condition as ``isscert lmi`` applies it: over every
    mode of the certificate, one report per mode that a pair of ``qs`` leaves."""
    left = dict.fromkeys(sorted({q for _, q in qs.pairs}), math.nan)
    return iss.linear_dwell_conditions(qc.eta, qc.mu, part, dwell.tau, dwell.delta, left)


class TestRateConditions:
    """Rows in the multiplied scale (lhs ln mu_q): with one mode, the earlier
    ln(mu_q)/|eta_p| times |eta| = 1, so the frozen numbers stand."""

    def _spec(self, tau=1.0, delta=0.2):
        return (iss.ModePartition(frozenset({"a"}), frozenset()),
                iss.DwellSpec({"a": tau}, delta),
                iss.ModeChangeSet(frozenset({("a", "a")})))

    def test_stable_pass(self):
        part, dwell, qs = self._spec()
        # ln(0.25)/1 < 0 <= 0.8
        assert not rate_rows(scalar_qc(eta=-1.0, mu=0.25), part, dwell, qs)

    def test_stable_dwell_fail(self):
        part, dwell, qs = self._spec(tau=0.5, delta=0.5)
        # ln(2)/1 ~ 0.693 > 0.25
        reports = rate_rows(scalar_qc(eta=-1.0, mu=2.0), part, dwell, qs)
        assert [row[:1] + row[2:] for row in reports.rows()] == \
            [("dwell-linear", "a", math.log(2.0), 0.25, math.log(2.0) - 0.25)]

    def test_sign_fail(self):
        part, dwell, qs = self._spec()
        reports = rate_rows(scalar_qc(eta=0.5, mu=0.25), part, dwell, qs)
        assert reports and reports.kind[0] == "rate-sign"

    def test_unstable_pass(self):
        part = iss.ModePartition(frozenset(), frozenset({"a"}))
        dwell = iss.DwellSpec({"a": 1.0}, 0.3)
        qs = iss.ModeChangeSet(frozenset({("a", "a")}))
        # -ln(0.2)/1 ~ 1.609 >= 1.3
        assert not rate_rows(scalar_qc(eta=1.0, mu=0.2), part, dwell, qs)

    def test_missing_mode(self):
        part, dwell, _ = self._spec()
        qs = iss.ModeChangeSet(frozenset({("a", "b")}))
        with pytest.raises(KeyError):
            rate_rows(scalar_qc(), part, dwell, qs)


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
        ok, _ = verdicts(model, qc)[0]["a"]
        for c in (0.1, 3.0, 42.0):
            scaled = iss.QuadraticCertificate(
                M={"a": c * M}, Q={"a": c * np.eye(1)},
                eta={"a": -0.5}, mu={"a": 0.5})
            ok_c, _ = verdicts(model, scaled)[0]["a"]
            assert ok_c == ok
            ok_j, _ = verdicts(model, scaled)[1]
            assert ok_j == verdicts(model, qc)[1][0]


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
        ok, _ = verdicts(model, qc)[0]["a"]
        assert ok
        ok, _ = verdicts(model, qc)[1]
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
            ok, _ = verdicts(family_model, qc, ("s", "u"))[0][p]
            assert ok
        for pair in (("u", "s"), ("s", "u")):
            ok, _ = verdicts(family_model, qc, pair)[1]
            assert ok
        assert not rate_rows(qc, part, dwell, qs)

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
        assert verdicts(family_model, qc, ("u", "s"))[0]["s"][0]

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


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def synth_shaped(seed, n):
    """Two Hurwitz and two unstable modes with every ordered pair of distinct
    modes admissible, as in the benchmark's ``lmi_synth`` systems."""
    rng = np.random.default_rng(seed)
    A, B, J, H = {}, {}, {}, {}
    for p in ("s1", "s2", "u1", "u2"):
        Q = _orthogonal(rng, n)
        if p.startswith("s"):
            S = rng.standard_normal((n, n))
            S = (S - S.T) / 2
            S *= 0.5 / max(np.linalg.norm(S, 2), 1e-12)
            A[p] = Q @ np.diag(rng.uniform(-2.0, -0.5, n)) @ Q.T + S
        else:
            lam = rng.uniform(-1.0, 0.5, n)
            lam[0] = rng.uniform(0.2, 0.5)
            A[p] = Q @ np.diag(lam) @ Q.T
        b = rng.standard_normal((n, 1))
        B[p] = b / np.linalg.norm(b)
        J[p] = 0.5 * _orthogonal(rng, n)
        H[p] = 0.1 * rng.standard_normal((n, 1))
    model = iss.LinearSystemModel(A=A, B=B, J=J, H=H)
    part = iss.ModePartition(frozenset({"s1", "s2"}), frozenset({"u1", "u2"}))
    dwell = iss.DwellSpec({"s1": 3.0, "s2": 3.0, "u1": 0.05, "u2": 0.05}, 0.2)
    qs = iss.ModeChangeSet(frozenset((p, q) for p in A for q in A if p != q))
    return model, part, dwell, qs


class TestStackedBlocks:
    """The stacked blocks against the one-block-at-a-time oracle, bit for bit."""

    @pytest.mark.parametrize("n", [4, 16])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_synthesis_matches_the_per_mode_oracle(self, seed, n):
        # Seeds 4 at n = 4 and 5 at n = 16 end in a rate condition.
        model, part, dwell, qs = synth_shaped(seed, n)
        qc = iss.synthesize(model, part, qs, dwell)
        ref = oracles.synthesize_per_mode(model, part, qs, dwell)
        if isinstance(ref, iss.Infeasible):
            assert qc == ref
            return
        assert isinstance(qc, iss.QuadraticCertificate)
        for name in ("M", "Q"):
            mine, theirs = getattr(qc, name), getattr(ref, name)
            assert list(mine) == list(theirs)
            assert all(np.array_equal(mine[p], theirs[p]) for p in mine)
        assert qc.eta == ref.eta and qc.mu == ref.mu
        assert qc.lambda_max == ref.lambda_max
        assert qc.blocks == oracles.block_verdicts(model, ref, qs.pairs)
        assert ref.blocks is None

    @pytest.mark.parametrize("n", [4, 16])
    def test_verdicts_and_blocks_match_the_oracle(self, n):
        model, part, dwell, qs = synth_shaped(8, n)
        qc = iss.synthesize(model, part, qs, dwell)
        # A perturbed certificate, so that some blocks fail and some pass.
        rng = np.random.default_rng(n)
        bent = iss.QuadraticCertificate(
            qc.M, qc.Q, {p: e + rng.uniform(-1, 1) for p, e in qc.eta.items()},
            {p: v * rng.uniform(0.5, 1.5) for p, v in qc.mu.items()})
        flow, jump = iss.check_blocks(model, bent, qs)
        assert (flow, jump) == oracles.block_verdicts(model, bent, qs.pairs)
        assert {ok for ok, _ in (*flow.values(), *jump.values())} == {True, False}
        assert list(flow) == sorted(model.A) and list(jump) == sorted(qs.pairs)
        modes, pairs = sorted(model.A), sorted(qs.pairs)
        stack = iss.flow_blocks(model, bent.M, bent.Q, bent.eta, modes)
        assert all(np.array_equal(stack[i], oracles.flow_block(model, bent, p))
                   for i, p in enumerate(modes))
        stack = iss.jump_blocks(model, bent.M, bent.Q, bent.mu, pairs)
        assert all(np.array_equal(stack[i], oracles.jump_block(model, bent, pair))
                   for i, pair in enumerate(pairs))

    def test_one_eigenvalue_call(self, monkeypatch):
        from isscert import lmi

        model, part, dwell, qs = synth_shaped(1, 4)
        qc = iss.synthesize(model, part, qs, dwell)
        shapes = []
        solve = lmi.eigenvalues

        def recorded(S):
            shapes.append(np.shape(S))
            return solve(S)
        monkeypatch.setattr(lmi, "eigenvalues", recorded)
        iss.check_blocks(model, qc, qs)
        assert shapes == [(4 + 12, 5, 5)]

    def test_no_pairs(self):
        model, part, dwell, _ = synth_shaped(1, 4)
        qc = iss.synthesize(model, part, iss.ModeChangeSet(frozenset()), dwell)
        flow, jump = iss.check_blocks(model, qc, iss.ModeChangeSet(frozenset()))
        assert jump == {} and all(ok for ok, _ in flow.values())


class TestStackedEigenvalues:
    def test_stack_matches_one_at_a_time(self):
        rng = np.random.default_rng(5)
        S = rng.standard_normal((6, 5, 5))
        S = S + np.swapaxes(S, -1, -2)
        stacked = iss.eigenvalues(S)
        assert all(np.array_equal(stacked[i], iss.eigenvalues(S[i])) for i in range(6))
        ok, top = iss.is_negative_semidefinite(S)
        assert ok.shape == top.shape == (6,)
        assert [(bool(o), float(t)) for o, t in zip(ok, top)] == \
            [iss.is_negative_semidefinite(s) for s in S]

    def test_one_asymmetric_matrix_in_a_stack_rejected(self):
        S = np.stack([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]])
        with pytest.raises(AsymmetricError):
            iss.eigenvalues(S)

    def test_first_bad_mode_named(self):
        # M[a] is not positive definite and M[b] is not symmetric: the
        # first mode in order decides which error is raised.
        bad_pd, bad_sym = [[-1.0, 0.0], [0.0, 1.0]], [[1.0, 1.0], [0.0, 1.0]]
        q = {"a": np.eye(1), "b": np.eye(1)}
        one = {"a": 1.0, "b": 1.0}
        with pytest.raises(ValueError, match=r"M\[a\] must be positive definite"):
            iss.QuadraticCertificate({"a": bad_pd, "b": bad_sym}, q, one, one)
        with pytest.raises(AsymmetricError, match=r"M\[a\] is not symmetric"):
            iss.QuadraticCertificate({"a": bad_sym, "b": bad_pd}, q, one, one)


class TestInfeasibleOrder:
    def test_first_failing_mode_in_sorted_order(self):
        # Mode a is Hurwitz with a Lyapunov solution of condition number
        # 5e12; mode b is declared stable but is not Hurwitz.  The search
        # reaches a first, so a is the reason.
        model = iss.LinearSystemModel(
            A={"a": [[-1.0, 0.0], [0.0, -1e-13]], "b": [[1.0, 0.0], [0.0, -1.0]]},
            B={"a": [[1.0], [0.0]], "b": [[1.0], [0.0]]},
            J={"a": 0.5 * np.eye(2), "b": 0.5 * np.eye(2)},
            H={"a": [[0.0], [0.0]], "b": [[0.0], [0.0]]})
        part = iss.ModePartition(frozenset({"a", "b"}), frozenset())
        dwell = iss.DwellSpec({"a": 1.0, "b": 1.0}, 0.2)
        qs = iss.ModeChangeSet(frozenset({("a", "b"), ("b", "a")}))
        result = iss.synthesize(model, part, qs, dwell)
        assert isinstance(result, iss.Infeasible)
        assert result.reason == "ill-conditioned Lyapunov solution for mode a"
        assert result == oracles.synthesize_per_mode(model, part, qs, dwell)
        swapped = iss.ModePartition(frozenset({"a", "b"}), frozenset())
        model_b_first = iss.LinearSystemModel(
            A={"a": model.A["b"], "b": model.A["a"]}, B=model.B, J=model.J, H=model.H)
        result = iss.synthesize(model_b_first, swapped, qs, dwell)
        assert result.reason == "mode a declared stable but not Hurwitz"
        assert result == oracles.synthesize_per_mode(model_b_first, swapped, qs, dwell)


class TestHashOrder:
    """Synthesis and rate reports do not depend on the iteration order of
    the mode-change set, which follows Python's per-process string hashing."""

    CODE = """
import sys
sys.path.insert(0, {tests!r})
import isscert as iss
from test_lmi import synth_shaped
for seed in (1, 2, 3):
    model, part, dwell, qs = synth_shaped(seed, 4)
    # Large jump inputs, so that several successors of one mode inflate Q.
    model = iss.LinearSystemModel(A=model.A, B=model.B, J=model.J,
                                  H={{p: 3.0 * h for p, h in model.H.items()}})
    result = iss.synthesize(model, part, qs, dwell)
    print(repr(result.details if isinstance(result, iss.Infeasible) else result.mu))
"""

    def test_same_synthesis_under_every_hash_seed(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        code = self.CODE.format(tests=str(Path(__file__).resolve().parent))
        outputs = set()
        for hash_seed in ("1", "2", "3"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed}
            run = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True, check=True)
            outputs.add(run.stdout)
        assert len(outputs) == 1

    def test_multiple_successors_inflate_like_the_oracle(self):
        model, part, dwell, qs = synth_shaped(1, 4)
        model = iss.LinearSystemModel(A=model.A, B=model.B, J=model.J,
                                      H={p: 3.0 * h for p, h in model.H.items()})
        assert iss.synthesize(model, part, qs, dwell) == \
            oracles.synthesize_per_mode(model, part, qs, dwell)

    def test_rate_reports_in_sorted_mode_order(self):
        modes = ("c", "a", "b")
        part = iss.ModePartition(frozenset(modes), frozenset())
        dwell = iss.DwellSpec(dict.fromkeys(modes, 0.1), 0.2)
        qs = iss.ModeChangeSet(frozenset((p, q) for p in modes for q in modes if p != q))
        # ln(2) > 1 * 0.08 out of every mode: one report per mode left.
        qc = iss.QuadraticCertificate(
            dict.fromkeys(modes, [[1.0]]), dict.fromkeys(modes, [[1.0]]),
            dict.fromkeys(modes, -1.0), dict.fromkeys(modes, 2.0))
        reports = rate_rows(qc, part, dwell, qs)
        assert reports.mode.tolist() == ["a", "b", "c"]


def gram_cases():
    """Hurwitz matrices for the Lyapunov Gram: random ones for n = 1 to 32,
    non-normal triangular ones, Jordan blocks, a diagonal whose Gram has
    condition number 5e12, lightly damped oscillators, and a non-normal
    matrix scaled so far from 1 that A^-T C A^-1 alone would overflow."""
    rng = np.random.default_rng(20)
    cases = {}
    for n in range(1, 33):
        for i in range(2):
            X = rng.standard_normal((n, n))
            shift = np.max(np.linalg.eigvals(X).real) + rng.uniform(0.05, 2.0)
            cases[f"random{n}-{i}"] = X - shift * np.eye(n)
    for n in (2, 4, 8, 16):
        cases[f"non-normal{n}"] = np.triu(5 * rng.standard_normal((n, n)), 1) \
            - np.diag(rng.uniform(0.1, 2.0, n))
        cases[f"jordan{n}"] = -np.eye(n) + np.eye(n, k=1)
    cases["diagonal-5e12"] = np.diag([-1.0, -1e-13])
    for damping in (1e-3, 1e-6):
        cases[f"damped-{damping:g}"] = np.array([[-damping, 1.0], [-1.0, -damping]])
    for scale in (1e-160, 1e150):
        cases[f"scaled-{scale:g}"] = scale * np.array([[-1.0, 5.0], [0.0, -2.0]])
    return cases


def fro(X):
    """The Frobenius norm, taken on X over its largest entry so that no
    square overflows or underflows."""
    top = np.abs(X).max()
    return top * np.linalg.norm(X / top) if top else 0.0


GRAM_CASES = gram_cases()


class TestGramAccuracy:
    """The NumPy Lyapunov Gram and jump factors against SciPy's solvers."""

    @pytest.mark.parametrize("name", list(GRAM_CASES))
    def test_gram_matches_scipy(self, name):
        from scipy.linalg import solve_continuous_lyapunov

        from isscert.lmi import _lyapunov_gram

        A = GRAM_CASES[name]
        n = len(A)
        M = _lyapunov_gram(A[None])[0]
        ref = solve_continuous_lyapunov(A.T, -np.eye(n))
        ref = (ref + ref.T) / 2
        assert np.array_equal(M, M.T)
        assert fro(M - ref) <= 1e-9 * fro(ref)
        assert fro(A.T @ M + M @ A + np.eye(n)) <= 1e-10 * 2 * fro(A) * fro(M)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_stack_gives_the_bits_of_each_matrix(self, n, monkeypatch):
        # Matrices that converge in different numbers of steps share a stack;
        # the stack takes one inverse a step, as many as its slowest matrix.
        from isscert import lmi

        stack = np.stack([A for A in GRAM_CASES.values() if len(A) == n])
        calls = []
        inv = np.linalg.inv

        def counted(X):
            calls.append(len(X))
            return inv(X)
        monkeypatch.setattr(np.linalg, "inv", counted)
        steps, alone = [], []
        for A in stack:
            alone.append(lmi._lyapunov_gram(A[None])[0])
            steps.append(len(calls))
            calls.clear()
        assert len(set(steps)) > 1 and max(steps) <= 12
        together = lmi._lyapunov_gram(stack)
        assert len(calls) == max(steps) and calls[0] == len(stack)
        assert all(np.array_equal(together[i], M) for i, M in enumerate(alone))

    @pytest.mark.parametrize("inflate", [1.0, 3.0])
    @pytest.mark.parametrize("seed,n", [(1, 4), (2, 4), (3, 16), (4, 16)])
    def test_jump_factors_match_eigh(self, seed, n, inflate, monkeypatch):
        # mu_q is the largest generalized eigenvalue of (S, M_q) over the
        # links of q, S the Schur complement of the jump block's input part.
        # The linear dwell condition, checked after the jump factors, is passed
        # over, so that inflated jump inputs (mu > 1 for an unstable mode)
        # still return the certificate.
        from scipy.linalg import eigh

        from isscert import lmi

        monkeypatch.setattr(lmi, "linear_dwell_conditions", lambda *args: iss.Reports())
        model, part, dwell, qs = synth_shaped(seed, n)
        model = iss.LinearSystemModel(A=model.A, B=model.B, J=model.J,
                                      H={p: inflate * h for p, h in model.H.items()})
        qc = iss.synthesize(model, part, qs, dwell)
        for q in sorted(model.A):
            J, H, Mq, Qq = model.J[q], model.H[q], qc.M[q], qc.Q[q]
            tops = []
            for p in sorted(p for p, old in qs.pairs if old == q):
                Mp = qc.M[p]
                S = J.T @ Mp @ J - (J.T @ Mp @ H) @ np.linalg.solve(H.T @ Mp @ H - Qq,
                                                                    H.T @ Mp @ J)
                tops.append(eigh((S + S.T) / 2, Mq, eigvals_only=True)[-1])
            assert abs(qc.mu[q] - max(1e-12, *tops)) <= 1e-12 * max(np.abs(tops))

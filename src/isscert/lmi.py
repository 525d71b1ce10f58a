"""Linear-system certificate verification via eigenvalue tests.

The matrix inequalities for quadratic certificates (flow dissipation and
jump contraction blocks) are decided by checking that the assembled
symmetric block matrix has no eigenvalue above a small tolerance relative
to the block's spectral norm; the eigenvalues come from LAPACK through
``numpy.linalg.eigvalsh``.  A best-effort heuristic search for feasible
certificates is provided; its failure does not certify infeasibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .certify import ViolationReport, _report
from .errors import AsymmetricError
from .simulate import LinearSystemModel
from .switching import DwellSpec, ModeChangeSet, ModePartition

SYMMETRY_TOL = 1e-12
PSD_TOL = 1e-9


def jacobi_eigenvalues(S) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix (LAPACK ``eigvalsh``)."""
    A = np.asarray(S, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if np.max(np.abs(A - A.T)) > SYMMETRY_TOL * max(1.0, np.max(np.abs(A))):
        raise AsymmetricError("matrix is not symmetric within tolerance")
    return np.linalg.eigvalsh((A + A.T) / 2)


def is_negative_semidefinite(S, tol: float = PSD_TOL) -> tuple[bool, float]:
    """Largest eigenvalue test for S <= 0 with slack ``tol`` times S's spectral norm."""
    eigs = jacobi_eigenvalues(S)
    top = float(eigs[-1])
    scale = max(abs(float(eigs[0])), abs(top))
    return top <= tol * scale, top


@dataclass(frozen=True)
class QuadraticCertificate:
    """Per-mode quadratic data (M_p, Q_p, eta_p, mu_p) for linear systems."""

    M: Mapping[str, np.ndarray]
    Q: Mapping[str, np.ndarray]
    eta: Mapping[str, float]
    mu: Mapping[str, float]

    def __post_init__(self):
        for name in ("M", "Q"):
            mats = {}
            for p, mat in getattr(self, name).items():
                mat = np.asarray(mat, dtype=float)
                if np.max(np.abs(mat - mat.T)) > SYMMETRY_TOL * max(1.0, np.max(np.abs(mat))):
                    raise AsymmetricError(f"{name}[{p}] is not symmetric")
                if jacobi_eigenvalues(mat)[0] <= 0:
                    raise ValueError(f"{name}[{p}] must be positive definite")
                mats[p] = mat
            object.__setattr__(self, name, mats)
        object.__setattr__(self, "eta", {p: float(v) for p, v in self.eta.items()})
        mu = {p: float(v) for p, v in self.mu.items()}
        if any(v <= 0 for v in mu.values()):
            raise ValueError("all jump factors mu must be > 0")
        object.__setattr__(self, "mu", mu)

    @property
    def lambda_max(self) -> float:
        """Quadratic threshold coefficient: max eigenvalue over all Q_p."""
        return max(float(jacobi_eigenvalues(q)[-1]) for q in self.Q.values())


def flow_block(model: LinearSystemModel, qc: QuadraticCertificate, p: str) -> np.ndarray:
    A, B = model.A[p], model.B[p]
    M, Q, eta = qc.M[p], qc.Q[p], qc.eta[p]
    top_left = A.T @ M + M @ A - eta * M
    top_right = M @ B
    return np.block([[top_left, top_right], [top_right.T, -Q]])


def jump_block(model: LinearSystemModel, qc: QuadraticCertificate,
               pair: tuple[str, str]) -> np.ndarray:
    p, q = pair
    J, H = model.J[q], model.H[q]
    Mp, Mq, Qq, mu = qc.M[p], qc.M[q], qc.Q[q], qc.mu[q]
    top_left = J.T @ Mp @ J - mu * Mq
    top_right = J.T @ Mp @ H
    bottom_right = H.T @ Mp @ H - Qq
    return np.block([[top_left, top_right], [top_right.T, bottom_right]])


def check_flow_lmi(model: LinearSystemModel, qc: QuadraticCertificate,
                   p: str) -> tuple[bool, float]:
    """Flow dissipation block test for mode p; returns (ok, max eigenvalue)."""
    return is_negative_semidefinite(flow_block(model, qc, p))


def check_jump_lmi(model: LinearSystemModel, qc: QuadraticCertificate,
                   pair: tuple[str, str]) -> tuple[bool, float]:
    """Jump contraction block test for the mode change (new p, old q)."""
    return is_negative_semidefinite(jump_block(model, qc, pair))


def _safe_div(a: float, b: float) -> float:
    if b != 0.0:
        return a / b
    return 0.0 if a == 0.0 else math.copysign(math.inf, a)


def check_rate_conditions(
    qc: QuadraticCertificate,
    partition: ModePartition,
    dwell: DwellSpec,
    q_set: ModeChangeSet,
) -> list[ViolationReport]:
    """Sign and closed-form dwell conditions over all admissible mode pairs.

    For every admissible change (p follows q): stable q needs eta_q < 0 and
    ln(mu_q)/|eta_p| <= tau_q (1 - delta); unstable q needs eta_q >= 0 and
    -ln(mu_q)/|eta_p| >= tau_q (1 + delta).
    """
    out = []
    for p, q in q_set.pairs:
        if q not in qc.eta or p not in qc.eta or q not in qc.mu:
            raise ValueError(f"certificate lacks entries for pair ({p}, {q})")
        eta_q, eta_p, mu_q = qc.eta[q], qc.eta[p], qc.mu[q]
        tau_q = dwell.tau[q]
        log_ratio = _safe_div(math.log(mu_q), abs(eta_p))
        if q in partition.stable:
            if eta_q >= 0:
                out.append(_report("rate-sign", math.nan, q, eta_q, 0.0))
                continue
            lhs = log_ratio
            rhs = tau_q * (1 - dwell.delta)
            if lhs > rhs + PSD_TOL:
                out.append(_report("rate-dwell", math.nan, f"{p}<-{q}", lhs, rhs))
        else:
            if eta_q < 0:
                out.append(_report("rate-sign", math.nan, q, 0.0, eta_q))
                continue
            lhs = tau_q * (1 + dwell.delta)
            rhs = -log_ratio
            if lhs > rhs + PSD_TOL:
                out.append(_report("rate-dwell", math.nan, f"{p}<-{q}", lhs, rhs))
    return out


@dataclass(frozen=True)
class Infeasible:
    """Negative search outcome carrying the binding constraint."""

    reason: str
    details: dict = field(default_factory=dict)


def synthesize(
    model: LinearSystemModel,
    partition: ModePartition,
    q_set: ModeChangeSet,
    dwell: DwellSpec,
):
    """Heuristic search for a feasible quadratic certificate.

    Stable modes get the Gram matrix M of the unit-forcing Lyapunov equation
    and a rate eta < 0 keeping -I - eta M strictly negative:
    min(2 lambda_max((A + A^T)/2), -1e-6) when that one does, else 0.99 of
    the edge -(1 - 1e-9)/lambda_max(M), past which the top eigenvalue
    -1 - eta lambda_max(M) exceeds -1e-9.  Unstable modes get a spectral
    shift.  Jump factors come from the generalized-eigenvalue Schur bound.
    Returns a QuadraticCertificate or Infeasible with diagnostics (also for
    a Lyapunov solution of condition number above 1e12); a negative answer
    is not a proof of infeasibility.
    """
    # The only SciPy use in the package, imported here so that no other
    # command pays for loading it.
    from scipy.linalg import eigh, solve_continuous_lyapunov

    def lyapunov_gram(A_shifted: np.ndarray) -> np.ndarray:
        M = solve_continuous_lyapunov(A_shifted.T, -np.eye(A_shifted.shape[0]))
        return (M + M.T) / 2

    def schur_q(M: np.ndarray, B: np.ndarray, R: np.ndarray) -> np.ndarray:
        """Smallest diagonal Q making the flow block feasible given R < 0."""
        S = M @ B
        bound = S.T @ np.linalg.solve(-R, S)
        level = max(0.0, float(eigh(bound, eigvals_only=True)[-1]))
        return (level + 1e-6) * np.eye(m)

    modes = sorted(model.A)
    n, m = model.dims
    M, Q, eta = {}, {}, {}
    for p in modes:
        A = model.A[p]
        if p in partition.stable:
            abscissa = float(np.max(np.real(np.linalg.eigvals(A))))
            if abscissa >= 0:
                return Infeasible(f"mode {p} declared stable but not Hurwitz",
                                  {"mode": p, "spectral_abscissa": abscissa})
            M[p] = lyapunov_gram(A)
            sym_top = float(eigh((A + A.T) / 2, eigvals_only=True)[-1])
            edge = -(1 - 1e-9) / float(eigh(M[p], eigvals_only=True)[-1])
            lo = min(2 * sym_top, -1e-6)
            eta_p = lo if lo >= edge else 0.99 * edge
            eta[p] = eta_p
            R = -np.eye(n) - eta_p * M[p]
        else:
            abscissa = float(np.max(np.real(np.linalg.eigvals(A))))
            eta_p = max(0.0, 2 * abscissa + 1.0)
            if eta_p == 0.0 and abscissa >= 0:
                return Infeasible(f"mode {p} has no usable spectral shift",
                                  {"mode": p})
            M[p] = lyapunov_gram(A - (eta_p / 2) * np.eye(n))
            eta[p] = eta_p
            R = -np.eye(n)
        condition = float(np.linalg.cond(M[p]))
        if condition > 1e12:
            return Infeasible(f"ill-conditioned Lyapunov solution for mode {p}",
                              {"mode": p, "condition": condition})
        Q[p] = schur_q(M[p], model.B[p], R)

    mu = {}
    for q in modes:
        successors = [p for (p, old) in q_set.pairs if old == q] or [q]
        J, H = model.J[q], model.H[q]
        best = 0.0
        for p in successors:
            bottom = H.T @ M[p] @ H - Q[q]
            top_b = float(eigh(bottom, eigvals_only=True)[-1])
            if top_b >= 0:
                # Inflate Q_q so the input block is strictly negative; this
                # only loosens the already-feasible flow block.
                Q[q] = Q[q] + (top_b + 1e-6) * np.eye(m)
                bottom = H.T @ M[p] @ H - Q[q]
            S = J.T @ M[p] @ J - (J.T @ M[p] @ H) @ np.linalg.solve(bottom, H.T @ M[p] @ J)
            S = (S + S.T) / 2
            best = max(best, float(eigh(S, M[q], eigvals_only=True)[-1]))
        mu[q] = max(best, 1e-12)

    qc = QuadraticCertificate(M, Q, eta, mu)
    for p in modes:
        ok, top = check_flow_lmi(model, qc, p)
        if not ok:
            return Infeasible("flow block infeasible", {"mode": p, "max_eig": top})
    for pair in sorted(q_set.pairs):
        ok, top = check_jump_lmi(model, qc, pair)
        if not ok:
            return Infeasible("jump block infeasible", {"pair": pair, "max_eig": top})
    reports = check_rate_conditions(qc, partition, dwell, q_set)
    if reports:
        r = reports[0]
        return Infeasible("rate condition infeasible",
                          {"kind": r.kind, "where": r.mode, "lhs": r.lhs, "rhs": r.rhs})
    return qc

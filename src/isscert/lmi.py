"""Linear-system certificate verification via eigenvalue tests.

The matrix inequalities for quadratic certificates (flow dissipation and
jump contraction blocks) are decided by checking that each assembled
symmetric block matrix has no eigenvalue that ``tolerance.exceeds`` puts
above 0 relative to the block's spectral norm; the eigenvalues come from
LAPACK through ``numpy.linalg.eigvalsh``.  The flow blocks of all P modes and the jump
blocks of all Q admissible mode changes are built as one
(P + Q, n + m, n + m) stack by batched products and decided by one
eigenvalue call over the stack (``check_blocks``), so a check costs O(1)
NumPy/LAPACK calls whatever P and Q are; the flops are those of P + Q
separate blocks.  The rates' signs and the dwell condition are
``certify.linear_dwell_conditions`` over every mode of the system, one
report per mode that an admissible change leaves.  A best-effort heuristic
search for feasible certificates is provided, every stage of it batched the
same way over the stacked modes and mode changes, NumPy alone; its failure
does not certify infeasibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .certify import linear_dwell_conditions
from .errors import AsymmetricError
from .simulate import LinearSystemModel
from .switching import DwellSpec, ModeChangeSet, ModePartition
from .tolerance import exceeds

SYMMETRY_TOL = 1e-12
GRAM_TOL = math.sqrt(np.finfo(float).eps)
GRAM_STEPS = 8 * math.ceil(math.log2(-math.log2(np.finfo(float).eps)))


def _t(S: np.ndarray) -> np.ndarray:
    """The transpose of each matrix of a stack."""
    return np.swapaxes(S, -1, -2)


def _asymmetric(S: np.ndarray) -> np.ndarray:
    """Per matrix of a stack: asymmetry above ``SYMMETRY_TOL`` relative to
    its largest entry (at least 1)."""
    largest = np.abs(S).max(axis=(-2, -1), initial=0.0)
    return np.abs(S - _t(S)).max(axis=(-2, -1), initial=0.0) > \
        SYMMETRY_TOL * np.maximum(1.0, largest)


def _lyapunov_gram(A: np.ndarray) -> np.ndarray:
    """M with A'M + MA = -I for each Hurwitz A of a stack, by the scaled Newton
    sign iteration (Roberts 1980; Benner and Quintana-Orti 1999): from C = I,
    A, C <- (cA + A^-1/c)/2, (cC + A^-T C A^-1/c)/2 with c = |det A|^(-1/n).
    A matrix stops, with the bits it has alone, once a step moves A and C by
    at most GRAM_TOL = sqrt(eps) relative, which leaves an error of order eps,
    or after GRAM_STEPS, 8 times the log2(52) steps from 1/2 to eps; M = C/2."""
    n, live = A.shape[-1], np.arange(len(A))
    M, C = np.empty_like(A), np.broadcast_to(np.eye(n), A.shape)
    for _ in range(GRAM_STEPS):
        inv = np.linalg.inv(A)
        c = np.exp(np.linalg.slogdet(A)[1] / -n)[:, None, None]
        step = [(c * A + inv / c) / 2, (c * C + _t(inv) @ C @ (inv / c)) / 2]
        change = np.maximum(*[np.abs(a - b).max(axis=(1, 2)) / np.abs(a).max(axis=(1, 2))
                              for a, b in zip(step, (A, C))])
        M[live] = step[1]
        live, A, C = (x[~(change <= GRAM_TOL)] for x in (live, *step))
        if not live.size:
            break
    return (M + _t(M)) / 4


def eigenvalues(S) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix, or of each matrix of a
    stack, in one LAPACK ``eigvalsh`` call."""
    A = np.asarray(S, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError("matrix must be square")
    if _asymmetric(A).any():
        raise AsymmetricError("matrix is not symmetric within tolerance")
    return np.linalg.eigvalsh((A + _t(A)) / 2)


# The name under which bench/tracing.py groups the eigenvalue calls.
jacobi_eigenvalues = eigenvalues


def is_negative_semidefinite(S):
    """Largest eigenvalue test for S <= 0, relative to S's spectral norm
    through ``exceeds``; a NaN eigenvalue fails: (ok, max eigenvalue) of a
    matrix, or the two as arrays over a stack."""
    eigs = eigenvalues(S)
    top = eigs[..., -1]
    ok = ~(exceeds(top, 0.0, np.abs(eigs).max(axis=-1)) | np.isnan(top))
    if eigs.ndim == 1:
        return bool(ok), float(top)
    return ok, top


def _definite(name: str, mats: Mapping) -> tuple[dict, np.ndarray]:
    """``mats`` as float arrays and the ascending eigenvalues of their stack;
    the first mode, in order, that is not symmetric or not positive definite
    raises."""
    mats = {p: np.asarray(mat, dtype=float) for p, mat in mats.items()}
    modes = list(mats)
    stack = np.stack(list(mats.values()))
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"{name} must hold square matrices")
    asym = np.flatnonzero(_asymmetric(stack))
    k = int(asym[0]) if asym.size else len(modes)
    eigs = eigenvalues(stack[:k])
    bad = np.flatnonzero(eigs[:, 0] <= 0)
    if bad.size:
        raise ValueError(f"{name}[{modes[bad[0]]}] must be positive definite")
    if k < len(modes):
        raise AsymmetricError(f"{name}[{modes[k]}] is not symmetric")
    return mats, eigs


@dataclass(frozen=True)
class QuadraticCertificate:
    """Per-mode quadratic data (M_p, Q_p, eta_p, mu_p) for linear systems.

    ``blocks`` holds the (flow, jump) verdicts of ``check_blocks`` on the
    system and mode changes a certificate was synthesized for; it is None
    unless the certificate comes from ``synthesize``.  ``lambda_max``, the
    quadratic threshold coefficient, is the largest eigenvalue over all Q_p.
    """

    M: Mapping[str, np.ndarray]
    Q: Mapping[str, np.ndarray]
    eta: Mapping[str, float]
    mu: Mapping[str, float]
    blocks: tuple | None = field(default=None, repr=False, compare=False)
    lambda_max: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        M, _ = _definite("M", self.M)
        Q, eigs_q = _definite("Q", self.Q)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "lambda_max", float(eigs_q[:, -1].max()))
        object.__setattr__(self, "eta", {p: float(v) for p, v in self.eta.items()})
        mu = {p: float(v) for p, v in self.mu.items()}
        if any(v <= 0 for v in mu.values()):
            raise ValueError("all jump factors mu must be > 0")
        object.__setattr__(self, "mu", mu)


def _stack(mats: Mapping, keys) -> np.ndarray:
    return np.stack([mats[k] for k in keys])


def flow_blocks(model: LinearSystemModel, M: Mapping, Q: Mapping, eta: Mapping,
                modes) -> np.ndarray:
    """The flow dissipation blocks [[A'M + MA - eta M, MB], [B'M, -Q]] of
    ``modes`` as one (len(modes), n + m, n + m) stack."""
    A, B = _stack(model.A, modes), _stack(model.B, modes)
    Mp, Qp = _stack(M, modes), _stack(Q, modes)
    rate = np.array([eta[p] for p in modes])[:, None, None]
    top_right = Mp @ B
    return np.block([[_t(A) @ Mp + Mp @ A - rate * Mp, top_right], [_t(top_right), -Qp]])


def jump_blocks(model: LinearSystemModel, M: Mapping, Q: Mapping, mu: Mapping,
                pairs) -> np.ndarray:
    """The jump contraction blocks [[J'M_p J - mu M_q, J'M_p H],
    [H'M_p J, H'M_p H - Q_q]] of the mode changes (new p, old q) in
    ``pairs``, with J, H, mu and Q_q of the old mode q, as one
    (len(pairs), n + m, n + m) stack."""
    new, old = [p for p, _ in pairs], [q for _, q in pairs]
    J, H = _stack(model.J, old), _stack(model.H, old)
    Mp, Mq, Qq = _stack(M, new), _stack(M, old), _stack(Q, old)
    factor = np.array([mu[q] for q in old])[:, None, None]
    JtM = _t(J) @ Mp
    top_right = JtM @ H
    return np.block([[JtM @ J - factor * Mq, top_right],
                     [_t(top_right), _t(H) @ Mp @ H - Qq]])


def _decide(model: LinearSystemModel, M, Q, eta, mu, pairs) -> tuple[dict, dict]:
    modes = sorted(model.A)
    blocks = flow_blocks(model, M, Q, eta, modes)
    if pairs:
        blocks = np.concatenate([blocks, jump_blocks(model, M, Q, mu, pairs)])
    ok, top = is_negative_semidefinite(blocks)
    verdicts = list(zip(ok.tolist(), top.tolist()))
    return dict(zip(modes, verdicts)), dict(zip(pairs, verdicts[len(modes):]))


def check_blocks(model: LinearSystemModel, qc: QuadraticCertificate,
                 q_set: ModeChangeSet) -> tuple[dict, dict]:
    """(flow, jump): the (ok, max eigenvalue) of the flow block of every
    mode and of the jump block of every pair of ``q_set``, each in sorted
    order, all decided in one stacked eigenvalue call."""
    return _decide(model, qc.M, qc.Q, qc.eta, qc.mu, sorted(q_set.pairs))


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
    Returns a QuadraticCertificate, whose ``blocks`` are the verdicts of its
    final block check, or Infeasible with diagnostics (also for a Lyapunov
    solution of condition number above 1e12); a negative answer is not a
    proof of infeasibility.  Every stage runs once over the stacked modes or
    mode changes, NumPy alone; an Infeasible names the first failing mode in
    sorted order, as a mode-by-mode search would.
    """
    modes = sorted(model.A)
    n, m = model.dims
    stable = np.array([p in partition.stable for p in modes])
    A = _stack(model.A, modes)
    abscissa = np.max(np.real(np.linalg.eigvals(A)), axis=-1)
    not_hurwitz = np.flatnonzero(stable & (abscissa >= 0))
    k = int(not_hurwitz[0]) if not_hurwitz.size else len(modes)
    # Unstable modes are shifted to a spectral abscissa of at most -1/2.
    eta = np.where(stable, 0.0, np.maximum(0.0, 2 * abscissa + 1.0))
    M = _lyapunov_gram(A[:k] - (eta[:k, None, None] / 2) * np.eye(n))
    # An ill-conditioned mode before the first non-Hurwitz one is the
    # failure a mode-by-mode search meets first.
    condition = np.linalg.cond(M)
    ill = np.flatnonzero(condition > 1e12)
    if ill.size:
        p = modes[ill[0]]
        return Infeasible(f"ill-conditioned Lyapunov solution for mode {p}",
                          {"mode": p, "condition": float(condition[ill[0]])})
    if k < len(modes):
        p = modes[k]
        return Infeasible(f"mode {p} declared stable but not Hurwitz",
                          {"mode": p, "spectral_abscissa": float(abscissa[k])})

    sym_top = eigenvalues((A + _t(A))[stable] / 2)[:, -1]
    edge = -(1 - 1e-9) / eigenvalues(M[stable])[:, -1]
    lo = np.minimum(2 * sym_top, -1e-6)
    eta[stable] = np.where(lo >= edge, lo, 0.99 * edge)
    R = -np.eye(n) - np.where(stable, eta, 0.0)[:, None, None] * M

    # Smallest diagonal Q making each flow block feasible given R < 0.
    S = M @ _stack(model.B, modes)
    bound = _t(S) @ np.linalg.solve(-R, S)
    # The lower triangle, as the bound is symmetric only up to rounding.
    level = np.fmax(0.0, np.linalg.eigvalsh(bound)[:, -1])
    M = dict(zip(modes, M))
    Q = {p: (level[i] + 1e-6) * np.eye(m) for i, p in enumerate(modes)}
    eta = dict(zip(modes, eta.tolist()))

    # Jump factors from the links (p, q): each mode q with each of its
    # successors p in sorted order, or with itself when it has none.
    links = [(p, q) for q in modes
             for p in sorted(p for p, old in q_set.pairs if old == q) or [q]]
    new, old = [p for p, _ in links], [q for _, q in links]
    J, H, Mp = _stack(model.J, old), _stack(model.H, old), _stack(M, new)
    JtM, HtM = _t(J) @ Mp, _t(H) @ Mp
    HMH = HtM @ H
    top_b = np.linalg.eigvalsh(HMH - _stack(Q, old))[:, -1]
    for q in modes:
        raise_q = max(top for top, o in zip(top_b.tolist(), old) if o == q)
        if raise_q >= 0:
            # Inflate Q_q once, so that the input block of every link of q is
            # strictly negative; this only loosens the already-feasible flow block.
            Q[q] = Q[q] + (raise_q + 1e-6) * np.eye(m)
    S = JtM @ J - (JtM @ H) @ np.linalg.solve(HMH - _stack(Q, old), HtM @ J)
    Li = np.linalg.inv(np.linalg.cholesky(_stack(M, old)))
    tops = np.linalg.eigvalsh(Li @ ((S + _t(S)) / 2) @ _t(Li))[:, -1].tolist()
    mu = {q: max(1e-12, *(t for t, o in zip(tops, old) if o == q)) for q in modes}

    flow, jump = _decide(model, M, Q, eta, mu, sorted(q_set.pairs))
    for p, (ok, top) in flow.items():
        if not ok:
            return Infeasible("flow block infeasible", {"mode": p, "max_eig": top})
    for pair, (ok, top) in jump.items():
        if not ok:
            return Infeasible("jump block infeasible", {"pair": pair, "max_eig": top})
    left = dict.fromkeys(sorted({q for _, q in q_set.pairs}), math.nan)
    reports = linear_dwell_conditions(eta, mu, partition, dwell.tau, dwell.delta, left)
    if reports:
        kind, _, where, lhs, rhs, _ = reports.rows()[0]
        return Infeasible("rate condition infeasible",
                          {"kind": kind, "where": where, "lhs": lhs, "rhs": rhs})
    return QuadraticCertificate(M, Q, eta, mu, blocks=(flow, jump))

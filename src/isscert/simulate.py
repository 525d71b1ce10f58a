"""Impulsive switched system models and trajectory generation.

Flows are integrated with the classical fixed-step 4th-order Runge-Kutta
scheme on each inter-switch interval, with the final partial step landing
exactly on the next switching instant; the mode's jump map is then applied.
Solutions are right-continuous: the stored state at a switching instant is
the post-jump state.

For a LinearSystemModel one RK4 step on x' = A x + B u is a fixed affine
map, x+ = P x + G0 u(t) + Gm u(t + h/2) + G1 u(t + h).  ``simulate_batch``
runs R initial states and inputs over one signal and step grid.  One sort
puts the K + 1 segments into G groups of equal mode and step count N; each
segment keeps its own step size h.  The map and its powers P, P^2, P^4,
... are built once per mode for all its distinct h in one stacked call.
Within a segment x_i = P^i x_start + Y_i, where the forced response Y does
not depend on x_start.  Each run samples its input once per group (grids,
midpoints and the jump times t_k - step/2), and Y_{i+1} = P Y_i + F_i is
solved for every run and segment of the group as a doubling prefix scan
(Kogge & Stone 1973; Blelloch 1990): log2 N passes over an (R, S, N + 1, n)
array, laid out (S, N + 1, R) at n = 1 so each pass runs over all runs
contiguously; at n > 1 each run's block stays contiguous for its own
(N, n) @ (n, n) products.  Segment k is then the affine map
x_{k+1} = J_k (P^N x_k + Y_N) + H_k u(t_k - step/2) of its start, and the
same doubling scan over the K maps gives every run's starts: log2 K
passes of stacked (1, n) @ (n, n) products beside the composites of 2, 4,
8, ... consecutive maps.  Every run goes to the horizon; then each group
adds its free responses P^i x_start and ends P^N x_start + Y_N and checks
every sample's range, and the post-jump states are checked together.  A
run fails at its first state out of range.  So a batch costs
O(G log N + log K) numpy calls, O(K n^3 log K + N n^2 R log N) flops and
O(N n R + K n^2) memory.  G stops growing with K once the step counts
repeat; when every segment has its own N it is K + 1.  Each run's and
segment's products have the same shapes whatever R and S are (elementwise
at n = 1), so a run's states are the same bits in a batch as alone, and a
segment's the same as when simulated alone from its own first state
(unless a power of P overflows sooner for another step size of its mode:
the powers stop at the mode's first overflow).  The scan over the segments
reassociates the starts, so a post-jump state is J x + H u of the pre-jump
state and input only up to rounding.  A power, segment map or composite
that overflows is not used, so a zero state never meets an infinite entry
as 0 * inf.  ``simulate`` is the batch of one run.  A general SystemModel
is stepped through its flow callables, run by run.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from .errors import NonFiniteError, StepTooLargeError
from .switching import SwitchingSignal
from .tolerance import exceeds

FINITE_LIMIT = 1e12


@dataclass(frozen=True)
class SystemModel:
    """Per-mode flow and jump maps of an impulsive switched system."""

    flows: Mapping[str, Callable]
    jumps: Mapping[str, Callable]
    state_dim: int
    input_dim: int

    def __post_init__(self):
        object.__setattr__(self, "flows", dict(self.flows))
        object.__setattr__(self, "jumps", dict(self.jumps))
        if set(self.flows) != set(self.jumps):
            raise ValueError("flows and jumps must cover the same mode set")


@dataclass(frozen=True)
class LinearSystemModel:
    """Linear specialization: flow A_p x + B_p u, jump J_p x + H_p u."""

    A: Mapping[str, np.ndarray]
    B: Mapping[str, np.ndarray]
    J: Mapping[str, np.ndarray]
    H: Mapping[str, np.ndarray]

    def __post_init__(self):
        for name in ("A", "B", "J", "H"):
            mats = {p: np.asarray(m, dtype=float) for p, m in getattr(self, name).items()}
            object.__setattr__(self, name, mats)
        n, m = self.dims
        for p in self.A:
            if self.A[p].shape != (n, n) or self.J[p].shape != (n, n):
                raise ValueError(f"state matrices of mode {p} have inconsistent shape")
            if self.B[p].shape != (n, m) or self.H[p].shape != (n, m):
                raise ValueError(f"input matrices of mode {p} have inconsistent shape")

    @property
    def dims(self) -> tuple[int, int]:
        p = next(iter(self.A))
        return self.A[p].shape[0], self.B[p].shape[1]

    @property
    def state_dim(self) -> int:
        return self.dims[0]

    @property
    def input_dim(self) -> int:
        return self.dims[1]

    def to_system_model(self) -> SystemModel:
        n, m = self.dims

        def make_flow(A, B):
            return lambda t, x, u: A @ x + B @ u

        def make_jump(J, H):
            return lambda t, x, u: J @ x + H @ u

        flows = {p: make_flow(self.A[p], self.B[p]) for p in self.A}
        jumps = {p: make_jump(self.J[p], self.H[p]) for p in self.A}
        return SystemModel(flows, jumps, n, m)


@dataclass(frozen=True)
class InputSignal:
    """Bounded input u(t) with a declared sup norm over the horizon.

    ``at_times``, when given, maps a 1-D array of times to the
    ``(len(times), m)`` array of the values ``func`` takes at them; the
    factories below supply it, so ``sample`` evaluates them as arrays.
    """

    func: Callable[[float], np.ndarray]
    sup_norm: float
    at_times: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, t: float) -> np.ndarray:
        return np.atleast_1d(np.asarray(self.func(t), dtype=float))

    def sample(self, times) -> np.ndarray:
        """Values at each of ``times``, stacked as rows of a (len(times), m) array."""
        times = np.asarray(times, dtype=float)
        if self.at_times is not None:
            return self.at_times(times)
        return np.array([self(t) for t in times])


def zero_input(m: int = 1) -> InputSignal:
    u = np.zeros(m)
    return InputSignal(lambda t: u, 0.0, lambda ts: np.zeros((len(ts), m)))


def constant_input(value) -> InputSignal:
    u = np.atleast_1d(np.asarray(value, dtype=float))
    return InputSignal(lambda t: u, float(np.linalg.norm(u)),
                       lambda ts: np.tile(u, (len(ts), 1)))


def sinusoid_input(amplitude, omega: float, phase: float = 0.0) -> InputSignal:
    a = np.atleast_1d(np.asarray(amplitude, dtype=float))
    return InputSignal(
        lambda t: a * math.sin(omega * t + phase), float(np.linalg.norm(a)),
        lambda ts: np.sin(omega * ts + phase)[:, None] * a,
    )


def step_input(before, after, t_switch: float) -> InputSignal:
    """Piecewise-constant input with a single switch at t_switch."""
    u0 = np.atleast_1d(np.asarray(before, dtype=float))
    u1 = np.atleast_1d(np.asarray(after, dtype=float))
    bound = max(float(np.linalg.norm(u0)), float(np.linalg.norm(u1)))
    return InputSignal(lambda t: u0 if t < t_switch else u1, bound,
                       lambda ts: np.where((ts < t_switch)[:, None], u0, u1))


@dataclass(frozen=True)
class Segment:
    """Dense samples of one inter-switch flow interval."""

    mode: str
    times: np.ndarray
    states: np.ndarray  # shape (len(times), n)


@dataclass(frozen=True)
class Trajectory:
    """Piecewise record of a simulated run, right-continuous at jumps: the
    jump at each switching instant takes the last sample of one segment to
    the first sample of the next."""

    segments: tuple[Segment, ...]
    input: InputSignal
    step: float

    @property
    def t0(self) -> float:
        return float(self.segments[0].times[0])

    @property
    def horizon(self) -> float:
        return float(self.segments[-1].times[-1])

    def final_state(self) -> np.ndarray:
        return self.segments[-1].states[-1]

    def sup_norm(self) -> float:
        return float(np.max(np.linalg.norm(self.samples[1], axis=1)))

    @cached_property
    def samples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every sample, segment by segment, as arrays: the times, the states,
        the mode of each sample, and the index of each segment's first sample."""
        lengths = [len(seg.times) for seg in self.segments]
        return (np.concatenate([seg.times for seg in self.segments]),
                np.concatenate([seg.states for seg in self.segments]),
                np.repeat([seg.mode for seg in self.segments], lengths),
                np.cumsum([0, *lengths[:-1]]))

    def jump_flags(self) -> np.ndarray:
        """1 at each later segment's first sample (post-jump, at t_i), else 0."""
        flags = np.zeros(len(self.samples[0]), dtype=int)
        flags[self.samples[3][1:]] = 1
        return flags


def _step_count(t_start, t_end, step):
    """The fewest equal RK4 steps of at most ``step`` from t_start to t_end,
    and their size h; elementwise for arrays of starts and ends."""
    n_steps = np.maximum(np.ceil((t_end - t_start) / step - 1e-12), 1.0)
    return n_steps, (t_end - t_start) / n_steps


def _grid(t_start, t_end, n_steps, h):
    """The RK4 grid of ``n_steps`` steps of h from t_start, landing exactly
    on t_end (the values of ``np.linspace``); for arrays of starts, ends and
    step sizes, one grid per entry."""
    times = np.arange(n_steps + 1.0) * np.asarray(h)[..., None] + np.asarray(t_start)[..., None]
    times[..., -1] = t_end
    return times


def _in_range(states):
    """Whether each state (the last axis) has a norm of at most FINITE_LIMIT;
    a state with a NaN or infinite entry is out of range."""
    return (states * states).sum(axis=-1) <= FINITE_LIMIT ** 2


def _rk4_step(f, t, x, h, u0, um, u1):
    """One classical RK4 step given the inputs at t, t + h/2 and t + h."""
    k1 = f(t, x, u0)
    k2 = f(t + h / 2, x + h / 2 * k1, um)
    k3 = f(t + h / 2, x + h / 2 * k2, um)
    k4 = f(t + h, x + h * k3, u1)
    return x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def _rk4_segment(f, t_start, t_end, x0, input_sig, step):
    """Integrate one flow interval; returns (times, states) including endpoints."""
    times = _grid(t_start, t_end, *_step_count(t_start, t_end, step))
    states = np.empty((len(times), x0.size))
    states[0] = x0
    x = x0
    for i in range(len(times) - 1):
        t, h = times[i], times[i + 1] - times[i]
        x = _rk4_step(f, t, x, h, input_sig(t), input_sig(t + h / 2), input_sig(t + h))
        states[i + 1] = x
        if not _in_range(x):
            return times[: i + 2], states[: i + 2], False
    return times, states, True


def _step_map(A, B, h):
    """[P, G0, Gm, G1] of one RK4 step of size h on x' = A x + B u: the RK4
    step applied to identity columns of [x | u(t) | u(t+h/2) | u(t+h)].  For
    an (S, 1, 1) array of sizes, the S maps stacked."""
    n, m = B.shape
    cols = np.eye(n + 3 * m)
    step_map = _rk4_step(lambda t, x, u: A @ x + B @ u, 0.0, cols[:n], h,
                         cols[n:n + m], cols[n + m:n + 2 * m], cols[n + 2 * m:])
    cuts = (0, n, n + m, n + 2 * m, n + 3 * m)
    return [step_map[..., a:b] for a, b in zip(cuts, cuts[1:])]


def _matmul(a, b, out=None):
    """a @ b, as an elementwise product when the contracted axis has length
    1 (n = 1 or m = 1): the same values, without matmul's cost on such
    shapes, which is several times that of the product itself."""
    return np.multiply(a, b, out=out) if b.shape[-2] == 1 else np.matmul(a, b, out=out)


def _doubling_powers(powers, n_steps):
    """Extend [P, P^2, P^4, ...] in place, each power the square of the one
    before, while its exponent is below ``n_steps`` and its entries are
    finite; returns the list."""
    while 2 ** len(powers) < n_steps:
        square = powers[-1] @ powers[-1]
        if not np.isfinite(square).all():
            break
        powers.append(square)
    return powers


def _group_array(runs, n_segments, length, n):
    """An uninitialised (runs, n_segments, length, n) array, the runs axis
    innermost in memory at n = 1 and each run's block contiguous at n > 1,
    for the reasons the module docstring gives."""
    if n == 1:
        return np.empty((n_segments, length, runs, 1)).transpose(2, 0, 1, 3)
    return np.empty((runs, n_segments, length, n))


def _forced_responses(maps_t, powers_t, times, jump_times, inputs):
    """The forced responses from a zero start of S segments that share one
    step count N, for every run: the (R, S, N + 1, n) solutions of Y_0 = 0,
    Y_{i+1} = P Y_i + F_i on the S grids ``times``, in a `_group_array`
    (the runs innermost in memory at n = 1), and the (R, S, m) inputs at
    the S ``jump_times``.  States are rows, so the products take
    transposes: ``maps_t`` holds P^T, G0^T, Gm^T and G1^T and ``powers_t``
    those of `_doubling_powers`, each stacked over the segments.  Run j's
    forcing and jump inputs come from one ``sample`` call of its own input;
    the forcing is summed in one contiguous buffer and stored once (at
    n = 1 its slot of Y is strided), and the recurrence is solved by one
    `_scan`."""
    P_t, G0_t, Gm_t, G1_t = maps_t
    (n_segments, n_times), n = times.shape, P_t.shape[-1]
    n_steps = n_times - 1
    # Each grid, its midpoints t_i + (t_{i+1} - t_i) / 2, then the jump time.
    u_at = np.concatenate([times, times[:, :-1] + (times[:, 1:] - times[:, :-1]) / 2,
                           jump_times[:, None]], axis=1)
    Y = _group_array(len(inputs), n_segments, n_times, n)
    Y[:, :, 0] = 0.0
    F = np.empty((n_segments, n_steps, n))
    jump_inputs = np.empty((len(inputs), n_segments, G0_t.shape[-2]))
    for j, inp in enumerate(inputs):
        u = inp.sample(u_at.ravel()).reshape(n_segments, 2 * n_steps + 2, -1)
        _matmul(u[:, :n_steps], G0_t, out=F)
        F += _matmul(u[:, n_times:-1], Gm_t)
        F += _matmul(u[:, 1:n_times], G1_t)
        Y[j, :, 1:] = F
        jump_inputs[j] = u[:, -1]
    _scan(Y, P_t, powers_t)
    return Y, jump_inputs


def _scan(Y, P_t, powers_t):
    """Solve Y_{i+1} = P Y_i + F_i from Y_0 = 0 in place over the
    (..., S, N + 1, n) array ``Y`` that holds 0 and F_0 .. F_{N-1}, as a
    doubling prefix scan (Kogge & Stone 1973): the pass for s = 1, 2, 4,
    ... adds P^s Y_{i-s} to every Y_i with i > s, one stacked product that
    is the same (N - s, n) @ (n, n) for every leading index, whatever the
    leading shape; ``products`` keeps ``Y``'s memory order, so at n = 1 a
    pass is one contiguous loop per segment.  ``P_t`` and ``powers_t`` stack
    the transposes of each segment's P and `_doubling_powers`.  The scan
    runs in chunks of twice the largest finite power, each with the P Y of
    the chunk before folded into its first row, so an overflowing power
    never meets a zero state as 0 * inf."""
    n_steps = Y.shape[-2] - 1
    span = 2 ** len(powers_t)
    products = np.empty_like(Y[..., 1:min(n_steps, span) + 1, :])
    for a in range(0, n_steps, span):
        Z = Y[..., a + 1:a + 1 + span, :]
        if a:
            Z[..., :1, :] += _matmul(Y[..., a:a + 1, :], P_t)
        for k, Pk_t in enumerate(powers_t[:(Z.shape[-2] - 1).bit_length()]):
            s = 1 << k
            Z[..., s:, :] += _matmul(Z[..., :-s, :], Pk_t, out=products[..., :Z.shape[-2] - s, :])


def _free_responses(powers_t, starts, length):
    """P^i x for i < ``length`` and every start x in the (R, S, n) array
    ``starts``, with ``powers_t`` the transposes of `_doubling_powers`
    stacked over the S segments, as an (R, S, length, n) `_group_array`,
    laid out as the forced responses it is added to, filled by doubling:
    the block from row 2^k on is the block before it times P^(2^k).  Past
    the largest finite power the blocks repeat its exponent, so a zero
    entry is never multiplied by an infinite one."""
    runs, n_segments, n = starts.shape
    out = _group_array(runs, n_segments, length, n)
    out[..., 0, :] = starts
    i = 1
    while i < length:
        k = min(i.bit_length(), len(powers_t)) - 1
        s, m = 1 << k, min(1 << k, length - i)
        _matmul(out[..., i - s:i - s + m, :], powers_t[k], out=out[..., i:i + m, :])
        i += m
    return out


def _power_chain(powers, n_steps):
    """Matrices whose product is P^n_steps: the product itself if it is
    finite; else the largest finite power, as many times as it fits, and the
    binary digits of the rest, each to be applied in turn."""
    top = min(len(powers), n_steps.bit_length()) - 1
    repeats, rest = divmod(n_steps, 1 << top)
    chain = [powers[top]] * repeats + [powers[k] for k in range(top) if rest >> k & 1]
    product = functools.reduce(np.matmul, chain)
    return [product] if np.isfinite(product).all() else chain


def _through(xs, chain_t):
    """The rows ``xs`` times each matrix of ``chain_t`` in turn, one
    (1, n) @ (n, n) product per row and matrix, the matrices stacked over
    the axis before the rows' last one."""
    for M_t in chain_t:
        xs = _matmul(xs[..., None, :], M_t)[..., 0, :]
    return xs


class _Group:
    """The flow segments of one mode and step count N, each with its own
    step size h.

    ``evaluate`` computes their forced responses for every run, into the
    array that becomes their states, and ``build`` adds the free responses
    P^i x_start once every start is known.
    """

    def __init__(self, mode, n_steps, indices, t_starts, t_ends):
        self.mode, self.n_steps = mode, n_steps
        self.indices, self.t_starts, self.t_ends = indices, t_starts, t_ends  # by slot

    def evaluate(self, maps, powers, which, hs, step, inputs):
        """The grids of every slot, the forced responses of every run on
        them and its inputs half a step before their ends.  ``maps`` and
        ``powers`` stack the step maps and doubling powers of the mode's
        distinct step sizes, ``which`` holds the row of each slot's size
        ``hs``; each slot takes its own, transposed."""
        powers = [Pk[which] for Pk in powers[:self.n_steps.bit_length()]]
        self.chain_t = [M.swapaxes(1, 2) for M in _power_chain(powers, self.n_steps)]
        self.powers_t = [Pk.swapaxes(1, 2) for Pk in powers]
        self.times = _grid(self.t_starts, self.t_ends, self.n_steps, hs)
        maps_t = [M[which].swapaxes(1, 2) for M in maps]
        # u(t_i^-) for merely piecewise-continuous inputs: sample half a
        # step before the instant.
        self.states, self.jump_inputs = _forced_responses(
            maps_t, self.powers_t, self.times, self.t_ends - step / 2, inputs)

    def build(self, starts):
        """Complete the states from the (R, S, n) ``starts`` of the slots:
        the ends P^N x + Y_N through the power chain, and the free responses
        of the other samples; returns (run, segment, e) for each slot of a
        run with a sample out of range, the first such sample at e - 1."""
        n = self.n_steps
        self.states[:, :, n] += _through(starts, self.chain_t)
        self.states[:, :, :n] += _free_responses(self.powers_t, starts, n)
        # Entries below FINITE_LIMIT / (2 sqrt(n)) keep every norm in range;
        # the test takes no memory, where the norms of a whole group would.
        if max(self.states.max(), -self.states.min()) < FINITE_LIMIT / (
                2 * math.sqrt(self.states.shape[-1])):
            return []
        bad = ~_in_range(self.states[..., 1:, :])
        rows, slots = np.nonzero(bad.any(axis=-1))
        return [(int(r), int(self.indices[s]), int(np.argmax(bad[r, s])) + 2)
                for r, s in zip(rows, slots)]

    def segment(self, run, slot, end=None):
        """Slot ``slot`` of run ``run`` up to sample ``end``."""
        return Segment(self.mode, self.times[slot, :end], self.states[run, slot, :end])


def _segment_scan(X, A_t, fold):
    """Solve X_{k+1} = A_k X_k + c_k in place over the (R, K + 1, n) array
    ``X`` of X_0 and c_0 .. c_{K-1}, ``A_t`` the transposed A_k stacked.  A
    map with an entry that is not finite splits the scan: ``fold(k)`` adds
    A_k X_k to X_{k+1} through segment k's own power chain, and each run of
    finite maps between such is scanned by `_scan_maps`."""
    splits = np.flatnonzero(~np.isfinite(A_t).all(axis=(1, 2))).tolist()
    for a, b in zip([0, *(k + 1 for k in splits)], [*splits, len(A_t)]):
        if a:
            fold(a - 1)
        _scan_maps(X[:, a:b + 1], A_t[a:b])


def _scan_maps(X, A_t):
    """`_segment_scan` over finite maps, by doubling: the pass for s = 1, 2,
    4, ... adds T^s_{k-s} X_{k-s} to every X_k, k >= s, where
    T^s_j = A_{j+s-1} ... A_j and T^2s_j = T^s_{j+s} T^s_j; after it X_k
    holds the terms of its last 2s maps.  The passes stop before a
    composite that overflows, and X_k += T^s_{k-s} T^s_{k-2s} X_{k-2s}
    completes the states 2s at a time."""
    s, T_t = 1, A_t
    while True:
        X[:, s:] += _through(X[:, :-s], [T_t])
        if 2 * s >= X.shape[1]:
            return
        composite = _matmul(T_t[:-s], T_t[s:])
        if not np.isfinite(composite).all():
            break
        s, T_t = 2 * s, composite
    for a in range(2 * s, X.shape[1], 2 * s):
        c = min(2 * s, X.shape[1] - a)
        X[:, a:a + c] += _through(X[:, a - 2 * s:a - 2 * s + c],
                                  [T_t[a - 2 * s:a - 2 * s + c], T_t[a - s:a - s + c]])


def _non_finite(segments, inp, step, jump_time=None) -> NonFiniteError:
    """The error of a run whose last segment in ``segments`` ends on its
    first state out of range, or, with ``jump_time``, whose jump at that
    time left the range."""
    if jump_time is None:
        error = f"state norm exceeded {FINITE_LIMIT:.0e} at t={segments[-1].times[-1]}"
    else:
        error = f"jump at t={jump_time} produced non-finite state"
    return NonFiniteError(error, partial=Trajectory(tuple(segments), inp, step))


def _simulate_run(model, sig, x, inp, step) -> Trajectory:
    """One run of a general SystemModel, stepped segment by segment."""
    segments = []
    for k, (a, b, mode) in enumerate(sig.segments()):
        if b > a:
            times, states, ok = _rk4_segment(model.flows[mode], a, b, x, inp, step)
        else:  # the last instant on the horizon, or t0 = horizon: a single sample
            times, states, ok = np.array([a]), x[None, :].copy(), True
        segments.append(Segment(mode, times, states))
        if not ok:
            raise _non_finite(segments, inp, step)
        x = states[-1]
        if k < len(sig.instants):
            t_i = sig.instants[k]
            # u(t_i^-) for merely piecewise-continuous inputs: sample half a
            # step before the instant.
            x = np.atleast_1d(np.asarray(model.jumps[mode](t_i, x, inp(t_i - step / 2)),
                                         dtype=float))
            if not _in_range(x):
                raise _non_finite(segments, inp, step, t_i)
    return Trajectory(tuple(segments), inp, step)


def _simulate_linear(model, sig, x0s, inputs, step) -> list[Trajectory]:
    """`simulate_batch` of a LinearSystemModel: the forced responses of
    every group, `_segment_scan` for the starts, then each group's states
    and range checks.  A run fails at its first state out of range, a
    sample of segment k before the jump that ends k, so a run whose states
    leave the range inside a segment and return to it by the segment's end
    fails there, as it would step by step.
    """
    bounds = np.array([sig.t0, *sig.instants, sig.horizon])
    (n, m), n_jumps = model.dims, len(sig.instants)
    # Every segment flows but a last one of no length (an instant on the
    # horizon, or t0 = horizon): its single sample is the last jump's state.
    n_flows = n_jumps + int(bounds[-1] > bounds[-2])
    t_starts, t_ends = bounds[:n_flows], bounds[1:n_flows + 1]
    n_steps, hs = _step_count(t_starts, t_ends, step)
    names = list(dict.fromkeys(sig.modes))
    codes = [names.index(p) for p in sig.modes]
    # The slots sorted by mode, then N, then h: runs of one step size, of
    # one (mode, N) group and of one mode, each opened by a True in ``new``.
    keys = np.array([hs, n_steps, codes[:n_flows]])
    order = np.lexsort(keys)
    keys, t_starts, t_ends = keys[:, order], t_starts[order], t_ends[order]
    new = np.ones((3, n_flows), bool)
    np.not_equal(keys[:, 1:], keys[:, :-1], out=new[:, 1:])
    new[1] |= new[2]
    new[0] |= new[1]
    rows, firsts = np.cumsum(new[0]), np.flatnonzero(new[1]).tolist()
    spans = list(zip(firsts, firsts[1:] + [n_flows]))
    mode_ends = np.flatnonzero(new[2]).tolist()[1:] + [n_flows]
    groups, J_t, H_t = [], np.zeros((len(names), n, n)), np.zeros((len(names), m, n))
    for lo, hi in spans:
        if new[2, lo]:  # a mode's first group: its step maps and powers
            code, end, base = int(keys[2, lo]), mode_ends.pop(0), rows[lo]
            mode = names[code]
            J_t[code], H_t[code] = model.J[mode].T, model.H[mode].T
            maps = _step_map(model.A[mode], model.B[mode],
                             keys[0, lo:end][new[0, lo:end], None, None])
            powers = _doubling_powers([maps[0]], int(keys[1, end - 1]) + 1)
        groups.append(_Group(mode, int(keys[1, lo]), order[lo:hi], t_starts[lo:hi],
                             t_ends[lo:hi]))
        groups[-1].evaluate(maps, powers, rows[lo:hi] - base, keys[0, lo:hi], step, inputs)
    slots = [None] * n_flows
    for group in groups:
        for slot, k in enumerate(group.indices.tolist()):
            slots[k] = group, slot

    # X_0 = x0 and X_{k+1} = J_k P^N X_k + c_k, with c_k = J_k Y_N + H_k u_k;
    # the groups give Y_N, u_k and P^N (NaN where no one finite matrix is
    # P^N) in sorted order.
    ends, jump_inputs, M_t = (np.empty((len(inputs), n_flows, n)),
                              np.empty((len(inputs), n_flows, m)), np.empty((n_flows, n, n)))
    if groups:
        ends[:, order] = np.concatenate([g.states[:, :, -1] for g in groups], axis=1)
        jump_inputs[:, order] = np.concatenate([g.jump_inputs for g in groups], axis=1)
        M_t[order] = np.concatenate([g.chain_t[0] if len(g.chain_t) == 1 else
                                     np.full(g.chain_t[0].shape, np.nan) for g in groups])
    J_t, H_t = J_t[codes[:n_jumps]], H_t[codes[:n_jumps]]
    X = np.empty((len(inputs), n_jumps + 1, n))
    X[:, 0] = x0s
    X[:, 1:] = (_through(ends[:, :n_jumps], [J_t])
                + _through(jump_inputs[:, :n_jumps], [H_t]))

    def fold(a):
        group, slot = slots[a]
        chain_t = [M[slot] for M in group.chain_t]
        X[:, a + 1] += _through(_through(X[:, a], chain_t), [J_t[a]])
    _segment_scan(X, _matmul(M_t[:n_jumps], J_t), fold)

    # (run, segment, e) of each flow sample out of range, at e - 1, and
    # (run, segment, None) of each jump out of range.
    starts = X[:, order]
    failures = [failure for group, (lo, hi) in zip(groups, spans)
                for failure in group.build(starts[:, lo:hi])]
    failures += [(r, k, None) for r, k in np.argwhere(~_in_range(X[:, 1:])).tolist()]
    if failures:
        r, k, e = min(failures, key=lambda f: (f[0], f[1], f[2] is None))
        segments = [group.segment(r, slot, e if j == k else None)
                    for j, (group, slot) in enumerate(slots[:k + 1])]
        raise _non_finite(segments, inputs[r], step, sig.instants[k] if e is None else None)
    single = (sig.modes[-1], np.array([sig.horizon])) if n_flows == n_jumps else ()
    return [Trajectory(tuple(group.segment(r, slot) for group, slot in slots)
                       + ((Segment(*single, X[r, -1:]),) if single else ()), inp, step)
            for r, inp in enumerate(inputs)]


def simulate(
    model: SystemModel | LinearSystemModel,
    sig: SwitchingSignal,
    x0,
    input: InputSignal,
    step: float,
) -> Trajectory:
    """Run the impulsive switched system over the signal's horizon.

    Raises NonFinite (with the partial trajectory attached) once the state
    norm exceeds 1e12, and StepTooLarge when the step exceeds the shortest
    inter-switch gap, relative to the size of the signal's times.
    """
    return simulate_batch(model, sig, [x0], [input], step)[0]


def simulate_batch(
    model: SystemModel | LinearSystemModel,
    sig: SwitchingSignal,
    x0s,
    inputs,
    step: float,
) -> list[Trajectory]:
    """`simulate` of run j from ``x0s[j]`` under ``inputs[j]``, for every j,
    on one switching signal and step grid.

    A linear model steps all runs together, one step map per (mode, h) per
    batch; a general SystemModel is stepped run by run.  If runs leave the
    finite range, this raises the NonFiniteError (message and partial
    trajectory) that the first of them in run order raises alone.  A linear
    model samples each run's input once per group of segments with equal
    mode and step count, on all of the group's segments and the jumps that
    end them, and carries every
    run to the horizon before it checks the ranges, so a run that fails
    early has been sampled on every segment; a general one samples step by
    step up to the failure.
    """
    if step <= 0:
        raise ValueError("step must be > 0")
    if len(x0s) != len(inputs):
        raise ValueError("one input per initial state")
    x0s = [np.atleast_1d(np.asarray(x0, dtype=float)) for x0 in x0s]
    if not all(np.all(np.isfinite(x0)) for x0 in x0s):
        raise ValueError("initial state must be finite")

    bounds = [sig.t0, *sig.instants, sig.horizon]
    gaps = [b - a for a, b in zip(bounds, bounds[1:]) if b > a]
    if gaps and exceeds(step, min(gaps), max(abs(sig.t0), abs(sig.horizon))):
        raise StepTooLargeError(
            f"step {step} exceeds shortest inter-switch gap {min(gaps)}"
        )

    if not x0s:
        return []
    if isinstance(model, LinearSystemModel):
        with np.errstate(over="ignore", invalid="ignore"):
            return _simulate_linear(model, sig, x0s, inputs, step)
    return [_simulate_run(model, sig, x0, inp, step) for x0, inp in zip(x0s, inputs)]


"""Impulsive switched system models and trajectory generation.

Flows are integrated with the classical fixed-step 4th-order Runge-Kutta
scheme on each inter-switch interval, with the final partial step landing
exactly on the next switching instant; the mode's jump map is then applied.
Solutions are right-continuous: the stored state at a switching instant is
the post-jump state.

For a LinearSystemModel one RK4 step on x' = A x + B u is a fixed affine
map, x+ = P x + G0 u(t) + Gm u(t + h/2) + G1 u(t + h).  ``simulate_batch``
runs R initial states and inputs over one signal and step grid.  It sorts
the K + 1 segments into G groups that share mode and step count N; each
segment keeps its own step size h, so instants that are not exact sums
(nominally equal durations whose h differ in the last bits) still share a
group.  The map and its powers P, P^2, P^4, ... are built once per mode
for all its distinct h in one stacked call, and each segment takes its
own.  Within a segment the states are x_i = P^i x_start + Y_i, where the
forced response Y from a zero start does not depend on x_start.  When the
loop over the segments first reaches a group, each run samples its input
once over all the group's segments, and Y_{i+1} = P Y_i + F_i is solved
for every run and segment at once as a doubling prefix scan (Kogge &
Stone 1973; Blelloch 1990): log2 N whole-array passes, runs and segments
on the leading axes.  The loop itself only carries the runs from each
segment's start to its end, P^N x_start + Y_N, and across the jump,
J x + H u: a few (n, n) products per segment for all runs together.
Last, each group adds its free responses P^i x_start (log2 N doubling
passes) and checks every sample's range.  So a batch costs O(G log N)
numpy calls plus O(K) small ones, O(N n^2 R log N) flops over the N
samples of the signal, and O(N n R) memory: beside the states, the
temporaries of one group at a time.  G is
at most the number of distinct (mode, N), so it stops growing with K once
the step counts repeat; when every segment has its own N, G = K + 1 and
the group overhead is paid per segment.  Each run's and segment's
products have the same shapes whatever R and S are, so a run's states are
the same bits in a batch as alone, and a segment's the same as when it is
simulated alone from its start (unless a power of P overflows sooner for
another step size of its mode than for its own: the powers stop at the
first overflow in the mode, which moves the scan's chunks).  ``simulate``
is the batch of one run.  A
general SystemModel is stepped through its flow callables, run by run.
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
    and their size h."""
    n_steps = max(1, math.ceil((t_end - t_start) / step - 1e-12))
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
    return np.split(step_map, [n, n + m, n + 2 * m], axis=-1)


def _step_maps(model, mode, hs, cache):
    """[P, G0, Gm, G1] of ``mode`` for each step size in ``hs``, each stacked
    in the order of ``hs``.  ``cache`` holds each size's map by (mode,
    exact h); the missing ones are built by one stacked `_step_map`."""
    new = [h for h in hs if (mode, h) not in cache]
    if new:
        maps = _step_map(model.A[mode], model.B[mode], np.array(new)[:, None, None])
        cache.update(((mode, h), parts) for h, *parts in zip(new, *maps))
        if len(new) == len(hs):
            return maps
    return [np.stack(parts) for parts in zip(*(cache[mode, h] for h in hs))]


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


def _forced_responses(maps_t, powers_t, times, inputs):
    """The forced responses from a zero start of S segments that share one
    step count N, for every run: the (R, S, N + 1, n) solutions of Y_0 = 0,
    Y_{i+1} = P Y_i + F_i on the S grids ``times``, with the runs and the
    segments on the leading axes.  States are rows, so the products take
    transposes: ``maps_t`` holds P^T, G0^T, Gm^T and G1^T and ``powers_t``
    those of `_doubling_powers`, each stacked over the segments.  Run j's
    forcing comes from one ``sample`` call of its own input; the recurrence
    is solved by one `_scan`."""
    P_t, G0_t, Gm_t, G1_t = maps_t
    (n_segments, n_times), n = times.shape, P_t.shape[-1]
    n_steps = n_times - 1
    # Each grid, then its midpoints t_i + (t_{i+1} - t_i) / 2.
    u_at = np.concatenate([times, times[:, :-1] + (times[:, 1:] - times[:, :-1]) / 2], axis=1)
    Y = np.empty((len(inputs), n_segments, n_times, n))
    Y[:, :, 0] = 0.0
    for j, inp in enumerate(inputs):
        u = inp.sample(u_at.ravel()).reshape(n_segments, 2 * n_steps + 1, -1)
        F = _matmul(u[:, :n_steps], G0_t, out=Y[j, :, 1:])
        F += _matmul(u[:, n_times:], Gm_t)
        F += _matmul(u[:, 1:n_times], G1_t)
    _scan(Y, P_t, powers_t)
    return Y


def _scan(Y, P_t, powers_t):
    """Solve Y_{i+1} = P Y_i + F_i from Y_0 = 0 in place over the
    (..., S, N + 1, n) array ``Y`` that holds 0 and F_0 .. F_{N-1}, as a
    doubling prefix scan (Kogge & Stone 1973): the pass for s = 1, 2, 4,
    ... adds P^s Y_{i-s} to every Y_i with i > s, one stacked product that
    is the same (N - s, n) @ (n, n) for every leading index, whatever the
    leading shape.  ``P_t`` and ``powers_t`` stack the transposes of each
    segment's P and `_doubling_powers`.  The scan runs in chunks of twice
    the largest finite power, each with the P Y of the chunk before folded
    into its first row, so an overflowing power never meets a zero state as
    0 * inf."""
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
    """P^i x for i < ``length`` and every start x in the (..., S, n) array
    ``starts``, with ``powers_t`` the transposes of `_doubling_powers`
    stacked over the S segments, as a (..., S, length, n) array filled by
    doubling: the block from row 2^k on is the block before it times
    P^(2^k).  Past the largest finite power the blocks repeat its exponent,
    so a zero entry is never multiplied by an infinite one."""
    out = np.empty((*starts.shape[:-1], length, starts.shape[-1]))
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


class _Group:
    """The flow segments of one mode and step count N, each with its own
    step size h.

    ``evaluate`` computes their forced responses for the runs still going
    when the first of them is reached, into the array that becomes their
    states; ``flow`` carries runs from a segment's start to its end; and
    ``build`` adds the free responses P^i x_start once every start is known.
    """

    def __init__(self, mode, n_steps):
        self.mode, self.n_steps = mode, n_steps
        self.indices, self.t_starts, self.t_ends, self.hs = [], [], [], []  # by slot
        self.states = None

    def add(self, k, t_start, t_end, h):
        """Take segment k, on [t_start, t_end] in steps of h, as the next slot."""
        self.indices.append(k)
        self.t_starts.append(t_start)
        self.t_ends.append(t_end)
        self.hs.append(h)
        return self, len(self.indices) - 1

    def evaluate(self, table, runs, inputs):
        """The grids of every slot and the forced responses of ``runs`` on
        them.  ``table`` holds the stacked step maps and doubling powers of
        the mode's distinct step sizes and the row of each size; each slot
        takes its own, transposed."""
        maps, powers, row_of = table
        which = np.array([row_of[h] for h in self.hs])
        powers = [Pk[which] for Pk in powers[:self.n_steps.bit_length()]]
        self.chain_t = [M.swapaxes(1, 2) for M in _power_chain(powers, self.n_steps)]
        self.powers_t = [Pk.swapaxes(1, 2) for Pk in powers]
        self.times = _grid(self.t_starts, self.t_ends, self.n_steps, np.array(self.hs))
        self.runs = runs
        self.row = {r: i for i, r in enumerate(runs.tolist())}
        maps_t = [M[which].swapaxes(1, 2) for M in maps]
        self.states = _forced_responses(maps_t, self.powers_t, self.times, inputs)
        self.starts = np.zeros((len(runs), len(self.indices), self.states.shape[-1]))

    def flow(self, slot, runs, xs):
        """The states ending slot ``slot`` for ``runs`` from the states
        ``xs`` starting it: P^N x + Y_N, one (1, n) @ (n, n) product per run
        and chain matrix, stored as the slot's last sample."""
        rows = slice(None) if len(runs) == len(self.runs) else np.searchsorted(self.runs, runs)
        self.starts[rows, slot] = xs
        for M_t in self.chain_t:
            xs = _matmul(xs[:, None, :], M_t[slot])[:, 0]
        xs = xs + self.states[rows, slot, -1]
        self.states[rows, slot, -1] = xs
        return xs

    def build(self):
        """Add the free responses to the forced ones, sample N excepted
        (``flow`` stored it); returns (run, segment, e) for each slot of a
        run with a sample out of range, the first such sample at e - 1."""
        n = self.n_steps
        self.states[:, :, :n] += _free_responses(self.powers_t, self.starts, n)
        # Entries below FINITE_LIMIT / (2 sqrt(n)) keep every norm in range;
        # the test takes no memory, where the norms of a whole group would.
        if max(self.states.max(), -self.states.min()) < FINITE_LIMIT / (
                2 * math.sqrt(self.states.shape[-1])):
            return []
        bad = ~_in_range(self.states[..., 1:, :])
        rows, slots = np.nonzero(bad.any(axis=-1))
        return [(int(self.runs[i]), self.indices[s], int(np.argmax(bad[i, s])) + 2)
                for i, s in zip(rows, slots)]

    def segment(self, run, slot, end=None):
        """Slot ``slot`` of run ``run`` up to sample ``end``."""
        return Segment(self.mode, self.times[slot, :end], self.states[self.row[run], slot, :end])


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


def _simulate_linear(model, sig, x0s, inputs, step, step_maps) -> list[Trajectory]:
    """`simulate_batch` of a LinearSystemModel, with ``step_maps`` the cache
    of `_step_maps`.

    A group's forced responses are computed, on all its segments, when the
    loop over the segments first reaches it; the loop itself only carries
    each run from segment start to segment end, P^N x + Y_N, and across the
    jump.  A run whose end or jump state leaves the range stops there, and
    the loop stops once no run still going comes before the first that
    stopped: no group is sampled that the loop first reaches after that,
    but the later segments of a group reached before it have been.  The free
    responses and the range check of every sample follow, group by group: a
    run whose states leave the range inside a segment and return to it by
    the segment's end fails there, as it would step by step.
    """
    groups, slots = {}, []
    for k, (a, b, mode) in enumerate(sig.segments()):
        if b > a:  # else the single sample of a last instant on the horizon
            n_steps, h = _step_count(a, b, step)
            slots.append(groups.setdefault((mode, n_steps), _Group(mode, n_steps))
                         .add(k, a, b, h))
    tables = {}  # mode -> (step maps, doubling powers, row of each step size)
    for mode in dict.fromkeys(group.mode for group in groups.values()):
        members = [group for group in groups.values() if group.mode == mode]
        row_of = {h: i for i, h in enumerate(dict.fromkeys(h for g in members for h in g.hs))}
        maps = _step_maps(model, mode, list(row_of), step_maps)
        powers = _doubling_powers([maps[0]], max(g.n_steps for g in members) + 1)
        tables[mode] = maps, powers, row_of
    runs, xs = np.arange(len(x0s)), np.array(x0s)
    stopped = {}  # run -> (segment, time of its jump out of range or None)
    for k, (group, slot) in enumerate(slots):
        if group.states is None:
            group.evaluate(tables[group.mode], runs, [inputs[r] for r in runs])
        xs = group.flow(slot, runs, xs)
        ok = ended = _in_range(xs)
        if k < len(sig.instants):
            t_i = sig.instants[k]
            J, H = model.J[group.mode], model.H[group.mode]
            # u(t_i^-) for merely piecewise-continuous inputs: sample half a
            # step before the instant.
            u = np.array([inputs[r](t_i - step / 2) for r in runs])
            xs = _matmul(xs[:, None, :], J.T)[:, 0] + _matmul(u[:, None, :], H.T)[:, 0]
            ok = ended & _in_range(xs)
        if not ok.all():
            stopped.update((r, (k, t_i if e else None))
                           for r, e in zip(runs[~ok].tolist(), ended[~ok]))
            runs, xs = runs[ok], xs[ok]
            if not len(runs) or min(stopped) < runs[0]:
                break

    flows_failed = {}  # run -> (segment, e) of its first sample out of range
    for group in groups.values():
        if group.states is not None:
            for r, k, e in group.build():
                if k <= stopped.get(r, (k,))[0] and k < flows_failed.get(r, (k + 1,))[0]:
                    flows_failed[r] = k, e
    failed = {*flows_failed, *(r for r, (_, t) in stopped.items() if t is not None)}
    if failed:
        r = min(failed)
        k, e = flows_failed[r] if r in flows_failed else (stopped[r][0], None)
        segments = [group.segment(r, slot, e if j == k else None)
                    for j, (group, slot) in enumerate(slots[:k + 1])]
        raise _non_finite(segments, inputs[r], step, None if e else stopped[r][1])
    single = () if len(slots) == len(sig.modes) else (sig.modes[-1], np.array([sig.horizon]))
    return [Trajectory(tuple(group.segment(r, slot) for group, slot in slots)
                       + ((Segment(*single, x[None]),) if single else ()), inp, step)
            for r, (inp, x) in enumerate(zip(inputs, xs))]


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
    mode and step count, on all of the group's segments when it first
    reaches one of them, so a run that fails early may have been sampled on
    later segments of that group; a general one samples step by step up to
    the failure.
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
            return _simulate_linear(model, sig, x0s, inputs, step, {})
    return [_simulate_run(model, sig, x0, inp, step) for x0, inp in zip(x0s, inputs)]


def _unit_vector(rng, m: int) -> np.ndarray:
    """A random direction in R^m: a standard normal draw, normalised (the
    first basis vector if the draw is zero)."""
    v = rng.standard_normal(m)
    nv = np.linalg.norm(v)
    return v / nv if nv > 0 else np.eye(m)[0]

"""Impulsive switched system models and trajectory generation.

Flows are integrated with the classical fixed-step 4th-order Runge-Kutta
scheme on each inter-switch interval, with the final partial step landing
exactly on the next switching instant; the mode's jump map is then applied.
Solutions are right-continuous: the stored state at a switching instant is
the post-jump state.

For a LinearSystemModel one RK4 step on x' = A x + B u is a fixed affine
map, x+ = P x + G0 u(t) + Gm u(t + h/2) + G1 u(t + h).  ``simulate_batch``
runs R initial states and inputs over one signal and step grid: it builds
that map and the powers P, P^2, P^4, ... once per mode and step size h per
batch.  On each segment of N steps it solves the recurrence
X_{i+1} = P X_i + F_i for all runs at once as a doubling prefix scan
(Kogge & Stone 1973; Blelloch 1990): log2 N whole-array passes, the runs
stacked on the leading axis, each run's forcing F_i from one array
evaluation of its own input.  That is O(log N) numpy calls per segment and
O(N n^2 R log N) flops in O(N n R) memory.  Each run's products have the
same shapes whatever R is, so a run's states are the same bits in a batch
as alone.  ``simulate`` is the batch of one run.  A general SystemModel is
stepped through its flow callables, run by run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from .errors import NonFiniteError, StepTooLargeError
from .switching import SwitchingSignal

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
        return np.isin(np.arange(len(self.samples[0])), self.samples[3][1:]).astype(int)


def _grid(t_start, t_end, step):
    """The RK4 grid of one flow interval and its step h: the fewest equal
    steps of at most ``step`` from t_start, landing exactly on t_end (the
    values of ``np.linspace``)."""
    n_steps = max(1, math.ceil((t_end - t_start) / step - 1e-12))
    h = (t_end - t_start) / n_steps
    times = np.arange(n_steps + 1.0) * h + t_start
    times[-1] = t_end
    return times, h


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
    times, _ = _grid(t_start, t_end, step)
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
    step applied to identity columns of [x | u(t) | u(t+h/2) | u(t+h)]."""
    n, m = B.shape
    cols = np.eye(n + 3 * m)
    step_map = _rk4_step(lambda t, x, u: A @ x + B @ u, 0.0, cols[:n], h,
                         cols[n:n + m], cols[n + m:n + 2 * m], cols[n + 2 * m:])
    return np.split(step_map, [n, n + m, n + 2 * m], axis=1)


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


def _linear_flow(step_map, powers, times, xs, inputs):
    """`_rk4_segment` for x' = A x + B u, for every run at once: the
    recurrence X_{i+1} = P X_i + F_i over the (R, len(times), n) states,
    whose leading axis is the runs, as a doubling prefix scan.  Run j's
    forcing F_i comes from one ``sample`` call of its own input.

    With P X_0 folded into F_0, the pass for s = 1, 2, 4, ... adds
    P^s Y_{i-s} to every Y_i with i >= s, so after log2 N passes Y_i is
    X_{i+1}.  Each pass is one stacked matmul, the same (N - s, n) @ (n, n)
    product for each run whatever R is.  ``powers`` is the step map's list
    of `_doubling_powers`.  The scan runs in chunks of twice the largest
    finite power, each with the P X of the chunk before folded into its
    first row, so an overflowing power never meets a zero state as 0 * inf.
    """
    P, G0, Gm, G1 = step_map
    n_steps = len(times) - 1
    u_at = np.concatenate([times, times[:-1] + (times[1:] - times[:-1]) / 2])
    states = np.empty((len(xs), n_steps + 1, P.shape[0]))
    for j, (x, inp) in enumerate(zip(xs, inputs)):
        u = inp.sample(u_at)
        states[j, 0] = x
        states[j, 1:] = u[:n_steps] @ G0.T + u[n_steps + 1:] @ Gm.T + u[1:n_steps + 1] @ G1.T
    powers = _doubling_powers(powers, n_steps)
    span = 2 ** len(powers)
    for a in range(0, n_steps, span):
        Y = states[:, a + 1:a + 1 + span]
        Y[:, :1] += states[:, a:a + 1] @ P.T
        for k, Pk in enumerate(powers[:(Y.shape[1] - 1).bit_length()]):
            Y[:, 1 << k:] += Y[:, :-(1 << k)] @ Pk.T
    return states


def _flow(model, mode, t_start, t_end, xs, inputs, step, step_maps):
    """One flow interval of each run from its state in ``xs``: a list of
    (times, states, ok), where a run that left the finite range is cut at
    its first offending sample and has ok False.

    ``step_maps`` caches the linear step maps, with their doubling powers,
    by (mode, exact step h), so segments of a mode that repeat a step size
    reuse one."""
    if not isinstance(model, LinearSystemModel):
        return [_rk4_segment(model.flows[mode], t_start, t_end, x, inp, step)
                for x, inp in zip(xs, inputs)]
    times, h = _grid(t_start, t_end, step)
    if (mode, h) not in step_maps:
        step_map = _step_map(model.A[mode], model.B[mode], h)
        step_maps[mode, h] = step_map, [step_map[0]]
    with np.errstate(over="ignore", invalid="ignore"):
        states = _linear_flow(*step_maps[mode, h], times, xs, inputs)
        # The stepwise loop's test over every step and run at once.
        bad = ~_in_range(states[:, 1:])
    if not bad.any():
        return [(times, run, True) for run in states]
    ends = [int(np.argmax(run)) + 2 if run.any() else len(times) for run in bad]
    return [(times[:e], run[:e], e == len(times)) for run, e in zip(states, ends)]


def _jump(model, mode, t, x, u):
    if isinstance(model, LinearSystemModel):
        return model.J[mode] @ x + model.H[mode] @ u
    return np.atleast_1d(np.asarray(model.jumps[mode](t, x, u), dtype=float))


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
    inter-switch gap.
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
    trajectory) that the first of them in run order raises alone; stepping
    stops once no run still going comes before that one.
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
    if gaps and step > min(gaps) + 1e-15:
        raise StepTooLargeError(
            f"step {step} exceeds shortest inter-switch gap {min(gaps)}"
        )

    if not x0s:
        return []

    segments = [[] for _ in x0s]
    failed: dict[int, NonFiniteError] = {}
    runs, xs = list(range(len(x0s))), x0s  # the runs still going and their states
    step_maps: dict = {}
    for k, (a, b, mode) in enumerate(sig.segments()):
        if b > a:
            flows = _flow(model, mode, a, b, xs, [inputs[r] for r in runs], step, step_maps)
        else:  # the last instant on the horizon, or t0 = horizon: a single sample
            flows = [(np.array([a]), x[None, :].copy(), True) for x in xs]
        going, xs = [], []
        for r, (times, states, ok) in zip(runs, flows):
            segments[r].append(Segment(mode, times, states))
            x, error = states[-1], None
            if not ok:
                error = f"state norm exceeded {FINITE_LIMIT:.0e} at t={times[-1]}"
            elif k < len(sig.modes) - 1:
                t_i = sig.instants[k]
                # u(t_i^-) for merely piecewise-continuous inputs: sample half
                # a step before the instant.
                x = _jump(model, mode, t_i, x, inputs[r](t_i - step / 2))
                if not _in_range(x):
                    error = f"jump at t={t_i} produced non-finite state"
            if error is None:
                going.append(r)
                xs.append(x)
            else:
                failed[r] = NonFiniteError(
                    error, partial=Trajectory(tuple(segments[r]), inputs[r], step))
        runs = going
        if failed and (not runs or min(failed) < runs[0]):
            break
    if failed:
        raise failed[min(failed)]
    return [Trajectory(tuple(segs), inp, step) for segs, inp in zip(segments, inputs)]


def _unit_vector(rng, m: int) -> np.ndarray:
    """A random direction in R^m: a standard normal draw, normalised (the
    first basis vector if the draw is zero)."""
    v = rng.standard_normal(m)
    nv = np.linalg.norm(v)
    return v / nv if nv > 0 else np.eye(m)[0]


def _sample_inputs(D: float, m: int, horizon_mid: float, rng) -> list[InputSignal]:
    """Cheap family of bounded inputs: constants, sinusoids, one-switch steps."""
    if D == 0.0:
        return [zero_input(m)]
    out = []
    out.append(constant_input(D * _unit_vector(rng, m)))
    out.append(sinusoid_input(D * _unit_vector(rng, m), omega=rng.uniform(0.5, 5.0),
                              phase=rng.uniform(0, 2 * math.pi)))
    out.append(step_input(D * _unit_vector(rng, m),
                          D * _unit_vector(rng, m) * rng.uniform(-1, 1), horizon_mid))
    return out


def _restrict(sig: SwitchingSignal, tau: float) -> SwitchingSignal:
    end = min(sig.horizon, sig.t0 + tau)
    instants = tuple(t for t in sig.instants if t <= end)
    modes = sig.modes[: len(instants) + 1]
    return SwitchingSignal(sig.t0, instants, modes, end)


def reachability_bound(
    model: SystemModel | LinearSystemModel,
    sig: SwitchingSignal,
    C: float,
    D: float,
    tau: float,
    samples: int,
    step: float = 1e-2,
    seed: int = 0,
) -> float:
    """Monte-Carlo lower estimate of the reachable-state norm bound.

    Max over sampled initial states in the C-ball and sampled inputs bounded
    by D of the trajectory sup norm on [t0, t0 + tau], with the sampled runs
    simulated as one batch.  An estimate, not a certificate.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if C == 0.0 and D == 0.0:
        return 0.0
    rng = np.random.default_rng(seed)
    sub = _restrict(sig, tau)
    mid = sub.t0 + (sub.horizon - sub.t0) / 2
    x0s, inputs = [], []
    for _ in range(samples):
        x0 = _unit_vector(rng, model.state_dim) * C * rng.uniform(0, 1) ** (
            1 / max(1, model.state_dim))
        for inp in _sample_inputs(D, model.input_dim, mid, rng):
            x0s.append(x0)
            inputs.append(inp)
    return max(traj.sup_norm() for traj in simulate_batch(model, sub, x0s, inputs, step))

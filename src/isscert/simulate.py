"""Impulsive switched system models and trajectory generation.

Flows are integrated with the classical fixed-step 4th-order Runge-Kutta
scheme on each inter-switch interval, with the final partial step landing
exactly on the next switching instant; the mode's jump map is then applied.
Solutions are right-continuous: the stored state at a switching instant is
the post-jump state.

For a LinearSystemModel one RK4 step on x' = A x + B u is a fixed affine
map, x+ = P x + G0 u(t) + Gm u(t + h/2) + G1 u(t + h); each segment builds
that map once per mode and step size (segments of a mode that repeat a
step reuse it within one ``simulate`` call) and runs it as a matrix
recurrence over inputs evaluated as arrays.  A general SystemModel is
stepped through its flow callables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
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
class JumpRecord:
    time: float
    pre_state: np.ndarray
    post_state: np.ndarray
    mode_before: str
    mode_after: str
    u_pre: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    """Piecewise record of a simulated run, right-continuous at jumps."""

    segments: tuple[Segment, ...]
    input: InputSignal
    step: float

    @cached_property
    def jump_records(self) -> tuple[JumpRecord, ...]:
        """The jump into each later segment k, read off the segments: at the
        first time of segment k, from the last sample of segment k - 1 to the
        first of segment k, with the input sampled half a step before."""
        return tuple(
            JumpRecord(float(seg.times[0]), prev.states[-1], seg.states[0], prev.mode, seg.mode,
                       self.input(float(seg.times[0]) - self.step / 2))
            for prev, seg in zip(self.segments, self.segments[1:]))

    @property
    def t0(self) -> float:
        return float(self.segments[0].times[0])

    @property
    def horizon(self) -> float:
        return float(self.segments[-1].times[-1])

    def final_state(self) -> np.ndarray:
        return self.segments[-1].states[-1]

    def sup_norm(self) -> float:
        return max(float(np.max(np.linalg.norm(seg.states, axis=1))) for seg in self.segments)

    @cached_property
    def samples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every sample in ``rows()`` order as arrays: the times, the states,
        the mode of each sample, and the index of each segment's first sample."""
        lengths = [len(seg.times) for seg in self.segments]
        return (np.concatenate([seg.times for seg in self.segments]),
                np.concatenate([seg.states for seg in self.segments]),
                np.repeat([seg.mode for seg in self.segments], lengths),
                np.cumsum([0, *lengths[:-1]]))

    def rows(self):
        """Flat (t, mode, x, jump_flag) rows over the segment samples; the first
        sample of each later segment is the flagged post-jump row at t_i."""
        out = []
        for k, seg in enumerate(self.segments):
            flags = [int(k > 0)] + [0] * (len(seg.times) - 1)
            out += zip(seg.times.tolist(), repeat(seg.mode), seg.states, flags)
        return out


def _n_steps(t_start, t_end, step):
    return max(1, math.ceil((t_end - t_start) / step - 1e-12))


def _rk4_step(f, t, x, h, u0, um, u1):
    """One classical RK4 step given the inputs at t, t + h/2 and t + h."""
    k1 = f(t, x, u0)
    k2 = f(t + h / 2, x + h / 2 * k1, um)
    k3 = f(t + h / 2, x + h / 2 * k2, um)
    k4 = f(t + h, x + h * k3, u1)
    return x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def _rk4_segment(f, t_start, t_end, x0, input_sig, step):
    """Integrate one flow interval; returns (times, states) including endpoints."""
    n_steps = _n_steps(t_start, t_end, step)
    times = np.linspace(t_start, t_end, n_steps + 1)
    states = np.empty((n_steps + 1, x0.size))
    states[0] = x0
    x = x0
    for i in range(n_steps):
        t, h = times[i], times[i + 1] - times[i]
        x = _rk4_step(f, t, x, h, input_sig(t), input_sig(t + h / 2), input_sig(t + h))
        states[i + 1] = x
        if not np.all(np.isfinite(x)) or np.linalg.norm(x) > FINITE_LIMIT:
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


def _linear_segment(A, B, t_start, t_end, x0, input_sig, step, step_maps):
    """`_rk4_segment` for x' = A x + B u as the recurrence x+ = P x + c_k.

    ``step_maps`` caches the step maps of (A, B) by the exact step h, so
    segments of a mode that repeat a step size reuse one.
    """
    n = A.shape[0]
    n_steps = _n_steps(t_start, t_end, step)
    times = np.linspace(t_start, t_end, n_steps + 1)
    h = (t_end - t_start) / n_steps
    if h not in step_maps:
        step_maps[h] = _step_map(A, B, h)
    P, G0, Gm, G1 = step_maps[h]
    u_nodes = input_sig.sample(times)
    u_mid = input_sig.sample(times[:-1] + np.diff(times) / 2)
    forcing = u_nodes[:-1] @ G0.T + u_mid @ Gm.T + u_nodes[1:] @ G1.T
    states = np.empty((n_steps + 1, n))
    states[0] = x = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for i, c in enumerate(forcing, start=1):
            x = P @ x + c
            states[i] = x
        # The same test as the stepwise loop, over all steps at once; the
        # partial result ends at the first offending sample.
        bad = ~np.all(np.isfinite(states[1:]), axis=1) \
            | (np.linalg.norm(states[1:], axis=1) > FINITE_LIMIT)
    if bad.any():
        end = int(np.argmax(bad)) + 2
        return times[:end], states[:end], False
    return times, states, True


def _flow(model, mode, t_start, t_end, x0, input_sig, step, step_maps):
    if isinstance(model, LinearSystemModel):
        return _linear_segment(model.A[mode], model.B[mode], t_start, t_end, x0,
                               input_sig, step, step_maps.setdefault(mode, {}))
    return _rk4_segment(model.flows[mode], t_start, t_end, x0, input_sig, step)


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
    if step <= 0:
        raise ValueError("step must be > 0")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if not np.all(np.isfinite(x0)):
        raise ValueError("initial state must be finite")

    bounds = [sig.t0, *sig.instants, sig.horizon]
    gaps = [b - a for a, b in zip(bounds, bounds[1:]) if b > a]
    if gaps and step > min(gaps) + 1e-15:
        raise StepTooLargeError(
            f"step {step} exceeds shortest inter-switch gap {min(gaps)}"
        )

    if sig.horizon == sig.t0:
        seg = Segment(sig.modes[0], np.array([sig.t0]), x0[None, :].copy())
        return Trajectory((seg,), input, step)

    segments: list[Segment] = []
    step_maps: dict = {}  # mode -> {h: step map}, for linear models
    x = x0
    for k, (a, b, mode) in enumerate(sig.segments()):
        if b > a:
            times, states, ok = _flow(model, mode, a, b, x, input, step, step_maps)
            segments.append(Segment(mode, times, states))
            if not ok:
                raise NonFiniteError(
                    f"state norm exceeded {FINITE_LIMIT:.0e} at t={times[-1]}",
                    partial=Trajectory(tuple(segments), input, step),
                )
            x = states[-1]
        else:  # the last instant on the horizon: a single post-jump sample
            segments.append(Segment(mode, np.array([a]), x[None, :].copy()))
        if k < len(sig.modes) - 1:
            t_i = sig.instants[k]
            # u(t_i^-) for merely piecewise-continuous inputs: sample half a
            # step before the instant.
            x = _jump(model, mode, t_i, x, input(t_i - step / 2))
            if not np.all(np.isfinite(x)) or np.linalg.norm(x) > FINITE_LIMIT:
                raise NonFiniteError(f"jump at t={t_i} produced non-finite state",
                                     partial=Trajectory(tuple(segments), input, step))
    return Trajectory(tuple(segments), input, step)


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
    by D of the trajectory sup norm on [t0, t0 + tau].  An estimate, not a
    certificate.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if C == 0.0 and D == 0.0:
        return 0.0
    rng = np.random.default_rng(seed)
    sub = _restrict(sig, tau)
    mid = sub.t0 + (sub.horizon - sub.t0) / 2
    best = 0.0
    for _ in range(samples):
        direction = rng.standard_normal(model.state_dim)
        norm = np.linalg.norm(direction)
        if norm > 0:
            direction /= norm
        x0 = direction * C * rng.uniform(0, 1) ** (1 / max(1, model.state_dim))
        for inp in _sample_inputs(D, model.input_dim, mid, rng):
            traj = simulate(model, sub, x0, inp, step)
            best = max(best, traj.sup_norm())
    return best

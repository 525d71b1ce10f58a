"""Shared fixtures: a two-mode scalar family used across end-to-end tests.

Mode "s" contracts (flow -1.25 x + 0.5 u, declared rate -v), mode "u"
expands (flow 0.4 x + 0.5 u, declared rate +v); both jump x -> 0.1 x.
Equal rate magnitudes keep the transform dwell conditions level-independent,
so the constructed decreasing function works at arbitrarily small values.
The threshold chi(r) = 32 r^2 makes the declared rates valid whenever the
Lyapunov value V = x^2 sits above it, and the alternating signal spends
exactly the dwell time 1.0 in "s" and the leave time 0.25 in "u".
"""

import os
from pathlib import Path

import numpy as np
import pytest

import isscert as iss

# pyproject's pytest ``pythonpath`` puts src/ on this process's path only;
# the CLI subprocesses of acceptance 9 need it in their environment too.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


def make_family_signal(cycles: int = 4) -> iss.SwitchingSignal:
    instants = []
    modes = ["s"]
    t = 0.0
    for _ in range(cycles):
        t += 1.0
        instants.append(t)
        modes.append("u")
        t += 0.25
        instants.append(t)
        modes.append("s")
    instants.pop()
    modes.pop()
    return iss.SwitchingSignal(0.0, tuple(instants), tuple(modes), t)


def make_family_model() -> iss.LinearSystemModel:
    return iss.LinearSystemModel(
        A={"s": [[-1.25]], "u": [[0.4]]},
        B={"s": [[0.5]], "u": [[0.5]]},
        J={"s": [[0.1]], "u": [[0.1]]},
        H={"s": [[0.0]], "u": [[0.0]]},
    )


def make_family_certificate(sig: iss.SwitchingSignal) -> iss.Certificate:
    partition = iss.ModePartition(frozenset({"s"}), frozenset({"u"}))
    tau = {"s": 1.0, "u": 0.25}
    t_s = iss.mdadt_slack(sig, partition, tau)
    t_u = iss.mdalt_slack(sig, partition, tau)
    dwell = iss.DwellSpec(tau, 0.2, T_S=t_s, T_U=t_u)
    v = iss.quadratic_v([[1.0]])
    return iss.Certificate(
        V={"s": v, "u": v},
        alpha1=iss.power_cf(1.0, 2.0),
        alpha2=iss.power_cf(1.0, 2.0),
        alpha3=iss.power_cf(1.0, 2.0),
        chi=iss.power_cf(32.0, 2.0),
        phi={"s": iss.linear_rate(-1.0), "u": iss.linear_rate(1.0)},
        psi={"s": iss.linear_rate(0.01), "u": iss.linear_rate(0.01)},
        partition=partition,
        dwell=dwell,
    )


# The tolerance of the array forms against their scalar references, fixed
# from the dtype before any comparison was run: NumPy's exp, expm1, log1p and
# power may round differently from ``math``'s in the last place.
ARRAY_TOL = 64 * np.finfo(float).eps


def mismatches(got, want) -> list:
    """The first (index, got, want) where two arrays differ by more than
    ARRAY_TOL relative; where either side is 0 or inf they must be equal."""
    got, want = np.broadcast_arrays(np.asarray(got, dtype=float), np.asarray(want, dtype=float))
    with np.errstate(invalid="ignore"):
        exact = (got == 0) | (want == 0) | np.isinf(got) | np.isinf(want)
        close = np.abs(got - want) <= ARRAY_TOL * np.maximum(np.abs(got), np.abs(want))
    ok = np.where(exact, got == want, close)
    return [(i, got.flat[i], want.flat[i]) for i in np.flatnonzero(~ok)][:5]


def of_kind(reports, *kinds) -> list:
    """The reports of ``kinds``, in their order."""
    return [r for r in reports if r.kind in kinds]


def jumps(traj) -> list:
    """(time, mode before, mode after, pre-jump state, post-jump state) of each
    jump of ``traj``, read off ``traj.samples``: the last sample of a segment
    and the first sample of the next."""
    times, states, modes, starts = traj.samples
    return [(float(times[k]), str(modes[k - 1]), str(modes[k]), states[k - 1], states[k])
            for k in starts[1:].tolist()]


# The report kinds of the jump rule, above and below the threshold.
JUMP_KINDS = ("jump", "small-input-jump")

FAMILY_A_GRID = tuple(np.logspace(0.0, 4.0, 9))
FAMILY_ENVELOPES = (iss.linear_rate(1.0), iss.linear_rate(2.0))


@pytest.fixture(scope="session")
def family_signal():
    return make_family_signal()


@pytest.fixture(scope="session")
def family_model():
    return make_family_model()


@pytest.fixture(scope="session")
def family_certificate(family_signal):
    return make_family_certificate(family_signal)

"""JSON config ingestion and CSV/JSON emission helpers.

Configs are plain JSON documents describing the system, switching signal,
input, certificate and run parameters; only the parametric families are
admitted (no user code).  CSV floats are printed with 17 significant
digits so round-trips are lossless.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .certify import Certificate, norm_power_v, quadratic_v
from .errors import ConfigError
from .rates import (
    ComparisonFunction,
    RateFunction,
    linear_cf,
    power_cf,
)
from .simulate import (
    InputSignal,
    LinearSystemModel,
    constant_input,
    sinusoid_input,
    step_input,
    zero_input,
)
from .switching import DwellSpec, ModeChangeSet, ModePartition, SwitchingSignal


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(str(e), field="config") from e
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}",
                          field="config") from e
    if not isinstance(cfg, dict):
        raise ConfigError("top-level document must be an object", field="config")
    return cfg


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError("missing required key", field=f"{where}.{key}")
    return cfg[key]


def parse_rate(obj: dict, where: str) -> RateFunction:
    kind = _require(obj, "kind", where)
    try:
        if kind == "linear":
            return RateFunction("linear", eta=float(_require(obj, "eta", where)))
        if kind == "power":
            return RateFunction("power", c=float(_require(obj, "c", where)),
                                k=float(_require(obj, "k", where)))
        if kind == "tabulated":
            return RateFunction("tabulated",
                                points=tuple(map(tuple, _require(obj, "points", where))))
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e), field=where) from e
    raise ConfigError(f"unknown rate kind {kind!r}", field=where)


def parse_cf(obj: dict, where: str) -> ComparisonFunction:
    kind = _require(obj, "kind", where)
    try:
        if kind == "linear":
            return linear_cf(float(_require(obj, "a", where)))
        if kind == "power":
            return power_cf(float(_require(obj, "c", where)),
                            float(_require(obj, "k", where)))
        if kind == "tabulated":
            return ComparisonFunction(
                "tabulated", points=tuple(map(tuple, _require(obj, "points", where))))
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e), field=where) from e
    raise ConfigError(f"unknown comparison kind {kind!r}", field=where)


def parse_signal(obj: dict) -> SwitchingSignal:
    try:
        return SwitchingSignal(
            t0=float(_require(obj, "t0", "signal")),
            instants=tuple(float(t) for t in obj.get("instants", [])),
            modes=tuple(str(m) for m in _require(obj, "modes", "signal")),
            horizon=float(_require(obj, "horizon", "signal")),
        )
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e), field="signal") from e


def parse_model(obj: dict) -> LinearSystemModel:
    if _require(obj, "kind", "system") != "linear":
        raise ConfigError("only linear systems are config-ingestible", field="system.kind")
    try:
        return LinearSystemModel(
            A={p: np.array(m, dtype=float) for p, m in _require(obj, "A", "system").items()},
            B={p: np.array(m, dtype=float) for p, m in _require(obj, "B", "system").items()},
            J={p: np.array(m, dtype=float) for p, m in _require(obj, "J", "system").items()},
            H={p: np.array(m, dtype=float) for p, m in _require(obj, "H", "system").items()},
        )
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e), field="system") from e


def parse_input(obj: dict | None, m: int) -> InputSignal:
    if obj is None:
        return zero_input(m)
    kind = _require(obj, "kind", "input")
    try:
        if kind == "zero":
            return zero_input(m)
        if kind == "constant":
            return constant_input(_require(obj, "value", "input"))
        if kind == "sinusoid":
            return sinusoid_input(_require(obj, "amplitude", "input"),
                                  float(_require(obj, "omega", "input")),
                                  float(obj.get("phase", 0.0)))
        if kind == "step":
            return step_input(_require(obj, "before", "input"),
                              _require(obj, "after", "input"),
                              float(_require(obj, "t_switch", "input")))
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e), field="input") from e
    raise ConfigError(f"unknown input kind {kind!r}", field="input.kind")


def parse_dwell(obj: dict) -> DwellSpec:
    try:
        return DwellSpec(
            tau={str(p): float(v) for p, v in _require(obj, "tau", "dwell").items()},
            delta=float(_require(obj, "delta", "dwell")),
            T_S=float(obj.get("T_S", 0.0)),
            T_U=float(obj.get("T_U", 0.0)),
        )
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e), field="dwell") from e


def parse_partition(obj: dict) -> ModePartition:
    try:
        return ModePartition(frozenset(map(str, obj.get("stable", []))),
                             frozenset(map(str, obj.get("unstable", []))))
    except ValueError as e:
        raise ConfigError(str(e), field="partition") from e


def parse_certificate(obj: dict) -> Certificate:
    v_map = {}
    for p, spec in _require(obj, "V", "certificate").items():
        kind = _require(spec, "kind", f"certificate.V.{p}")
        if kind == "quadratic":
            v_map[p] = quadratic_v(np.array(_require(spec, "M", f"certificate.V.{p}"),
                                            dtype=float))
        elif kind == "power":
            v_map[p] = norm_power_v(float(_require(spec, "c", f"certificate.V.{p}")),
                                    float(_require(spec, "k", f"certificate.V.{p}")))
        else:
            raise ConfigError(f"unknown V kind {kind!r}", field=f"certificate.V.{p}")
    try:
        return Certificate(
            V=v_map,
            alpha1=parse_cf(_require(obj, "alpha1", "certificate"), "certificate.alpha1"),
            alpha2=parse_cf(_require(obj, "alpha2", "certificate"), "certificate.alpha2"),
            alpha3=parse_cf(_require(obj, "alpha3", "certificate"), "certificate.alpha3"),
            chi=parse_cf(_require(obj, "chi", "certificate"), "certificate.chi"),
            phi={str(p): parse_rate(r, f"certificate.phi.{p}")
                 for p, r in _require(obj, "phi", "certificate").items()},
            psi={str(p): parse_rate(r, f"certificate.psi.{p}")
                 for p, r in _require(obj, "psi", "certificate").items()},
            partition=parse_partition(_require(obj, "partition", "certificate")),
            dwell=parse_dwell(_require(obj, "dwell", "certificate")),
        )
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e), field="certificate") from e


def parse_mode_changes(pairs) -> ModeChangeSet:
    return ModeChangeSet(frozenset((str(p), str(q)) for p, q in pairs))


def write_csv(path, header, rows):
    """A CSV file of the column names in ``header`` and one line per row:
    string cells as they are, numbers through ``fmt``."""
    lines = [",".join(header)]
    lines += [",".join(c if isinstance(c, str) else fmt(c) for c in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def write_trajectory_csv(path, traj, n: int):
    write_csv(path, ["t", "mode", *(f"x{i + 1}" for i in range(n)), "jump_flag"],
              ((t, mode, *x.tolist(), flag) for t, mode, x, flag in traj.rows()))


def write_reports_csv(path, reports):
    write_csv(path, ["kind", "time", "mode", "lhs", "rhs", "margin"],
              ((r.kind, r.time, r.mode, r.lhs, r.rhs, r.margin) for r in reports))


def write_json(path, obj):
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")

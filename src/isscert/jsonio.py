"""JSON config ingestion and CSV/JSON emission helpers.

Configs are plain JSON documents describing the system, switching signal,
input, certificate and run parameters; only the parametric families are
admitted (no user code).  This is the one module that reads a config.
Every malformed value is a ConfigError naming its field: a section that is
not an object, a list of modes or instants given as anything but a list (a
bare string among them), a per-mode map that misses a mode, a matrix that
is not finite, 2-D and of the shape the system fixes, and a number that is
NaN, infinite or an integer beyond the floats.  Every scalar goes through
one reader, ``_number``.
Every CSV file goes through ``write_csv``, which takes columns, not rows;
its floats are printed with 17 significant digits (``%.17g``) so
round-trips are lossless.  From ``TEMPLATE_CELLS`` cells on,
``csvtext.write_csv`` prints a file a block of rows at a time, each block a
column at a time: the digits of each number come from a float64
double-double product (Dekker's) with a correctly rounded power of ten,
and a cell that is not finite, lies beyond 10^+-290, or whose rounding
lies within that product's error bound of about 5e-15 (a true tie, such
as 2^-25) goes through ``'%.17g'`` on its own.  Smaller files, and text
that is not ASCII, go through one ``%`` template per row.  The bytes are
the same either way.  Every JSON file goes through ``write_json``, whose
bytes are exactly those of ``json.dumps(obj, indent=2, sort_keys=True)``
and a newline, but strict: a float that is not finite is written as the
string that ``'%.17g'`` prints for it.  It takes NumPy arrays as their
``tolist()`` and prints each row of a finite float64 matrix with one
C-level join of ``float.__repr__`` texts, without ``json``'s pure-Python
indenting encoder.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .certify import (DEFAULT_A_GRID, DEFAULT_DINI_COEFF, FORMS, Certificate, norm_power_v,
                      quadratic_v)
from .errors import AsymmetricError, ConfigError
from .lmi import QuadraticCertificate
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


# Below this many cells a file goes through the row template: the column
# formatter of csvtext saves under 1 ms there, less than its one-off cost in
# a fresh process (about 9 ms to compile the module and build its tables,
# of which the power-of-ten table takes about 2 ms).  Its traced peak, one
# block's row buffer (csvtext._ROW_BYTES) and temporaries, stays under
# about 2 MB however long the file.
TEMPLATE_CELLS = 4000


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


def _mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"must be an object, got {obj!r}", field=where)
    return obj


def _list(obj, where: str) -> list:
    """A list (a bare string would otherwise iterate as one-letter items)."""
    if not isinstance(obj, list):
        raise ConfigError(f"must be a list, got {obj!r}", field=where)
    return obj


def _require(cfg: dict, key: str, where: str):
    if key not in _mapping(cfg, where):
        raise ConfigError("missing required key", field=f"{where}.{key}")
    return cfg[key]


def _per_mode(obj, where: str, modes) -> dict:
    """An object with an entry for each of ``modes``."""
    missing = sorted(set(modes) - set(_mapping(obj, where)))
    if missing:
        raise ConfigError(f"no entry for mode {missing[0]!r}", field=f"{where}.{missing[0]}")
    return obj


def _number(value, where: str, cast=float, low=None, strict=False):
    """``cast(value)``, a finite number >= low (> low when ``strict``) when
    ``low`` is given; anything else, NaN, +-inf and integers beyond the floats
    included, is a ConfigError on ``where``."""
    try:
        x = cast(value)
        ok = math.isfinite(x) and (low is None or (x > low if strict else x >= low))
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"malformed value {value!r} ({e})", field=where) from e
    if not ok:
        bound = "" if low is None else f" {'>' if strict else '>='} {low}"
        raise ConfigError(f"must be a finite number{bound}, got {value!r}", field=where)
    return x


def _number_at(obj, key: str, where: str, default=None, **limits):
    """``_number`` of ``obj[key]``, named ``where.key``: a required key, unless
    a ``default`` is given for it."""
    value = _require(obj, key, where) if default is None else obj.get(key, default)
    return _number(value, f"{where}.{key}", **limits)


def _numbers(value, where: str, low=None, strict=False) -> list[float]:
    """A nonempty list of ``_number`` values."""
    if not _list(value, where):
        raise ConfigError("must be a nonempty list", field=where)
    return [_number(v, where, low=low, strict=strict) for v in value]


def _matrix(value, where: str, shape=None, name: str = "matrix") -> np.ndarray:
    """A finite 2-D matrix, of ``shape`` when given."""
    try:
        m = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"{name} is not a matrix of numbers ({e})", field=where) from e
    if m.ndim != 2 or not np.all(np.isfinite(m)) or shape not in (None, m.shape):
        size = "" if shape is None else "{}x{} ".format(*shape)
        raise ConfigError(f"{name} must be a {size}matrix of finite numbers, got {value!r}",
                          field=where)
    return m


def _vector(value, where: str, m: int, bare: bool = True) -> np.ndarray:
    """m finite numbers (one bare number when m = 1 and ``bare``)."""
    try:
        u = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"not a vector of numbers ({e})", field=where) from e
    if bare:
        u = np.atleast_1d(u)
    if u.shape != (m,) or not np.all(np.isfinite(u)):
        raise ConfigError(f"must be {m} finite numbers, got {value!r}", field=where)
    return u


def parse_rate(obj: dict, where: str) -> RateFunction:
    kind = _require(obj, "kind", where)
    try:
        if kind == "linear":
            return RateFunction("linear", eta=_number_at(obj, "eta", where))
        if kind == "power":
            return RateFunction("power", c=_number_at(obj, "c", where),
                                k=_number_at(obj, "k", where))
        if kind == "tabulated":
            return RateFunction("tabulated", points=_matrix(
                _require(obj, "points", where), f"{where}.points", name="points"))
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e), field=where) from e
    raise ConfigError(f"unknown rate kind {kind!r}", field=where)


def parse_cf(obj: dict, where: str) -> ComparisonFunction:
    kind = _require(obj, "kind", where)
    try:
        if kind == "linear":
            return linear_cf(_number_at(obj, "a", where))
        if kind == "power":
            return power_cf(_number_at(obj, "c", where), _number_at(obj, "k", where))
        if kind == "tabulated":
            return ComparisonFunction("tabulated", points=_matrix(
                _require(obj, "points", where), f"{where}.points", name="points"))
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e), field=where) from e
    raise ConfigError(f"unknown comparison kind {kind!r}", field=where)


def parse_signal(obj: dict) -> SwitchingSignal:
    try:
        return SwitchingSignal(
            t0=_number_at(obj, "t0", "signal"),
            instants=tuple(_number(t, "signal.instants")
                           for t in _list(obj.get("instants", []), "signal.instants")),
            modes=tuple(str(m) for m in _list(_require(obj, "modes", "signal"), "signal.modes")),
            horizon=_number_at(obj, "horizon", "signal"),
        )
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e), field="signal") from e


def parse_model(obj: dict) -> LinearSystemModel:
    """The linear system: A, B, J and H on one mode set, with finite
    matrices of consistent shape."""
    if _require(obj, "kind", "system") != "linear":
        raise ConfigError("only linear systems are config-ingestible", field="system.kind")
    modes = _mapping(_require(obj, "A", "system"), "system.A")
    if not modes:
        raise ConfigError("needs at least one mode", field="system.A")
    mats = {}
    for name in "ABJH":
        per_mode = _per_mode(_require(obj, name, "system"), f"system.{name}", modes)
        extra = sorted(set(per_mode) - set(modes))
        if extra:
            raise ConfigError("mode absent from system.A", field=f"system.{name}.{extra[0]}")
        mats[name] = {p: _matrix(m, f"system.{name}.{p}") for p, m in per_mode.items()}
    try:
        return LinearSystemModel(**mats)
    except ValueError as e:
        raise ConfigError(str(e), field="system") from e


def parse_input(obj: dict | None, m: int) -> InputSignal:
    if obj is None:
        return zero_input(m)
    kind = _require(obj, "kind", "input")

    def vector(key):
        return _vector(_require(obj, key, "input"), f"input.{key}", m)
    try:
        if kind == "zero":
            return zero_input(m)
        if kind == "constant":
            return constant_input(vector("value"))
        if kind == "sinusoid":
            return sinusoid_input(vector("amplitude"), _number_at(obj, "omega", "input"),
                                  _number_at(obj, "phase", "input", 0.0))
        if kind == "step":
            return step_input(vector("before"), vector("after"),
                              _number_at(obj, "t_switch", "input"))
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e), field="input") from e
    raise ConfigError(f"unknown input kind {kind!r}", field="input.kind")


def parse_dwell(obj: dict, where: str, modes) -> DwellSpec:
    """The dwell spec at ``where``, with a dwell time for each of ``modes``."""
    tau = _per_mode(_require(obj, "tau", where), f"{where}.tau", modes)
    try:
        return DwellSpec(
            tau={str(p): _number(v, f"{where}.tau.{p}") for p, v in tau.items()},
            delta=_number_at(obj, "delta", where),
            T_S=_number_at(obj, "T_S", where, 0.0),
            T_U=_number_at(obj, "T_U", where, 0.0),
        )
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e), field=where) from e


def parse_partition(obj: dict, where: str) -> ModePartition:
    _mapping(obj, where)
    try:
        return ModePartition(frozenset(map(str, _list(obj.get("stable", []), f"{where}.stable"))),
                             frozenset(map(str, _list(obj.get("unstable", []),
                                                      f"{where}.unstable"))))
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e), field=where) from e


def _parse_v(spec, where: str, n: int):
    kind = _require(spec, "kind", where)
    if kind == "quadratic":
        return quadratic_v(_matrix(_require(spec, "M", where), where, (n, n), "M"))
    if kind == "power":
        return norm_power_v(_number_at(spec, "c", where), _number_at(spec, "k", where))
    raise ConfigError(f"unknown V kind {kind!r}", field=where)


def parse_certificate(obj: dict, modes, n: int) -> Certificate:
    """The certificate, with V, phi, psi and dwell.tau entries for each of
    ``modes`` and quadratic V of n x n matrices."""
    def per_mode(key, parse):
        entries = _per_mode(_require(obj, key, "certificate"), f"certificate.{key}", modes)
        return {p: parse(v, f"certificate.{key}.{p}") for p, v in entries.items()}

    def cf(key):
        return parse_cf(_require(obj, key, "certificate"), f"certificate.{key}")
    try:
        return Certificate(
            V=per_mode("V", lambda spec, where: _parse_v(spec, where, n)),
            alpha1=cf("alpha1"), alpha2=cf("alpha2"), alpha3=cf("alpha3"), chi=cf("chi"),
            phi=per_mode("phi", parse_rate),
            psi=per_mode("psi", parse_rate),
            partition=parse_partition(_require(obj, "partition", "certificate"),
                                      "certificate.partition"),
            dwell=parse_dwell(_require(obj, "dwell", "certificate"), "certificate.dwell", modes),
        )
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e), field="certificate") from e


def parse_quadratic_certificate(obj: dict, model: LinearSystemModel) -> QuadraticCertificate:
    """``lmi.certificate``: M (n x n), Q (m x m), eta and mu for every mode of
    the system."""
    n, m = model.dims
    where = "lmi.certificate"
    M, Q, eta, mu = (_per_mode(_require(obj, key, where), f"{where}.{key}", model.A)
                     for key in ("M", "Q", "eta", "mu"))
    try:
        return QuadraticCertificate(
            M={p: _matrix(v, f"{where}.M.{p}", (n, n)) for p, v in M.items()},
            Q={p: _matrix(v, f"{where}.Q.{p}", (m, m)) for p, v in Q.items()},
            eta={p: _number(v, f"{where}.eta.{p}") for p, v in eta.items()},
            mu={p: _number(v, f"{where}.mu.{p}") for p, v in mu.items()},
        )
    except (TypeError, ValueError, AsymmetricError) as e:
        raise ConfigError(str(e), field=where) from e


def parse_mode_changes(pairs, modes) -> ModeChangeSet:
    """``lmi.pairs``: a list of [new mode, old mode] pairs of ``modes``."""
    if not isinstance(pairs, list):
        raise ConfigError(f"must be a list of mode pairs, got {pairs!r}", field="lmi.pairs")
    for i, pair in enumerate(pairs):
        if not (isinstance(pair, list) and len(pair) == 2 and set(map(str, pair)) <= set(modes)):
            raise ConfigError(f"must be a [new mode, old mode] pair of system modes, "
                              f"got {pair!r}", field=f"lmi.pairs.{i}")
    return ModeChangeSet(frozenset((str(p), str(q)) for p, q in pairs))


def parse_seed(cfg: dict, flag=None) -> int:
    """The ``--seed`` flag when given, else the config's ``seed`` (0 unless
    given): an integer >= 0."""
    if flag is not None:
        return _number(flag, "--seed", cast=int, low=0)
    return _number(cfg.get("seed", 0), "seed", cast=int, low=0)


def output_dir(path) -> Path:
    """The ``--out`` directory, made when missing; a path that cannot be
    one (an existing file, say) is a ConfigError on ``--out``."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(str(e), field="--out") from e
    return out


def parse_run(cfg: dict):
    """(model, signal, input, x0, step) of a config: a signal whose modes are
    all system modes, x0 as a list of n finite numbers and a step > 0
    (1e-3 unless given)."""
    model = parse_model(_require(cfg, "system", "config"))
    sig = parse_signal(_require(cfg, "signal", "config"))
    n, m = model.dims
    missing = sig.mode_set - set(model.A)
    if missing:
        raise ConfigError(f"signal uses modes absent from the system: {sorted(missing)}",
                          field="signal.modes")
    inp = parse_input(cfg.get("input"), m)
    x0 = _vector(_require(cfg, "x0", "config"), "x0", n, bare=False)
    step = _number(cfg.get("step", 1e-3), "step", low=0.0, strict=True)
    return model, sig, inp, x0, step


def parse_run_certificate(cfg: dict, sig: SwitchingSignal, n: int):
    """The certificate, with an entry for every mode of the signal, and its
    form ("implication" unless given)."""
    obj = _mapping(_require(cfg, "certificate", "config"), "certificate")
    form = obj.get("form", "implication")
    if form not in FORMS:
        raise ConfigError(f"unknown form {form!r}; choose one of {list(FORMS)}",
                          field="certificate.form")
    return parse_certificate(obj, sig.mode_set, n), form


def parse_checks(cfg: dict) -> tuple[float, list[float]]:
    """The Dini coefficient (``tolerances.dini_coeff``, >= 0) and the dwell
    condition grid (``dwell_a_grid``, numbers > 0) of certify and construct."""
    tolerances = _mapping(cfg.get("tolerances", {}), "tolerances")
    return (_number(tolerances.get("dini_coeff", DEFAULT_DINI_COEFF), "tolerances.dini_coeff",
                    low=0.0),
            _numbers(cfg.get("dwell_a_grid", list(DEFAULT_A_GRID)), "dwell_a_grid", low=0.0,
                     strict=True))


def parse_bound(cfg: dict, cert: Certificate, sig: SwitchingSignal):
    """The ``bound`` section: (lower envelope, upper envelope, runs, x0_range,
    u_bound, r_list, s_grid), with every r_list level's alpha2 finite and
    s_grid 51 points over the signal unless given; ``patch_samples`` (>= 1)
    is checked but ignored, since the patch is proved, not sampled."""
    bcfg = _require(cfg, "bound", "config")
    env = _require(bcfg, "envelopes", "bound")
    lower, upper = (parse_rate(_require(env, key, "bound.envelopes"), f"bound.envelopes.{key}")
                    for key in ("lower", "upper"))
    runs = _number_at(bcfg, "runs", "bound", 100, cast=int, low=1)
    x0_range = _number_at(bcfg, "x0_range", "bound", 1.0, low=0.0)
    u_bound = _number_at(bcfg, "u_bound", "bound", 0.0, low=0.0)
    _number_at(bcfg, "patch_samples", "bound", 20, cast=int, low=1)
    r_list = _numbers(bcfg.get("r_list", [1.0]), "bound.r_list", low=0.0)
    for r in r_list:
        if not math.isfinite(cert.alpha2(r)):
            raise ConfigError(f"alpha2({r!r}) exceeds the floats", field="bound.r_list")
    s_grid = _numbers(bcfg.get("s_grid", np.linspace(0.0, sig.horizon - sig.t0, 51).tolist()),
                      "bound.s_grid", low=0.0)
    return lower, upper, runs, x0_range, u_bound, r_list, s_grid


def parse_lmi(cfg: dict):
    """(model, partition, dwell, pairs, certificate) of an ``lmi`` config;
    the certificate is None in synth mode and ``lmi.certificate`` in verify
    mode (the default)."""
    model = parse_model(_require(cfg, "system", "config"))
    lcfg = _require(cfg, "lmi", "config")
    partition = parse_partition(_require(lcfg, "partition", "lmi"), "lmi.partition")
    missing = sorted(set(model.A) - partition.stable - partition.unstable)
    if missing:
        raise ConfigError(f"modes in neither class: {missing}", field="lmi.partition")
    dwell = parse_dwell(_require(lcfg, "dwell", "lmi"), "lmi.dwell", model.A)
    q_set = parse_mode_changes(_require(lcfg, "pairs", "lmi"), model.A)
    mode = lcfg.get("mode", "verify")
    if mode == "synth":
        return model, partition, dwell, q_set, None
    if mode == "verify":
        return model, partition, dwell, q_set, parse_quadratic_certificate(
            _require(lcfg, "certificate", "lmi"), model)
    raise ConfigError(f"unknown lmi mode {mode!r}", field="lmi.mode")


def write_csv(path, header, columns):
    """A CSV file of the column names in ``header`` and one line per entry of
    the equally long ``columns``: ``%s`` for strings, ``%.17g`` else, as
    each column's dtype picks.  From ``TEMPLATE_CELLS`` cells on,
    ``csvtext.write_csv`` prints the file a block of rows at a time, each
    block a column at a time; below that, and for text that is not ASCII,
    every row goes through one ``%`` template.  Both give the same bytes."""
    columns = [np.asarray(c) for c in columns]
    if columns and len(columns) * len(columns[0]) >= TEMPLATE_CELLS:
        from . import csvtext
        if csvtext.write_csv(path, header, columns):
            return
    template = ",".join("%s" if c.dtype.kind in "US" else "%.17g" for c in columns)
    lines = [",".join(header)]
    lines += [template % row for row in zip(*(c.tolist() for c in columns))]
    Path(path).write_text("\n".join(lines) + "\n")


def write_trajectory_csv(path, traj, n: int):
    times, states, modes, _ = traj.samples
    write_csv(path, ["t", "mode", *(f"x{i + 1}" for i in range(n)), "jump_flag"],
              [times, modes, *states.T, traj.jump_flags()])


def write_reports_csv(path, reports):
    write_csv(path, ["kind", "time", "mode", "lhs", "rhs", "margin"],
              [reports.kind, reports.time, reports.mode, reports.lhs, reports.rhs,
               reports.margin])


def write_json(path, obj):
    """``obj`` as ``json.dumps(obj, indent=2, sort_keys=True)`` prints it,
    plus a newline, but strict: a float that is not finite, for which JSON
    has no literal, is written as the string ``'%.17g'`` prints for it in
    the CSV files (``"inf"``, ``"-inf"`` or ``"nan"``).  A NumPy array is
    written as its ``tolist()``."""
    Path(path).write_text(_json_text(obj, "") + "\n")


def _json_text(obj, pad: str) -> str:
    """``obj`` printed at indent ``pad``, type by type in ``json``'s order:
    strings and keys (which must be strings) through ``json``'s own ASCII
    escaper, ints through ``int.__repr__`` and floats through
    ``float.__repr__``, as ``json.dumps`` prints them."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        # Only inf, -inf and nan have an "n", and their '%.17g' is their repr.
        return text if "n" not in text else f'"{text}"'
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        return _bracket("[]", [_json_text(v, inner) for v in obj], pad)
    if isinstance(obj, dict):
        # The escaper raises TypeError on a key that is not a string.
        return _bracket("{}", [f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}"
                               for k, v in sorted(obj.items())], pad)
    if isinstance(obj, np.ndarray):
        return _array_text(obj, pad)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _bracket(ends: str, items: list[str], pad: str) -> str:
    """The printed ``items`` between the two characters of ``ends``, one a
    line at indent ``pad`` plus two spaces."""
    if not items:
        return ends
    inner = pad + "  "
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{ends[1]}"


def _array_text(a: np.ndarray, pad: str) -> str:
    """A finite float64 matrix printed a row at a time, each row one C-level
    join of ``float.__repr__`` texts.  Any other array is printed as its
    ``tolist()``."""
    if a.dtype != np.float64 or a.ndim != 2 or not np.isfinite(a).all():
        return _json_text(a.tolist(), pad)
    inner = pad + "  "
    rows = [_bracket("[]", list(map(float.__repr__, row)), inner) for row in a.tolist()]
    return _bracket("[]", rows, pad)

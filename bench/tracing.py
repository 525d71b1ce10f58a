"""Spans around the isscert layers, recorded from outside the program.

``install`` swaps wrappers in for

* every public function of the layer modules, wherever an isscert module
  binds it (``isscert.cli`` re-binds ``simulate``, ``build_bound``,
  ``check_*``, ``mdadt_slack``, ``synthesize`` ... at import, and
  ``cli._COMMANDS`` holds the ``cmd_*`` functions);
* the methods ``DecreasingCertificate.h`` and ``PhiTransform.value`` /
  ``inverse``;
* the ``beta`` / ``gamma`` closures of each ``IssBound`` that ``build_bound``
  returns;

and ``uninstall`` puts the originals back. Each span has a name, a start, an
end and a parent; spans stay in memory (four flat arrays) until the pass is
summarised. ``SwitchingSignal.events`` is counted without a span, because the
slack suprema and ``h(t)`` call it in their innermost loops.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("cli", "jsonio", "simulate", "switching", "rates", "certify", "construct",
          "bounds", "lmi")
COMMANDS = ("simulate", "certify", "construct", "bound", "lmi")

# Span names grouped into the counts and busy times the benchmark reports.
# Busy time is inclusive and counts a span only when no span of the same
# group is open around it.
GROUPS = {
    "parse": ("jsonio.load_config", "jsonio.parse_model", "jsonio.parse_signal",
              "jsonio.parse_input", "jsonio.parse_certificate", "jsonio.parse_rate",
              "jsonio.parse_cf", "jsonio.parse_dwell", "jsonio.parse_partition",
              "jsonio.parse_mode_changes"),
    "write": ("jsonio.write_trajectory_csv", "jsonio.write_reports_csv", "jsonio.write_json"),
    "simulate": ("simulate.simulate",),
    "reach": ("simulate.reachability_bound",),
    "slack": ("switching.mdadt_slack", "switching.mdalt_slack"),
    "phi_value": ("rates.PhiTransform.value",),
    "phi_inverse": ("rates.PhiTransform.inverse",),
    "phi": ("rates.PhiTransform.value", "rates.PhiTransform.inverse"),
    "h": ("construct.DecreasingCertificate.h",),
    "build_decreasing": ("construct.build_decreasing",),
    "certify_decrease": ("construct.certify_decrease",),
    "build_bound": ("bounds.build_bound",),
    "beta": ("bounds.IssBound.beta",),
    "gamma": ("bounds.IssBound.gamma",),
    "certify_iss": ("bounds.certify_iss",),
    "eig": ("lmi.jacobi_eigenvalues",),
    "synth": ("lmi.synthesize",),
    "lmi_check": ("lmi.check_flow_lmi", "lmi.check_jump_lmi", "lmi.check_rate_conditions"),
}
TRAJECTORY_CHECKS = ("check_flow_implication", "check_dissipation")

# Per-layer metric names, units and directions, in report order.
PER_LAYER = (
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("jsonio.parse_s", "s", "lower"), ("jsonio.write_s", "s", "lower"),
    ("jsonio.bytes_written", "bytes", "lower"),
    ("simulate.calls", "count", "lower"), ("simulate.busy_s", "s", "lower"),
    ("simulate.rk4_steps", "count", "lower"), ("simulate.us_per_step", "us", "lower"),
    ("simulate.reach_calls", "count", "lower"), ("simulate.reach_busy_s", "s", "lower"),
    ("switching.slack_calls", "count", "lower"), ("switching.slack_busy_s", "s", "lower"),
    ("switching.events", "count", "lower"),
    ("rates.phi_value_calls", "count", "lower"), ("rates.phi_inverse_calls", "count", "lower"),
    ("rates.busy_s", "s", "lower"),
    ("certify.busy_s", "s", "lower"), ("certify.samples", "count", "lower"),
    ("certify.evaluated_share", "ratio", "higher"), ("certify.reports", "count", "lower"),
    ("construct.h_calls", "count", "lower"), ("construct.h_busy_s", "s", "lower"),
    ("construct.build_busy_s", "s", "lower"), ("construct.decrease_busy_s", "s", "lower"),
    ("bounds.build_busy_s", "s", "lower"), ("bounds.beta_calls", "count", "lower"),
    ("bounds.beta_busy_s", "s", "lower"), ("bounds.gamma_calls", "count", "lower"),
    ("bounds.certify_iss_busy_s", "s", "lower"),
    ("lmi.eig_calls", "count", "lower"), ("lmi.eig_busy_s", "s", "lower"),
    ("lmi.synth_busy_s", "s", "lower"), ("lmi.check_busy_s", "s", "lower"),
)
# Counts that must repeat exactly for the same code and seed.
EXACT_COUNTS = ("simulate.rk4_steps", "bounds.beta_calls", "construct.h_calls",
                "lmi.eig_calls", "switching.slack_calls", "certify.samples")


class Tracer:
    """Flat span store plus the counters read off arguments and results."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        self.name_id, self.parent = array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self.current = -1
        self.root_commands: list[str] = []
        self.counts = {"simulate.rk4_steps": 0, "switching.events": 0,
                       "jsonio.bytes_written": 0, "certify.reports": 0}
        self.flow_checks: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, after=None):
        """``fn`` inside a span; ``after(result, args)`` may replace the result."""
        nid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.current
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(parent)
            tracer.end.append(0.0)
            tracer.current = idx
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer.current = parent
            return result if after is None else after(result, args)
        return traced

    # -- installation -----------------------------------------------------

    def _patch(self, owner, key, value):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self):
        import isscert
        from isscert.construct import DecreasingCertificate
        from isscert.rates import PhiTransform
        from isscert.switching import SwitchingSignal

        # import_module, because the package re-exports functions under the
        # names of some submodules (isscert.simulate is the function).
        modules = {layer: importlib.import_module(f"isscert.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self.wrap(obj, f"{layer}.{name}", self._after(layer, name))
        for mod in (isscert, *modules.values()):
            namespace = vars(mod)
            for name, obj in list(namespace.items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, name, wrappers[obj])
                elif isinstance(obj, dict) and not name.startswith("__"):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrappers:
                            self._patch(obj, key, wrappers[value])
        self._patch(DecreasingCertificate, "h",
                    self.wrap(DecreasingCertificate.h, "construct.DecreasingCertificate.h"))
        for method in ("value", "inverse"):
            self._patch(PhiTransform, method,
                        self.wrap(getattr(PhiTransform, method), f"rates.PhiTransform.{method}"))
        events = SwitchingSignal.events
        counts = self.counts

        def counted_events(sig):
            counts["switching.events"] += 1
            return events(sig)
        self._patch(SwitchingSignal, "events", counted_events)

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def _after(self, layer, name):
        """Hook reading a count off the call, or None."""
        tracer = self
        if (layer, name) == ("simulate", "simulate"):
            def after(traj, args):
                tracer.counts["simulate.rk4_steps"] += sum(len(s.times) - 1 for s in traj.segments)
                return traj
        elif layer == "jsonio" and name.startswith("write_"):
            def after(result, args):
                tracer.counts["jsonio.bytes_written"] += Path(args[0]).stat().st_size
                return result
        elif layer == "certify" and name.startswith("check_"):
            def after(reports, args):
                if isinstance(reports, list):
                    tracer.counts["certify.reports"] += len(reports)
                if name in TRAJECTORY_CHECKS:
                    tracer.flow_checks.append((name, *args[:3]))
                return reports
        elif (layer, name) == ("bounds", "build_bound"):
            def after(bound, args):
                return dataclasses.replace(
                    bound, beta=tracer.wrap(bound.beta, "bounds.IssBound.beta"),
                    gamma=tracer.wrap(bound.gamma, "bounds.IssBound.gamma"))
        else:
            return None
        return after

    # -- summaries ----------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.intc).astype(np.int64),
                np.frombuffer(self.parent, dtype=np.intc).astype(np.int64),
                np.frombuffer(self.start, dtype=float), np.frombuffer(self.end, dtype=float))

    def summarize(self, walls: list[tuple[str, float]]) -> dict:
        """Per-layer metrics of one traced pass.

        ``walls`` holds (command, seconds) of each invocation timed outside
        the program, in call order; each matches one root span.
        """
        nid, parent, start, end = self.arrays()
        n = len(nid)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child
        layer_of = np.array([LAYERS.index(name.split(".")[0]) for name in self.names] or [0])
        span_layer = layer_of[nid]
        roots = np.flatnonzero(~has_parent)
        root = np.where(has_parent, parent, np.arange(n))
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        cmd_of_root = np.full(n, -1)
        cmd_of_root[roots] = [COMMANDS.index(c) for c in self.root_commands]
        span_cmd = cmd_of_root[root]

        def top(inside):
            # Drop spans nested inside another span of the same group.
            nested = np.zeros(n, bool)
            p = parent.copy()
            while np.any(p >= 0):
                ok = p >= 0
                nested[ok] |= inside[p[ok]]
                p[ok] = parent[p[ok]]
            return inside & ~nested

        def members(group):
            return np.isin(nid, [self._ids[s] for s in GROUPS[group] if s in self._ids])

        def busy(group, cmd=None):
            sel = top(members(group))
            if cmd is not None:
                sel &= span_cmd == COMMANDS.index(cmd)
            return float(dur[sel].sum())

        def calls(group):
            return int(members(group).sum())

        m = {f"{layer}.self_s": float(self_t[span_layer == i].sum())
             for i, layer in enumerate(LAYERS)}
        in_certify = np.isin(nid, [i for i, s in enumerate(self.names) if s.startswith("certify.")])
        samples, evaluated = self._flow_samples()
        steps = self.counts["simulate.rk4_steps"]
        sim_busy = busy("simulate")
        m.update({
            "jsonio.parse_s": busy("parse"), "jsonio.write_s": busy("write"),
            "jsonio.bytes_written": self.counts["jsonio.bytes_written"],
            "simulate.calls": calls("simulate"), "simulate.busy_s": sim_busy,
            "simulate.rk4_steps": steps,
            "simulate.us_per_step": sim_busy / steps * 1e6 if steps else 0.0,
            "simulate.reach_calls": calls("reach"), "simulate.reach_busy_s": busy("reach"),
            "switching.slack_calls": calls("slack"), "switching.slack_busy_s": busy("slack"),
            "switching.events": self.counts["switching.events"],
            "rates.phi_value_calls": calls("phi_value"),
            "rates.phi_inverse_calls": calls("phi_inverse"), "rates.busy_s": busy("phi"),
            "certify.busy_s": float(dur[top(in_certify)].sum()),
            "certify.samples": samples,
            "certify.evaluated_share": evaluated / samples if samples else 0.0,
            "certify.reports": self.counts["certify.reports"],
            "construct.h_calls": calls("h"), "construct.h_busy_s": busy("h"),
            "construct.build_busy_s": busy("build_decreasing"),
            "construct.decrease_busy_s": busy("certify_decrease"),
            "bounds.build_busy_s": busy("build_bound"), "bounds.beta_calls": calls("beta"),
            "bounds.beta_busy_s": busy("beta"), "bounds.gamma_calls": calls("gamma"),
            "bounds.certify_iss_busy_s": busy("certify_iss"),
            "lmi.eig_calls": calls("eig"), "lmi.eig_busy_s": busy("eig"),
            "lmi.synth_busy_s": busy("synth"), "lmi.check_busy_s": busy("lmi_check"),
        })

        # Accounting per command: wall time outside = layer self times inside
        # the command's root spans + remainder (time outside the root span).
        per_cmd = {}
        for c, cmd in enumerate(COMMANDS):
            wall = sum(w for name, w in walls if name == cmd)
            if not wall:
                continue
            in_cmd = span_cmd == c
            layers = {layer: float(self_t[in_cmd & (span_layer == i)].sum())
                      for i, layer in enumerate(LAYERS)}
            per_cmd[cmd] = {
                "wall_s": wall, "layers": layers,
                "remainder_s": wall - sum(layers.values()),
                "simulate_layer_s": layers["simulate"],
                "h_busy_s": busy("h", cmd), "slack_busy_s": busy("slack", cmd),
                "eig_busy_s": busy("eig", cmd),
            }
        m["trace.remainder_s"] = sum(w for _, w in walls) - float(dur[roots].sum())
        return {"metrics": m, "per_command": per_cmd}

    def _flow_samples(self) -> tuple[int, int]:
        """Forward-difference samples given to the flow checks, and how many of
        them sit at or above chi(||u||inf) (all of them in dissipation form,
        which is not gated)."""
        samples = evaluated = 0
        for name, cert, traj, inp in self.flow_checks:
            threshold = cert.chi(inp.sup_norm)
            for seg in traj.segments:
                ts = seg.times
                positive = np.diff(ts) > 0
                samples += int(positive.sum())
                if name == "check_flow_implication":
                    v = np.array([cert.V[seg.mode](float(t), x)
                                  for t, x in zip(ts[:-1], seg.states)])
                    positive &= v >= threshold
                evaluated += int(positive.sum())
        return samples, evaluated

    def write(self, path: Path):
        """Spans of the last traced pass, as flat arrays."""
        nid, parent, start, end = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, name_id=nid, parent=parent, start=start, end=end,
                            names=np.array(self.names), root_commands=np.array(self.root_commands))

"""The import path and the public surface.

NumPy is the only run-time dependency: every transform is closed-form and
the ``lmi`` synthesis solves its Lyapunov equations and generalized
eigenvalue problems with NumPy, so no command loads any SciPy module, not
even when it runs, and ``bound`` draws its runs without ``numpy.random``.
``jsonio.write_csv`` loads the column formatter ``csvtext`` on its first
large file.  Those checks run in a fresh interpreter, since the test process
itself has loaded SciPy for the oracles.  Every name ``isscert`` exports has a user: the package itself, the
acceptance gate or the README.  The benchmark's tracer finds every name it
patches and puts each one back.
"""

import ast
import importlib
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

from test_cli import TestLmi, acceptance9_bound_config, base_config, family_certificate_json

ROOT = Path(__file__).resolve().parent.parent


def fresh(code: str) -> dict:
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


LOADED = "sorted(m for m in sys.modules if m.startswith('scipy'))"


def test_cli_import_loads_no_scipy():
    assert fresh(f"import sys, json, isscert.cli; print(json.dumps({LOADED}))") == []


def test_cli_import_builds_no_parser():
    """``main`` builds the parser at its first call, not at import."""
    assert fresh("import json, isscert.cli as cli; "
                 "print(json.dumps(cli._parser.cache_info().currsize))") == 0


def test_cli_import_leaves_the_csv_formatter_unloaded():
    """``csvtext`` builds its tables when ``write_csv`` first needs them."""
    assert fresh("import sys, json, isscert.cli; "
                 "print(json.dumps('isscert.csvtext' in sys.modules))") is False


def test_non_linear_rates_run_without_quadrature(tmp_path):
    """certify, construct and bound on a power phi_s and a tabulated psi_u
    (the same rates as the family certificate's, written in those kinds)."""
    cert = family_certificate_json()
    cert["phi"]["s"] = {"kind": "power", "c": -1.0, "k": 1.0}
    cert["psi"]["u"] = {"kind": "tabulated", "points": [[1.0, 0.01], [2.0, 0.02]]}
    cfg = {**base_config(), "certificate": cert,
           "dwell_a_grid": [0.5, 1.0, 100.0],
           "bound": {"envelopes": {"lower": {"kind": "linear", "eta": 1.0},
                                   "upper": {"kind": "linear", "eta": 1.0}},
                     "runs": 2, "x0_range": 2.0, "patch_samples": 2}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    result = fresh(f"""
import json, sys
from isscert.cli import main
codes = [main([c, "--config", {str(path)!r}, "--out", {str(tmp_path)!r} + "/" + c,
               "--seed", "0"]) for c in ("certify", "construct", "bound")]
print(json.dumps({{"codes": codes, "loaded": {LOADED}}}))
""")
    assert result["codes"] == [0, 0, 0]
    assert result["loaded"] == []


def test_bound_loads_no_numpy_random(tmp_path):
    """``isscert bound`` draws its Monte-Carlo runs from the standard
    library's ``random``: NumPy's generators and the ``secrets`` and ``hmac``
    modules they pull in stay unloaded."""
    path = tmp_path / "bound.json"
    path.write_text(json.dumps(acceptance9_bound_config()))
    result = fresh(f"""
import json, sys
from isscert.cli import main
code = main(["bound", "--config", {str(path)!r}, "--out", {str(tmp_path / "out")!r},
             "--seed", "1"])
print(json.dumps({{"code": code, "loaded": sorted(
    m for m in ("numpy.random", "secrets", "hmac") if m in sys.modules)}}))
""")
    assert result == {"code": 0, "loaded": []}


def test_lmi_synth_and_verify_load_no_scipy(tmp_path):
    """``isscert lmi`` synthesizes a certificate, then verifies it, in one
    fresh process."""
    synth = TestLmi()._base()
    synth["lmi"]["mode"] = "synth"
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(synth))
    result = fresh(f"""
import json, sys
from isscert.cli import main
synth = json.loads(open({str(path)!r}).read())
codes = [main(["lmi", "--config", {str(path)!r}, "--out", {str(tmp_path / "synth")!r}])]
cert = json.loads(open({str(tmp_path / "synth" / "certificate.json")!r}).read())
cert.pop("lambda_max")
synth["lmi"].update(mode="verify", certificate=cert)
open({str(tmp_path / "verify.json")!r}, "w").write(json.dumps(synth))
codes.append(main(["lmi", "--config", {str(tmp_path / "verify.json")!r},
                   "--out", {str(tmp_path / "verify")!r}]))
print(json.dumps({{"codes": codes, "loaded": {LOADED}}}))
""")
    assert result == {"codes": [0, 0], "loaded": []}


def test_every_export_has_a_user():
    """Each name imported into ``isscert/__init__.py`` is used in the package
    beyond its own definition, or appears as ``iss.<name>`` in the acceptance
    tests, or as ``iss.<name>`` or `` `<name>` `` in the README."""
    package = ROOT / "src" / "isscert"
    init = ast.parse((package / "__init__.py").read_text())
    exported = [alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    source = "\n".join(p.read_text() for p in package.glob("*.py") if p.name != "__init__.py")
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text()
    readme = (ROOT / "README.md").read_text()
    unused = [name for name in exported
              if len(re.findall(rf"\b{name}\b", source)) < 2
              and not re.search(rf"\biss\.{name}\b", acceptance)
              and not re.search(rf"\biss\.{name}\b|`{name}`", readme)]
    assert exported and not unused


def test_bench_tracer_restores_what_it_patches():
    """``bench/tracing.py`` patches the layer functions, the class attributes
    ``DecreasingCertificate.h``, ``PhiTransform.value``/``inverse`` and
    ``SwitchingSignal.events``, reading each through ``__dict__``: a deleted
    one makes ``install`` raise.  After ``uninstall`` every binding it
    patched holds its original object again."""
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from isscert.construct import DecreasingCertificate
    from isscert.rates import PhiTransform
    from isscert.switching import SwitchingSignal

    modules = [importlib.import_module("isscert"),
               *(importlib.import_module(f"isscert.{layer}") for layer in tracing.LAYERS)]
    spaces = [vars(m) for m in modules]
    spaces += [v for space in spaces[:len(modules)] for k, v in space.items()
               if isinstance(v, dict) and not k.startswith("__")]
    spaces += [vars(c) for c in (DecreasingCertificate, PhiTransform, SwitchingSignal)]

    def bindings():
        return [(k, id(v)) for space in spaces for k, v in list(space.items())]

    before = bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer._patches and bindings() != before
    finally:
        tracer.uninstall()
    assert tracer._patches == [] and bindings() == before


# Module-level names ending in _TOL that are not check tolerances.
NOT_CHECK_TOLERANCES = {("lmi", "SYMMETRY_TOL"), ("lmi", "GRAM_TOL")}


def _small_literals(node):
    """The float literals 0 < |x| < 1e-6 of an operand: the operand itself or
    one reached through arithmetic (unary and binary operators)."""
    if isinstance(node, ast.Constant) and type(node.value) is float:
        return [node.value] if 0 < abs(node.value) < 1e-6 else []
    if isinstance(node, ast.UnaryOp):
        return _small_literals(node.operand)
    if isinstance(node, ast.BinOp):
        return _small_literals(node.left) + _small_literals(node.right)
    return []


def test_tolerances_are_defined_only_in_the_tolerance_module():
    """Outside ``tolerance.py`` no comparison adds a small epsilon of its own
    and no module defines a ``*_TOL`` constant other than the two of
    ``lmi`` that are not check tolerances, so every check keeps deciding
    through ``tolerance.exceeds``."""
    found = []
    for path in sorted((ROOT / "src" / "isscert").glob("*.py")):
        if path.name == "tolerance.py":
            continue
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                small = [x for operand in (node.left, *node.comparators)
                         for x in _small_literals(operand)]
                found += [f"{path.name}:{node.lineno}: compares with {x}" for x in small]
        names = [target.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                 if isinstance(target, ast.Name)]
        found += [f"{path.name}: defines {name}" for name in names
                  if name.endswith("_TOL") and (path.stem, name) not in NOT_CHECK_TOLERANCES]
    assert found == []

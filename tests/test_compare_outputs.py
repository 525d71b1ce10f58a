"""tools/compare_outputs.py: the CSV and JSON difference reports that name
which numbers a change moved, and the tree comparison built on them."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)

csv_differences = compare_outputs.csv_differences
json_differences = compare_outputs.json_differences


class TestCsvDifferences:
    def test_comma_in_the_last_header_names_one_column(self):
        # bound.csv's header "r,s,beta(r,s)" splits into four names over
        # three cells a row.
        a = "r,s,beta(r,s)\n1,2,4\n1,3,8\n"
        b = "r,s,beta(r,s)\n1,2,4\n1,3,8.000000001\n"
        assert csv_differences(a, b) == "beta(r,s): max rel 1.25e-10"

    def test_largest_relative_difference_per_column(self):
        a = "t,x1,x2\n0,1,10\n1,2,20\n"
        b = "t,x1,x2\n0,1.5,10\n1,3,20.2\n"
        assert csv_differences(a, b) == "x1: max rel 0.333; x2: max rel 0.0099"

    def test_row_count_mismatch(self):
        a = "t,x1\n0,1\n1,2\n"
        b = "t,x1\n0,1\n1,2\n2,3\n"
        assert csv_differences(a, b) == "header or row count differs (2 vs 3 rows)"

    def test_header_mismatch(self):
        assert csv_differences("t,x1\n0,1\n", "t,x2\n0,1\n").startswith("header or row count")

    def test_non_numeric_cells_are_counted(self):
        a = "kind,time,mode\nflow,0.5,s\nflow,1,u\njump,2,s\n"
        b = "kind,time,mode\njump,0.5,s\nflow,1,s\njump,2,u\n"
        assert csv_differences(a, b) == \
            "kind: 1 non-numeric cells differ; mode: 2 non-numeric cells differ"

    def test_nan_and_infinity(self):
        assert csv_differences("x\nnan\n", "x\nNaN\n") == "identical values, different bytes"
        assert csv_differences("x\n1\n", "x\ninf\n") == "x: max rel inf"
        assert csv_differences("x\n1\n", "x\nnan\n") == "x: max rel inf"

    def test_equal_values_in_other_bytes(self):
        assert csv_differences("x\n1.0\n", "x\n1\n") == "identical values, different bytes"


class TestJsonDifferences:
    def test_numeric_leaves_by_key_path(self):
        a = json.dumps({"max_margin": 2.0, "flow": {"s": {"max_eig": -1.0}}, "runs": [1, 2]})
        b = json.dumps({"max_margin": 2.0, "flow": {"s": {"max_eig": -1.5}}, "runs": [1, 4]})
        assert json_differences(a, b) == \
            "flow.s.max_eig: max rel 0.333; runs[*]: max rel 0.5 (1 of 2 leaves)"

    def test_a_changed_matrix_takes_one_line(self):
        a = {"M": {"s1": [[1.0, 2.0], [2.0, 5.0]], "s2": [[1.0]]}, "eta": {"s1": -1.0}}
        b = {"M": {"s1": [[1.0, 2.5], [2.5, 5.0 + 5e-11]], "s2": [[1.0]]}, "eta": {"s1": -1.0}}
        assert json_differences(json.dumps(a), json.dumps(b)) == \
            "M.s1[*][*]: max rel 0.2 (3 of 4 leaves)"

    def test_other_leaves_under_one_path_are_counted(self):
        a = json.dumps({"rates": [{"kind": "rate-sign"}, {"kind": "dwell-linear"}]})
        b = json.dumps({"rates": [{"kind": "dwell-linear"}, {"kind": "rate-sign"}]})
        assert json_differences(a, b) == \
            "rates[*].kind: 'rate-sign' -> 'dwell-linear' (2 of 2 leaves)"

    def test_list_length_differs(self):
        assert json_differences('{"a": [1, 2]}', '{"a": [1, 2, 3]}') == "keys differ: a[*]"

    def test_other_leaves_give_old_and_new(self):
        a = json.dumps({"verdict": "ok", "patched": True})
        b = json.dumps({"verdict": "violated", "patched": False})
        assert json_differences(a, b) == \
            "verdict: 'ok' -> 'violated'; patched: True -> False"

    def test_bool_is_not_a_number(self):
        # 1 == True in Python, yet the file changed from a number to a flag.
        assert json_differences('{"a": 1}', '{"a": true}') == "a: 1 -> True"
        assert json_differences('{"a": true}', '{"a": true}') == \
            "identical values, different bytes"

    def test_keys_differ(self):
        assert json_differences('{"a": 1, "b": 2}', '{"a": 1, "c": 2}') == "keys differ: b, c"

    def test_equal_values_in_other_bytes(self):
        assert json_differences('{"a": 1.0}', '{"a":1.0}') == "identical values, different bytes"


def test_compare_names_codes_files_and_values(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side, code, x in ((parent, 0, "1"), (change, 3, "2")):
        (side / "w" / "1").mkdir(parents=True)
        (side / "exit_codes.json").write_text(json.dumps({"w/1/simulate": code}))
        (side / "w" / "1" / "trajectory.csv").write_text(f"t,x1\n0,{x}\n")
        (side / "w" / "1" / "same.json").write_text('{"a": 1}')
    (change / "w" / "1" / "extra.json").write_text("{}")
    assert compare_outputs.compare(parent, change) == [
        "exit code w/1/simulate: 0 -> 3",
        "only in change: w/1/extra.json",
        "differs: exit_codes.json: w/1/simulate: max rel 1",
        "differs: w/1/trajectory.csv: x1: max rel 0.5",
    ]
    assert "1 invocations, 3 files in common" in capsys.readouterr().out

"""tools/cold_start.py: fresh ``isscert`` processes on the benchmark's
configs, each exiting with the code its config expects, and a peak RSS that
is the child's own, not the spawning process's."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cold_start.py"


def test_every_command_runs_and_reads_its_own_peak():
    done = subprocess.run([sys.executable, str(TOOL), "--repeat", "2"], capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    rows = re.findall(r"^(\w+)\n  this +wall .* peak +([\d.]+) MB", done.stdout, re.MULTILINE)
    peak = {row: float(mb) for row, mb in rows}
    assert list(peak) == ["import", "simulate", "certify", "construct", "bound", "lmi"]
    # simulate loads csvtext and writes 17.5k rows: a few MB over the
    # import, which a peak floored at the tool's own would hide.
    assert peak["simulate"] > peak["import"] + 1.0

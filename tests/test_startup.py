"""What a fresh ``nilorbit`` process imports.

Each experiment is one CLI process, so modules imported at start-up are paid
for on every run.  jsonschema is not used by the package, mpmath only where
a floor must be decided exactly (``hardy.floor_at``), and concurrent.futures
not at all: several workers fork exponent helpers (``orbits._with_helpers``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SCRIPT = """
import json, sys
import nilorbit.cli as cli
heavy = ("jsonschema", "mpmath", "concurrent.futures")
at_import = [m for m in heavy if m in sys.modules]
out = sys.argv[1]
rcs = [cli.main(["discrepancy", "instances/heisenberg_pair.json", "--N", "1e4",
                 "--out", out + "/d.csv"]),
       cli.main(["average", "instances/heisenberg_pair.json", "--grid", "1e4",
                 "--workers", "1", "--out", out + "/a.csv"])]
print(json.dumps({"at_import": at_import, "rcs": rcs, "mpmath": "mpmath" in sys.modules}))
"""


def test_cli_start_up_and_real_mode_runs_skip_heavy_imports(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, str(tmp_path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["at_import"] == []
    assert result["rcs"] == [0, 0]
    assert result["mpmath"] is False

"""scripts/smoke.py, CI's check of the steepsim command line."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "smoke.py"


def test_smoke_passes_through_python_m(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path / "work"), sys.executable, "-m", "steepsim"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stderr == ""
    # sdof twice, verify, single, the ensemble on 2 workers and on 1, then
    # verify and the 2-worker ensemble again under MALLOC_PERTURB_
    assert sum(line.startswith("+ ") for line in proc.stdout.splitlines()) == 8
    assert sum(line.startswith("+ MALLOC_PERTURB_=165 ") for line in proc.stdout.splitlines()) == 2
    assert proc.stdout.endswith("smoke: all checks passed\n")

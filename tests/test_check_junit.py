"""scripts/check_junit.py, CI's check that only the documented test fails."""
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_junit.py"

DOCUMENTED = (
    '<testcase classname="tests.test_acceptance" name="test_baseline_outage_levels" time="2.1">'
    '<failure message="assert 0.6722 &gt; 0.95">assert 0.6722 &gt; 0.95</failure></testcase>'
)
DOCUMENTED_PASSING = (
    '<testcase classname="tests.test_acceptance" name="test_baseline_outage_levels" time="2.1"/>'
)
PASSING = '<testcase classname="tests.test_mc" name="test_outage_curves_monotone" time="0.1"/>'
# pytest reports a module that fails to import as an errored test case
COLLECTION_ERROR = (
    '<testcase classname="" name="tests.test_engine" time="0.0">'
    '<error message="collection failure">ImportError</error></testcase>'
)
FAILING = (
    '<testcase classname="tests.test_mc" name="test_histogram_mass_conserved" time="0.1">'
    '<failure message="assert 1999 == 2000">assert 1999 == 2000</failure></testcase>'
)


def _report(cases: str, failures: int, errors: int = 0) -> str:
    return (
        '<?xml version="1.0" encoding="utf-8"?><testsuites>'
        f'<testsuite name="pytest" errors="{errors}" failures="{failures}" skipped="0"'
        f' tests="3" time="3.0">{cases}</testsuite></testsuites>'
    )


@pytest.mark.parametrize(
    "report, status",
    [
        (_report(PASSING + DOCUMENTED, failures=1), 0),
        (_report(PASSING + DOCUMENTED + FAILING, failures=2), 1),
        (_report(PASSING + DOCUMENTED_PASSING, failures=0), 1),
        (_report(PASSING + DOCUMENTED + COLLECTION_ERROR, failures=1, errors=1), 1),
    ],
    ids=["documented failure alone", "extra failure", "documented test passes", "collection error"],
)
def test_only_the_documented_failure_passes(report, status, tmp_path):
    path = tmp_path / "tier1.xml"
    path.write_text(report, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(path)], capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (status, "")
    assert proc.stdout.startswith("failed: ")

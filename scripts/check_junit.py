#!/usr/bin/env python3
"""Pass a pytest JUnit report only when its one failure is the documented one.

Usage: python scripts/check_junit.py REPORT.xml

tests/test_acceptance.py::test_baseline_outage_levels fails by design (see
README.md, "Testing"). The check exits 0 when that test is the only test case
that failed or errored and no suite counts an error, and 1 otherwise, so a
new failure and an unexpected pass both fail it. It prints the failed cases.
"""
import argparse
import sys
import xml.etree.ElementTree as ET

EXPECTED = {"tests.test_acceptance::test_baseline_outage_levels"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="JUnit XML written by pytest --junitxml")
    root = ET.parse(parser.parse_args(argv).report).getroot()
    failed = {
        f"{case.get('classname')}::{case.get('name')}"
        for case in root.iter("testcase")
        if case.find("failure") is not None or case.find("error") is not None
    }
    errors = sum(int(s.get("errors", 0)) for s in root.iter("testsuite"))
    print("failed:", sorted(failed) or "none")
    return 0 if failed == EXPECTED and errors == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

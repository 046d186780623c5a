"""Shared fixtures plus a terminal summary of the acceptance checklist.

Every test in tests/test_acceptance.py whose name contains ``criterion_<tag>``
contributes one line to a summary block printed after the run, so the
checklist outcome is visible even under captured output.
"""

from __future__ import annotations

import re

import pytest

from sfcalc.models import enumerate_closed_terms, enumerate_normal_forms
from sfcalc.cli import load_default_prelude
from sfcalc.stdlib import build_catalog
from sfcalc.terms import Calculus

_CRITERION = re.compile(r"test_criterion_([0-9]+[a-z]?)_(.*)")


@pytest.fixture(scope="session")
def sk_catalog():
    return build_catalog(Calculus.SK)


@pytest.fixture(scope="session")
def sf_catalog():
    return build_catalog(Calculus.SF)


@pytest.fixture(scope="session")
def sk_terms(sk_catalog):
    return load_default_prelude(Calculus.SK)


@pytest.fixture(scope="session")
def sf_terms(sf_catalog):
    return load_default_prelude(Calculus.SF)


@pytest.fixture(scope="session")
def sf_normal_forms_6():
    return enumerate_normal_forms(Calculus.SF, 6)


@pytest.fixture(scope="session")
def sf_closed_6():
    return enumerate_closed_terms(Calculus.SF, 6)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for category, word in (
        ("passed", "PASS"),
        ("failed", "FAIL"),
        ("error", "ERROR"),
        ("xfailed", "XFAIL (documented infeasible; see test reason)"),
        ("xpassed", "XPASS (unexpectedly)"),
        ("skipped", "SKIP"),
    ):
        for report in terminalreporter.stats.get(category, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::" not in nodeid:
                continue
            if getattr(report, "when", "call") not in ("call", "setup"):
                continue
            name = nodeid.split("::")[-1]
            match = _CRITERION.match(name)
            if not match:
                continue
            tag = match.group(1)
            label = match.group(2).replace("_", " ") or name
            lines.append((tag, f"ACCEPTANCE criterion {tag} ({label}): {word}"))
    if not lines:
        return
    terminalreporter.section("acceptance checklist")
    for _, line in sorted(lines, key=lambda pair: pair[0]):
        terminalreporter.write_line(line)

"""The blessed ``repro`` package surface.

``repro/__init__.py`` re-exports the public names in ``__all__``; this
file pins two properties of that surface:

- every advertised name actually resolves (no stale re-export after a
  module moves), and
- the protocol verbs — every public method of ``MonitorListener`` and
  ``AnomalyMonitor`` — appear in DESIGN.md's API documentation, so the
  design doc cannot silently drift from the code, and
- the callers we ship ourselves — every script under ``examples/`` and
  the README's Quickstart block — still run against that surface, so a
  removed method cannot leave them behind.
"""

import re
import runpy
from pathlib import Path

import pytest

import repro
from repro.core.api import AnomalyMonitor, MonitorListener

ROOT = Path(__file__).resolve().parent.parent
DESIGN = ROOT / "DESIGN.md"
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def _protocol_members(proto) -> list[str]:
    members = [name for name, value in vars(proto).items()
               if not name.startswith("_") and callable(value)]
    members += [name for name in getattr(proto, "__annotations__", {})
                if not name.startswith("_")]
    return members


def test_every_all_member_resolves():
    assert repro.__all__, "repro must advertise a public surface"
    for name in repro.__all__:
        assert hasattr(repro, name), (
            f"repro.__all__ advertises {name!r} but the attribute is "
            f"missing — stale re-export?")


def test_all_has_no_duplicates_and_is_sorted():
    assert len(set(repro.__all__)) == len(repro.__all__)
    assert repro.__all__ == sorted(repro.__all__), (
        "keep __all__ sorted so diffs stay reviewable")


def test_star_import_matches_all():
    namespace: dict = {}
    exec("from repro import *", namespace)
    exported = {name for name in namespace if not name.startswith("__")}
    assert exported == {n for n in repro.__all__ if not n.startswith("__")}


@pytest.mark.parametrize("flavour", [
    "RushMon", "RushMonService", "ClusterMonitor", "OfflineAnomalyMonitor",
])
def test_exported_monitor_flavours_declare_conformance(flavour):
    cls = getattr(repro, flavour)
    for member in _protocol_members(MonitorListener):
        assert hasattr(cls, member), (flavour, member)
    for member in _protocol_members(AnomalyMonitor):
        # `reports` is an instance attribute on concrete monitors.
        if member == "reports":
            continue
        assert hasattr(cls, member), (flavour, member)


def test_protocol_verbs_documented_in_design():
    text = DESIGN.read_text()
    members = set(_protocol_members(MonitorListener))
    members |= set(_protocol_members(AnomalyMonitor))
    for member in sorted(members):
        assert f"`{member}" in text, (
            f"protocol member {member!r} is missing from DESIGN.md's "
            f"unified-API documentation")


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out.strip(), f"{script.name} printed nothing"


def test_readme_quickstart_block_runs(capsys):
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Quickstart\n+```python\n(.*?)```", text, re.S)
    assert block, "README lost its Quickstart code block"
    exec(compile(block.group(1), "README.md#Quickstart", "exec"), {})
    estimates = capsys.readouterr().out.split()
    assert len(estimates) == 2 and all(float(e) >= 0 for e in estimates)

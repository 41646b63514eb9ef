"""The blessed ``repro`` package surface.

``repro/__init__.py`` re-exports the public names in ``__all__``; this
file pins three properties of that surface:

- every advertised name actually resolves — every name in the
  ``__all__`` of every ``repro.*`` package, and every name of a lazy
  re-export map (:mod:`repro._lazy`) — so a deletion or a move cannot
  leave a dangling re-export,
- the protocol verbs — every public method of ``MonitorListener`` and
  ``AnomalyMonitor`` — appear in DESIGN.md's API documentation, so the
  design doc cannot silently drift from the code, and
- the callers we ship ourselves — every script under ``examples/`` and
  the README's Quickstart block — still run against that surface, so a
  removed method cannot leave them behind.
"""

import ast
import importlib
import re
import runpy
from pathlib import Path

import pytest

import repro
from repro.core.api import AnomalyMonitor, MonitorListener

ROOT = Path(__file__).resolve().parent.parent
DESIGN = ROOT / "DESIGN.md"
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
SRC = ROOT / "src"
PACKAGES = sorted(".".join(path.parent.relative_to(SRC).parts)
                  for path in (SRC / "repro").rglob("__init__.py"))


def _lazy_map(package: str) -> dict[str, str]:
    """The name -> module map a package hands ``lazy_exports`` (empty
    when it re-exports eagerly)."""
    init = SRC.joinpath(*package.split("."), "__init__.py")
    for node in ast.walk(ast.parse(init.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "lazy_exports"):
            return ast.literal_eval(node.args[1])
    return {}


LAZY_NAMES = [(package, name, module) for package in PACKAGES
              for name, module in sorted(_lazy_map(package).items())]


def _protocol_members(proto) -> list[str]:
    members = [name for name, value in vars(proto).items()
               if not name.startswith("_") and callable(value)]
    members += [name for name in getattr(proto, "__annotations__", {})
                if not name.startswith("_")]
    return members


@pytest.mark.parametrize("package", PACKAGES)
def test_every_all_member_resolves(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} has no __all__"
    for name in module.__all__:
        assert hasattr(module, name), (
            f"{package}.__all__ advertises {name!r} but the attribute is "
            f"missing — stale re-export?")


def test_the_top_level_surface_is_not_empty():
    assert repro.__all__, "repro must advertise a public surface"


@pytest.mark.parametrize("package,name,module", LAZY_NAMES,
                         ids=[f"{p}.{n}" for p, n, _ in LAZY_NAMES])
def test_every_lazy_name_resolves(package, name, module):
    assert hasattr(importlib.import_module(module), name), (
        f"{package} lazily re-exports {name!r} from {module}, which does "
        f"not define it")
    assert hasattr(importlib.import_module(package), name)


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

"""Every definition in ``src/repro`` is named by something other than
itself and its tests.

The check reads source with :mod:`ast` only — nothing is imported — so
it runs wherever the test suite does, with no linter installed.  It
lists every top-level function and class of ``src/repro`` and every
non-dunder method of a top-level class, and calls one *reached* when
its name appears outside its own definition: in ``src/`` (another
module or the rest of its own), ``perf/``, ``benchmarks/`` or
``examples/``.  Re-exports do not count: an import in a package
``__init__.py``, a string in an ``__init__.py`` (the lazy-name maps of
:mod:`repro._lazy`) and a string in an ``__all__`` list name a
definition without using it.  Names are matched, not resolved, so a
method is reached by any attribute of the same name — the check finds
definitions nothing can call, not every one that nothing does.

An unreached definition either goes, together with the tests that pin
only it, or is listed in :data:`ALLOWLIST` with the reason it stays.
The list can only shrink: an entry that is reached again, or whose
definition is gone, fails too.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
CALLERS = [ROOT / "perf", ROOT / "benchmarks", ROOT / "examples"]

#: Why each reason lets a definition stay.
REASONS = {
    "entry point": "public API a user of the package calls",
    "framework callback": "called by the standard library by name",
    "test support": "tests arm faults or build inputs with it",
    "probe": "a test inspects something else through it",
    "reference": "a test compares an implementation against it",
}

#: ``module:qualname`` -> ``"<reason>: <detail>"``; the reason is a key
#: of :data:`REASONS`.
ALLOWLIST = {
    "repro.core.api:AnomalyMonitor":
        "entry point: the monitor protocol in repro.__all__; "
        "tests/test_public_api.py checks every flavour conforms",
    "repro.checkers.checker:CheckReport.detected_classes":
        "probe: tests/test_checkers.py reads which classes the golden "
        "corpus covers",
    "repro.core.columnar:EdgeBatch.to_edges":
        "probe: tests/test_columnar.py compares the kernel's edges with "
        "the per-op collector's",
    "repro.core.detector:LiveGraph.edge_labels":
        "probe: tests/test_detector.py and tests/test_live_graph.py read "
        "the parallel labels of one edge",
    "repro.graph.cycles:count_cycles_johnson":
        "reference: tests/test_graph_cycles.py checks the bounded-length "
        "counter against Johnson's enumeration",
    "repro.net.protocol:encode_events":
        "test support: tests/test_net.py builds wire op records with it",
    "repro.net.server:RushMonServer.session_high":
        "probe: tests/test_net.py reads a session's acknowledged mark",
    "repro.obs.exporter:_Handler.do_GET":
        "framework callback: http.server dispatches GET requests to it",
    "repro.obs.exporter:_Handler.log_message":
        "framework callback: http.server logs each request through it",
    "repro.obs.instrument:instrument_net_client":
        "entry point: DESIGN §10's client-side metrics, for an "
        "application that hosts a RushMonClient",
    "repro.testing.faults:FaultInjector.inject":
        "test support: the chaos tests arm faults with it",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_all(node: ast.AST) -> bool:
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AugAssign)
               else [])
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _definitions(module: str, tree: ast.Module):
    """``(qualname, node)`` of every top-level function and class, and of
    every non-dunder method of a top-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield f"{module}:{node.name}", node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, defs[:2])
                        and not _is_dunder(member.name)):
                    yield f"{module}:{node.name}.{member.name}", member


def _count(tree: ast.AST, reexports: bool, named: Counter,
           defs: dict[ast.AST, str], own: Counter) -> None:
    """Add every name ``tree`` mentions to ``named``, and each mention of
    a definition of ``defs`` inside that definition itself to ``own``.
    With ``reexports`` (a package ``__init__``) imported names and
    strings are left out."""
    stack: list[tuple[ast.AST, tuple]] = [(tree, ())]
    while stack:
        node, owners = stack.pop()
        if _is_all(node):
            continue
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif reexports:
            name = None
        elif isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            name = node.value
        else:
            name = None
        if name is not None:
            named[name] += 1
            for owner in owners:
                if owner.name == name:
                    own[owner] += 1
        if node in defs:
            owners += (node,)
        stack.extend((child, owners) for child in ast.iter_child_nodes(node))


def unreached(package: Path, callers: list[Path]) -> set[str]:
    """``module:qualname`` of every definition under ``package`` whose
    name nothing outside its own definition mentions."""
    named: Counter[str] = Counter()
    own: Counter[ast.AST] = Counter()
    defs: dict[ast.AST, str] = {}
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        parts = path.relative_to(package.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        found = {node: qualname
                 for qualname, node in _definitions(".".join(parts), tree)}
        defs.update(found)
        _count(tree, path.name == "__init__.py", named, found, own)
    for root in callers:
        for path in sorted(root.rglob("*.py")):
            if "tests" not in path.relative_to(root).parts:
                _count(ast.parse(path.read_text(), str(path)), False,
                       named, {}, own)
    return {qualname for node, qualname in defs.items()
            if named[node.name] == own[node]}


@pytest.fixture(scope="module")
def found() -> set[str]:
    return unreached(SRC, CALLERS)


def test_every_unreached_definition_is_allowlisted(found):
    missing = sorted(found - ALLOWLIST.keys())
    assert not missing, (
        "nothing outside their own definitions (or their tests) names "
        f"these: {missing} — delete them, with the tests that pin only "
        "them, or add them to ALLOWLIST with the reason they stay")


def test_allowlist_only_shrinks(found):
    stale = sorted(ALLOWLIST.keys() - found)
    assert not stale, (
        f"ALLOWLIST entries that are reached again or no longer exist: "
        f"{stale} — remove them")


def test_every_allowlist_entry_names_its_reason():
    for qualname, why in ALLOWLIST.items():
        reason, _, detail = why.partition(": ")
        assert reason in REASONS and detail, (qualname, why)


def _package(tmp_path: Path, files: dict[str, str]) -> Path:
    package = tmp_path / "pkg"
    for name, text in files.items():
        path = package / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return package


def test_the_scan_sees_through_self_reference_and_reexports(tmp_path):
    package = _package(tmp_path, {
        "__init__.py": (
            "from pkg.a import exported\n"
            "__all__ = ['exported']\n"
            "lazy = {'lazy_only': 'pkg.a'}\n"),
        "a.py": (
            "def used():\n    pass\n"
            "def exported():\n    pass\n"
            "def lazy_only():\n    pass\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
            "class Box:\n"
            "    def __len__(self):\n        return 0\n"
            "    def opened(self):\n        return self.opened()\n"
            "    def read(self):\n        return used()\n"),
        "b.py": "from pkg.a import Box\nBox().read()\n",
    })
    assert unreached(package, []) == {
        "pkg.a:exported", "pkg.a:lazy_only", "pkg.a:recursive",
        "pkg.a:Box.opened",
    }


def test_a_caller_outside_the_package_reaches(tmp_path):
    package = _package(tmp_path, {"a.py": "def helper():\n    pass\n"})
    example = tmp_path / "examples"
    example.mkdir()
    assert unreached(package, [example]) == {"pkg.a:helper"}
    (example / "demo.py").write_text("from pkg.a import helper\nhelper()\n")
    assert unreached(package, [example]) == set()
    tests = example / "tests"
    tests.mkdir()
    (tests / "test_demo.py").write_text("from pkg.a import helper\n")
    (example / "demo.py").write_text("")
    assert unreached(package, [example]) == {"pkg.a:helper"}

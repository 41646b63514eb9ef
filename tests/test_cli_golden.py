"""The CLI's texts, byte for byte: every ``--help`` and the usage errors
a user meets first, with their exit codes.

The expected stdout / stderr of each case live in ``tests/data/cli/``
(``<case>.stdout``, ``<case>.stderr``, absent when empty; ``cases.json``
holds each case's command line and exit code).  argparse lays text out
to the terminal's width and its wording moves between CPython minor
versions, so the texts are written at ``COLUMNS=80`` and checked only
on the minor version that wrote them.  A deliberate change to a verb's
flags or messages rewrites them:

    COLUMNS=80 PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from repro.cli import _VERBS, main

DATA = Path(__file__).resolve().parent / "data" / "cli"

#: Case name -> command line.  Every usage error here exits 2.
CASES = {
    "help": ["--help"],
    **{f"help-{verb}": [verb, "--help"] for verb in _VERBS},
    "no-verb": [],
    "unknown-verb": ["nosuchverb"],
    "analyze-without-trace": ["analyze"],
    "emit-without-port": ["emit"],
    "monitor-bad-pruning": ["monitor", "--pruning", "bogus"],
    "quickstart-sampling-rate-0": ["quickstart", "--sampling-rate", "0"],
}


def run(argv: list[str]) -> tuple[int, str, str]:
    """``main(argv)``'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _text(path: Path) -> str:
    return path.read_text(encoding="utf-8") if path.exists() else ""


def _recorded() -> dict:
    return json.loads((DATA / "cases.json").read_text(encoding="utf-8"))


def test_every_case_is_recorded():
    recorded = _recorded()
    assert {name: case["argv"] for name, case in
            recorded["cases"].items()} == CASES


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_cli_prints_its_recorded_text(name, monkeypatch):
    recorded = _recorded()
    if tuple(recorded["python"]) != sys.version_info[:2]:
        pytest.skip("argparse's layout differs between CPython minor "
                    "versions; the texts were written on "
                    f"{recorded['python'][0]}.{recorded['python'][1]}")
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(CASES[name])
    assert code == recorded["cases"][name]["exit"]
    assert out == _text(DATA / f"{name}.stdout")
    assert err == _text(DATA / f"{name}.stderr")


def _write() -> None:
    os.environ["COLUMNS"] = "80"
    DATA.mkdir(parents=True, exist_ok=True)
    cases = {}
    for name, argv in CASES.items():
        code, out, err = run(argv)
        cases[name] = {"argv": argv, "exit": code}
        for suffix, text in ((".stdout", out), (".stderr", err)):
            path = DATA / f"{name}{suffix}"
            path.unlink(missing_ok=True)
            if text:
                path.write_text(text, encoding="utf-8")
    (DATA / "cases.json").write_text(json.dumps(
        {"python": list(sys.version_info[:2]), "cases": cases},
        indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _write()

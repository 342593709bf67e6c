"""The prose docs name only code that exists.

Over ``docs/*.md``, ``README.md``, ``DESIGN.md`` and ``EXPERIMENTS.md``:
every backticked ``repro.…`` dotted name resolves (module, then
attributes), every ``src/…`` path and every ``<dir>/<module>.py`` path
exists (from the repository root, ``src`` or ``src/repro``), and every
``path:line`` reference points inside its file.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = sorted((ROOT / "docs").glob("*.md")) + [ROOT / n for n in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]

SPAN = re.compile(r"`([^`\n]+)`")
#: ``repro.a.b`` not inside a longer dotted name (``[tool.repro.lint]``).
NAME = re.compile(r"(?<![\w.])repro(?:\.\w+)+")
#: ``src/…``, or ``dir/module.py`` with an optional ``:line`` or ``:first-last``.
PATH = re.compile(r"(?<![\w/.:-])(src/[\w/.-]*\w|(?:[\w.-]+/)+[\w.-]+\.py)(?::(\d+)(?:[-–](\d+))?)?")


def resolves(name: str) -> bool:
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def stale_references(text: str) -> list[str]:
    """Every reference in ``text`` that names nothing."""
    stale = [f"unresolved {n}" for span in SPAN.findall(text) for n in NAME.findall(span) if not resolves(n)]
    for m in PATH.finditer(text):
        found = [b / m[1] for b in (ROOT, ROOT / "src", ROOT / "src" / "repro") if (b / m[1]).exists()]
        if not found:
            stale.append(f"missing {m[1]}")
        elif m[2] and not all(1 <= int(x) <= len(found[0].read_text().splitlines()) for x in m.group(2, 3) if x):
            stale.append(f"out of range {m[0]}")
    return stale


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_doc_references_resolve(doc):
    assert stale_references(doc.read_text()) == []


def test_checker_flags_each_kind_of_stale_reference():
    good = "`repro.sim.fast.simulate_fast`, `[tool.repro.lint]`, src/repro/sim/ and sim/fast.py:1-2"
    assert stale_references(good) == []
    bad = "`repro.sim.fast.nope` `repro.nope.f` src/nope experiments/parallel.py sim/fast.py:999999"
    assert stale_references(bad) == [
        "unresolved repro.sim.fast.nope", "unresolved repro.nope.f",
        "missing src/nope", "missing experiments/parallel.py", "out of range sim/fast.py:999999",
    ]

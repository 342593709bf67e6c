"""One positive and one negative fixture per per-file lint rule (SIM004,
SIM006).

Each fixture is a source snippet linted under a *virtual path*, so the
path-scoped rule (SIM006) can be exercised as if the snippet lived
inside ``src/repro``.  The positive snippet must
trigger exactly its rule; the negative snippet must not trigger it.
"""

from __future__ import annotations

import pytest

from repro.devtools import RULES, LintContext, lint_source
from repro.devtools.lint import SYNTAX_RULE

CORE_PATH = "src/repro/core/fixture.py"
LIB_PATH = "src/repro/fixture.py"

#: rule id -> (positive snippet, path, negative snippet, path)
FIXTURES: dict[str, tuple[str, str, str, str]] = {
    "SIM004": (
        "__all__ = []\n"
        "class BrokenPolicy(StatePolicy):\n"
        "    def reset(self, n_hosts, rng):\n"
        "        self.counter = 0\n",
        CORE_PATH,
        "__all__ = []\n"
        "class GoodPolicy(StatePolicy):\n"
        "    name = 'good'\n"
        "    def reset(self, n_hosts, rng):\n"
        "        super().reset(n_hosts, rng)\n"
        "        self.counter = 0\n",
        CORE_PATH,
    ),
    "SIM006": (
        "x = 1\n",
        LIB_PATH,
        "__all__ = ['x']\nx = 1\n",
        LIB_PATH,
    ),
}


def test_every_registered_rule_has_fixtures():
    assert set(FIXTURES) == set(RULES)


@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_positive_fixture_triggers_rule(rule_id):
    source, path, _, _ = FIXTURES[rule_id]
    hits = [f.rule for f in lint_source(source, path=path)]
    assert rule_id in hits, f"{rule_id} fixture produced {hits}"


@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_negative_fixture_is_clean(rule_id):
    _, _, source, path = FIXTURES[rule_id]
    hits = [f.rule for f in lint_source(source, path=path)]
    assert rule_id not in hits, f"{rule_id} false positive: {hits}"


@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_findings_carry_location_and_message(rule_id):
    source, path, _, _ = FIXTURES[rule_id]
    finding = next(f for f in lint_source(source, path=path) if f.rule == rule_id)
    assert finding.path == path
    assert finding.line >= 1 and finding.col >= 1
    assert finding.message
    assert finding.render().startswith(f"{path}:{finding.line}:")


# ---------------------------------------------------------------------------
# rule-specific edge cases
# ---------------------------------------------------------------------------


def test_sim004_direct_policy_subclass_needs_kind():
    source = (
        "__all__ = []\n"
        "class NoKindPolicy(Policy):\n"
        "    name = 'x'\n"
        "    def choose_host(self, job, state):\n"
        "        return 0\n"
    )
    messages = [f.message for f in lint_source(source, path=CORE_PATH) if f.rule == "SIM004"]
    assert any("kind" in m for m in messages)


def test_sim004_skips_abstract_intermediaries():
    source = (
        "from abc import abstractmethod\n"
        "__all__ = []\n"
        "class Intermediate(Policy):\n"
        "    kind = 'static'\n"
        "    @abstractmethod\n"
        "    def assign_batch(self, sizes, rng): ...\n"
    )
    assert not any(f.rule == "SIM004" for f in lint_source(source, path=CORE_PATH))


def test_syntax_error_reported_as_sim000():
    findings = lint_source("def broken(:\n", path=LIB_PATH)
    assert [f.rule for f in findings] == [SYNTAX_RULE]


# ---------------------------------------------------------------------------
# noqa pragmas and selection
# ---------------------------------------------------------------------------


#: a policy with neither ``kind`` nor ``name`` in a module without
#: ``__all__``: SIM004 and SIM006 both report line 1.
NAMELESS = "class NamelessPolicy(Policy):{}\n    pass\n"


def test_noqa_suppresses_named_rule_only():
    source = NAMELESS.format("  # repro: noqa SIM004")
    hits = {f.rule for f in lint_source(source, path=CORE_PATH)}
    assert "SIM004" not in hits
    assert "SIM006" in hits  # still missing __all__ (reported at line 1)


def test_noqa_bare_suppresses_everything_on_the_line():
    source = NAMELESS.format("  # repro: noqa")
    assert lint_source(source, path=CORE_PATH) == []


def test_noqa_list_of_rules():
    source = NAMELESS.format("  # repro: noqa SIM004, SIM006")
    assert lint_source(source, path=CORE_PATH) == []


def test_noqa_on_other_line_does_not_leak():
    source = "# repro: noqa SIM004\n__all__ = []\n" + NAMELESS.format("")
    assert any(f.rule == "SIM004" for f in lint_source(source, path=CORE_PATH))


def test_select_and_ignore():
    source, path, _, _ = FIXTURES["SIM006"]
    assert any(
        f.rule == "SIM006" for f in lint_source(source, path=path, select=["SIM006"])
    )
    assert lint_source(source, path=path, ignore=["SIM006"]) == []
    only = lint_source(source, path=path, select=["SIM004"])
    assert not any(f.rule == "SIM006" for f in only)


def test_context_virtual_paths():
    ctx = LintContext.for_path("src/repro/sim/engine.py")
    assert ctx.module == ("sim", "engine")
    assert ctx.in_subpackage("sim", "core")
    assert not LintContext.for_path("tests/sim/test_engine.py").in_library
    assert LintContext.for_path("src/repro/__main__.py").is_private_module


def test_linter_is_clean_on_its_own_package():
    from pathlib import Path

    import repro.devtools as devtools
    from repro.devtools import lint_paths

    assert lint_paths([Path(devtools.__file__).parent]) == []

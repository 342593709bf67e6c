"""Developer tooling for simulation correctness.

The results in this repository are only as trustworthy as the simulator
is deterministic, so the conventions that guarantee determinism (seeded
``np.random.Generator`` everywhere, simulated-time-only clocks, the
``Policy`` reset protocol) are enforced by tooling rather than left to
docstrings:

* a **static pass** — ``repro lint`` / :func:`lint_paths` — runs the
  per-file AST rules ``SIM001`` … ``SIM007``
  (:mod:`repro.devtools.rules`), the whole-program flow rules
  ``SIM101`` … ``SIM106`` (:mod:`repro.devtools.flow`), and
  the concurrency rules ``SIM208``, ``SIM209`` and ``SIM211``
  (:mod:`repro.devtools.concurrency`); profiles (``--profile
  concurrency|all``) select among them, and the whole-program
  tiers share one project-wide symbol table and call
  graph (:mod:`repro.devtools.graph`);
* a **runtime pass**, in two layers — ``Simulator(strict=True)`` or the
  ``REPRO_SIM_STRICT=1`` environment hook asserts engine invariants
  after every event (see :mod:`repro.sim.engine`), and ``repro audit``
  (:mod:`repro.devtools.audit`) replays an experiment with identical
  seeds, digests the event stream, and reports the first divergent
  event if two replays disagree.

Everything is zero-dependency (stdlib :mod:`ast` + :mod:`hashlib` only)
and documented rule by rule in ``docs/DEVTOOLS.md``.
"""

from .concurrency import (
    CONCURRENCY_RULES,
    PROFILES,
    register_concurrency,
    run_concurrency_rules,
)
from .findings import Finding, format_findings, sort_findings
from .graph import (
    PROJECT_RULES,
    ProjectGraph,
    ProjectRule,
    register_project,
    run_project_rules,
)
from .lint import (
    LintError,
    LintStats,
    apply_baseline,
    collect_files,
    lint_paths,
    lint_source,
    load_baseline,
    load_config,
    resolve_selection,
    write_baseline,
)
from .rules import RULES, LintContext, Rule, register, run_rules

__all__ = [
    "Finding",
    "format_findings",
    "sort_findings",
    "LintError",
    "LintStats",
    "apply_baseline",
    "collect_files",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "load_config",
    "resolve_selection",
    "write_baseline",
    "RULES",
    "PROJECT_RULES",
    "CONCURRENCY_RULES",
    "PROFILES",
    "register_concurrency",
    "run_concurrency_rules",
    "ProjectGraph",
    "ProjectRule",
    "register_project",
    "run_project_rules",
    "LintContext",
    "Rule",
    "register",
    "run_rules",
]

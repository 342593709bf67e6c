"""Developer tooling for simulation correctness.

The results in this repository are only as trustworthy as the simulator
is deterministic.  Tier-1's pins and equivalence tests catch most ways
to break that (unseeded or shared RNGs, wall-clock reads, unordered
iteration or reduction, heap ties, completion-order pool results); this
package holds what they do not:

* a **static pass** — ``repro lint`` / :func:`lint_paths` — runs the
  per-file AST rules ``SIM004`` and ``SIM006``
  (:mod:`repro.devtools.rules`) and the concurrency rules ``SIM208``,
  ``SIM209`` and ``SIM211`` (:mod:`repro.devtools.concurrency`), which
  share one project-wide symbol table (:mod:`repro.devtools.graph`);
* a **runtime pass**, in two layers — ``Simulator(strict=True)`` or the
  ``REPRO_SIM_STRICT=1`` environment hook asserts engine invariants
  after every event (see :mod:`repro.sim.engine`), and ``repro audit``
  (:mod:`repro.devtools.audit`) replays an experiment with identical
  seeds, digests the event stream, and reports the first divergent
  event if two replays disagree.

Everything is zero-dependency (stdlib :mod:`ast` + :mod:`hashlib` only)
and documented rule by rule in ``docs/DEVTOOLS.md``, with the injected
defect that justifies each rule.
"""

from .concurrency import CONCURRENCY_RULES, register_concurrency, run_concurrency_rules
from .findings import Finding, format_findings, sort_findings
from .graph import ProjectGraph, ProjectRule
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
    "CONCURRENCY_RULES",
    "register_concurrency",
    "run_concurrency_rules",
    "ProjectGraph",
    "ProjectRule",
    "LintContext",
    "Rule",
    "register",
    "run_rules",
]

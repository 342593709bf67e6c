"""The lint runner: file discovery, rule selection, ``noqa``, reporting.

Usage::

    repro lint [paths] [--select SIM004,SIM208] [--ignore SIM006] \\
               [--format text|json|github] \\
               [--baseline FILE | --no-baseline] [--update-baseline] \\
               [--strict-baseline] [--stats] [--list-rules]
    python -m repro.devtools.lint src/repro tests

Exit codes follow the classic contract: **0** clean, **1** findings,
**2** usage error (unknown rule ID, unreadable path).

Selection defaults come from ``[tool.repro.lint]`` in ``pyproject.toml``
(``select``/``ignore`` arrays, plus a ``baseline`` file path), so CI and
developers run the same configuration with no flags; with neither,
every registered rule runs.  ``--list-rules`` prints every registered
rule with its tier.  A finding can be suppressed at a single line with
the pragma::

    risky_line()  # repro: noqa SIM209
    other_line()  # repro: noqa SIM004, SIM006
    anything()    # repro: noqa          (suppresses every rule)

An *explicit-rule* pragma on a function's header (its ``def`` line or
any decorator line) widens to the whole function body — that is how a
function exempts itself from one rule without peppering every
statement.  The bare form stays line-granular on purpose: a blanket
whole-function exemption should never be one keystroke.

Intentional findings that cannot be fixed (a documented workaround, a
vendored idiom) live in a committed **baseline** file: findings matching
a ``(path, rule, message)`` entry are reported as baselined and do not
fail the run.  ``--update-baseline`` rewrites the file from the current
findings (pruning entries no finding matches any more); stale entries
are warned about on every run and ``--strict-baseline`` turns that
warning into a failure, so the baseline is a ratchet — it can only
shrink as findings are fixed, never silently hide fixed ones.  A run
judges (and prunes) only the entries whose rule it ran on a file it
linted; a ``--select`` run or a narrower path keeps the others as they
are.

Suppressions are deliberate exemptions — each should be justifiable in
review, which is exactly why they are spelled in full at the site.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .concurrency import CONCURRENCY_RULES, run_concurrency_rules
from .findings import Finding, format_findings, sort_findings
from .graph import ProjectGraph
from .rules import RULES, LintContext, run_rules

__all__ = [
    "LintError",
    "LintStats",
    "add_lint_arguments",
    "apply_baseline",
    "collect_files",
    "lint_source",
    "lint_paths",
    "load_baseline",
    "load_config",
    "resolve_selection",
    "run_from_args",
    "split_baseline",
    "write_baseline",
    "main",
]

#: rule id reserved for files the parser rejects (always reported).
SYNTAX_RULE = "SIM000"

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa\b\s*:?\s*(?P<rules>[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)?",
)


class LintError(Exception):
    """A usage error (unknown rule, unreadable path) — CLI exit code 2."""


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------


#: tier label per registry, in rule-number order (``--list-rules``).
_TIERS: tuple[tuple[str, dict], ...] = (
    ("file", RULES),
    ("concurrency", CONCURRENCY_RULES),
)


def _all_rule_ids() -> set[str]:
    """Every known rule ID: per-file (SIM00x) and concurrency (SIM20x)."""
    return set().union(*(set(registry) for _, registry in _TIERS))


def _validate_rules(ids: Iterable[str], origin: str) -> set[str]:
    known_ids = _all_rule_ids()
    out = set()
    for rule_id in ids:
        rid = rule_id.strip().upper()
        if not rid:
            continue
        if rid not in known_ids:
            known = ", ".join(sorted(known_ids))
            raise LintError(f"unknown rule {rid!r} in {origin} (known: {known})")
        out.add(rid)
    return out


def resolve_selection(
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> set[str]:
    """Final rule-ID set: ``select`` (default: every registered rule)
    minus ``ignore``."""
    chosen = _validate_rules(select, "--select") if select else _all_rule_ids()
    chosen -= _validate_rules(ignore, "--ignore") if ignore else set()
    return chosen


# ---------------------------------------------------------------------------
# pyproject configuration
# ---------------------------------------------------------------------------


def _parse_toml_minimal(text: str) -> dict:
    """Tiny fallback for Python < 3.11 (no :mod:`tomllib`).

    Understands just enough TOML to read ``[tool.repro.lint]``: string
    arrays, possibly spanning lines.  Good enough because that section is
    under our control; real TOML parsing is used when available.
    """
    section: dict[str, list[str]] = {}
    in_section = False
    pending_key: str | None = None
    pending_val = ""
    for raw in text.splitlines():
        line = raw.strip()
        if pending_key is not None:
            pending_val += " " + line
            if line.endswith("]"):
                section[pending_key] = list(ast.literal_eval(pending_val.strip()))
                pending_key = None
            continue
        if line.startswith("["):
            in_section = line == "[tool.repro.lint]"
            continue
        if not in_section or "=" not in line or line.startswith("#"):
            continue
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if val.startswith("[") and not val.endswith("]"):
            pending_key, pending_val = key, val
            continue
        try:
            section[key] = ast.literal_eval(val)
        except (ValueError, SyntaxError):
            continue
    return {"tool": {"repro": {"lint": section}}} if section else {}


def load_config(start: Path | None = None) -> dict:
    """``[tool.repro.lint]`` from the nearest ``pyproject.toml``, or ``{}``.

    Searches ``start`` (default: cwd) and its parents, mirroring how the
    established tools locate their configuration.
    """
    here = (start or Path.cwd()).resolve()
    candidates = [here, *here.parents] if here.is_dir() else list(here.parents)
    for directory in candidates:
        pyproject = directory / "pyproject.toml"
        if not pyproject.is_file():
            continue
        text = pyproject.read_text(encoding="utf-8")
        try:
            import tomllib

            data = tomllib.loads(text)
        except ModuleNotFoundError:  # Python 3.10
            data = _parse_toml_minimal(text)
        except Exception:
            return {}
        return data.get("tool", {}).get("repro", {}).get("lint", {})
    return {}


# ---------------------------------------------------------------------------
# linting
# ---------------------------------------------------------------------------


def _noqa_map(source: str) -> dict[int, set[str] | None]:
    """Line number → suppressed rule IDs (``None`` = every rule)."""
    out: dict[int, set[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "#" not in line:
            continue
        match = _NOQA_RE.search(line)
        if not match:
            continue
        rules = match.group("rules")
        if rules:
            out[lineno] = {r.strip().upper() for r in rules.split(",")}
        else:
            out[lineno] = None
    return out


@dataclass
class _Noqa:
    """One file's suppressions: exact lines plus function-wide spans."""

    lines: dict[int, set[str] | None] = field(default_factory=dict)
    #: (first header line, last body line, rules) for explicit-rule
    #: pragmas sitting on a ``def`` or decorator line.
    spans: list[tuple[int, int, frozenset[str]]] = field(default_factory=list)

    def suppresses(self, finding: Finding) -> bool:
        at_line = self.lines.get(finding.line, "absent")
        if at_line is None:
            return True
        if isinstance(at_line, set) and finding.rule in at_line:
            return True
        return any(
            start <= finding.line <= end and finding.rule in rules
            for start, end, rules in self.spans
        )


def _function_spans(
    tree: ast.Module, lines: dict[int, set[str] | None]
) -> list[tuple[int, int, frozenset[str]]]:
    """Widen explicit-rule header pragmas to the whole function body.

    A ``# repro: noqa: SIMxxx`` on a function's ``def`` line or on any of
    its decorator lines suppresses those rules from the first decorator
    through the function's last line.  Bare pragmas stay line-only — a
    blanket whole-function exemption must name what it exempts.
    """
    spans: list[tuple[int, int, frozenset[str]]] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        header = [d.lineno for d in node.decorator_list] + [node.lineno]
        rules: set[str] = set()
        for lineno in header:
            at_line = lines.get(lineno)
            if isinstance(at_line, set):
                rules |= at_line
        if rules and node.end_lineno is not None:
            spans.append((min(header), node.end_lineno, frozenset(rules)))
    return spans


def _apply_noqa(findings: Iterable[Finding], noqa: dict[str, _Noqa]) -> list[Finding]:
    """Drop findings suppressed by a line pragma or a function-header span."""
    empty = _Noqa()
    return [f for f in findings if not noqa.get(f.path, empty).suppresses(f)]


def _lint_one(
    source: str, path: str, chosen: set[str]
) -> tuple[list[Finding], ast.Module | None, _Noqa]:
    """Per-file pass: (suppressed findings, tree for the project pass, noqa)."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        finding = Finding(
            path=path,
            line=exc.lineno or 1,
            col=(exc.offset or 0) + 1,
            rule=SYNTAX_RULE,
            message=f"syntax error: {exc.msg}",
        )
        return [finding], None, _Noqa()
    ctx = LintContext.for_path(path)
    findings = run_rules(tree, ctx, select=chosen)
    lines = _noqa_map(source)
    suppressed = _Noqa(lines=lines, spans=_function_spans(tree, lines))
    return _apply_noqa(findings, {path: suppressed}), tree, suppressed


@dataclass
class LintStats:
    """Timing/volume counters for one :func:`lint_paths` run (``--stats``)."""

    files: int = 0
    findings: int = 0
    baselined: int = 0
    graph_builds: int = 0
    parse_seconds: float = 0.0
    graph_seconds: float = 0.0
    rules_seconds: float = 0.0

    def summary(self) -> str:
        return (
            f"stats: files={self.files} findings={self.findings} "
            f"baselined={self.baselined} graph-builds={self.graph_builds} "
            f"parse={self.parse_seconds:.3f}s graph={self.graph_seconds:.3f}s "
            f"rules={self.rules_seconds:.3f}s"
        )


def _needs_graph(chosen: set[str]) -> bool:
    return bool(chosen & set(CONCURRENCY_RULES))


def _run_graph_rules(
    graph: ProjectGraph, chosen: set[str], noqa: dict[str, _Noqa]
) -> list[Finding]:
    """The whole-program (concurrency) rules on one graph."""
    return _apply_noqa(run_concurrency_rules(graph, select=chosen), noqa)


def lint_source(
    source: str,
    path: str = "<string>",
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> list[Finding]:
    """Lint one source string as if it lived at ``path``.

    ``path`` drives the path-scoped rules: pass a virtual location like
    ``src/repro/sim/x.py`` to lint a snippet under ``sim`` conventions.
    The whole-program rules (SIM208+) run too, over a one-module graph —
    calls within the snippet are visible, callers outside it are not.
    """
    chosen = resolve_selection(select, ignore)
    findings, tree, suppressed = _lint_one(source, path, chosen)
    if tree is not None and _needs_graph(chosen):
        graph = ProjectGraph.build([(path, tree)])
        findings.extend(_run_graph_rules(graph, chosen, {path: suppressed}))
    return sort_findings(findings)


def collect_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[Path] = set()
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            out.update(p.rglob("*.py"))
        elif p.is_file():
            out.add(p)
        else:
            raise LintError(f"no such file or directory: {entry}")
    return sorted(out)


def lint_paths(
    paths: Sequence[str | Path],
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    stats: LintStats | None = None,
) -> list[Finding]:
    """Lint every ``.py`` file under ``paths``.

    The passes share one parse: the per-file rules see each tree in
    isolation; the whole-program rules (SIM208+) see a single
    :class:`~repro.devtools.graph.ProjectGraph` built from every parsed
    file — the graph is constructed exactly once per run, and its
    ``analysis_cache`` lets the rules share the interprocedural facts
    (``--stats`` reports the build count).
    """
    chosen = resolve_selection(select, ignore)
    findings: list[Finding] = []
    parsed: list[tuple[str, ast.Module]] = []
    noqa: dict[str, _Noqa] = {}
    builds_before = ProjectGraph.builds_total
    t0 = time.perf_counter()
    for file in collect_files(paths):
        source = file.read_text(encoding="utf-8")
        per_file, tree, suppressed = _lint_one(source, str(file), chosen)
        findings.extend(per_file)
        if tree is not None:
            parsed.append((str(file), tree))
            noqa[str(file)] = suppressed
    t1 = time.perf_counter()
    graph_seconds = 0.0
    if parsed and _needs_graph(chosen):
        graph = ProjectGraph.build(parsed)
        graph_seconds = time.perf_counter() - t1
        findings.extend(_run_graph_rules(graph, chosen, noqa))
    t2 = time.perf_counter()
    if stats is not None:
        stats.files = len(parsed)
        stats.findings = len(findings)
        stats.graph_builds = ProjectGraph.builds_total - builds_before
        stats.parse_seconds = t1 - t0
        stats.graph_seconds = graph_seconds
        stats.rules_seconds = (t2 - t1) - graph_seconds
    return sort_findings(findings)


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------

#: default baseline file name (overridable via pyproject / --baseline).
DEFAULT_BASELINE = ".repro-lint-baseline.json"


def _baseline_key(finding: Finding) -> tuple[str, str, str]:
    # Deliberately no line number: baselined findings must survive
    # unrelated edits shifting them around the file.
    return (Path(finding.path).as_posix(), finding.rule, finding.message)


def load_baseline(path: Path) -> Counter[tuple[str, str, str]]:
    """Parse a baseline file into a multiset of ``(path, rule, message)``."""
    try:
        entries = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return Counter()
    except (OSError, json.JSONDecodeError) as exc:
        raise LintError(f"unreadable baseline {path}: {exc}") from exc
    if not isinstance(entries, list):
        raise LintError(f"baseline {path} must be a JSON list of entries")
    out: Counter[tuple[str, str, str]] = Counter()
    for entry in entries:
        try:
            out[(entry["path"], entry["rule"], entry["message"])] += 1
        except (TypeError, KeyError) as exc:
            raise LintError(
                f"baseline {path}: each entry needs path/rule/message keys"
            ) from exc
    return out


def apply_baseline(
    findings: Sequence[Finding], baseline: Counter[tuple[str, str, str]]
) -> tuple[list[Finding], int, list[tuple[str, str, str]]]:
    """Split findings into (fresh, count-baselined, stale entries).

    The baseline is a multiset: two identical findings need two entries,
    so fixing one of a duplicated pair still surfaces in CI.  *Stale*
    entries — baseline lines no current finding matched — are returned
    (with multiplicity) so the runner can warn, and ``--strict-baseline``
    can fail, when the baseline hides findings that were already fixed.
    """
    remaining = Counter(baseline)
    fresh: list[Finding] = []
    matched = 0
    for finding in findings:
        key = _baseline_key(finding)
        if remaining[key] > 0:
            remaining[key] -= 1
            matched += 1
        else:
            fresh.append(finding)
    stale = sorted(
        key for key, count in remaining.items() for _ in range(count)
    )
    return fresh, matched, stale


def split_baseline(
    baseline: Counter[tuple[str, str, str]],
    files: Iterable[Path],
    chosen: set[str],
) -> tuple[Counter[tuple[str, str, str]], Counter[tuple[str, str, str]]]:
    """Split baseline entries into those a run can judge and the rest.

    A run judges an entry only if it ran the entry's rule on the entry's
    file.  Any other entry (a rule left out by ``--select``, a path
    outside the linted ones) says nothing about this run: it is neither
    stale nor pruned, and ``--update-baseline`` writes it back as is.
    """
    linted = {Path(f).as_posix() for f in files}
    judged: Counter[tuple[str, str, str]] = Counter()
    kept: Counter[tuple[str, str, str]] = Counter()
    for key, count in baseline.items():
        path, rule, _message = key
        (judged if rule in chosen and path in linted else kept)[key] = count
    return judged, kept


def write_baseline(
    findings: Sequence[Finding],
    path: Path,
    keep: Counter[tuple[str, str, str]] | None = None,
) -> int:
    """Rewrite ``path`` from the current findings plus the ``keep``
    entries (those the run could not judge); returns the entry count."""
    keys = [_baseline_key(f) for f in findings]
    if keep:
        keys.extend(keep.elements())
    entries = [{"path": p, "rule": r, "message": m} for p, r, m in sorted(keys)]
    path.write_text(json.dumps(entries, indent=2) + "\n", encoding="utf-8")
    return len(entries)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _split_ids(value: str) -> list[str]:
    return [part for part in re.split(r"[,\s]+", value) if part]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the lint options on ``parser`` (shared with ``repro lint``)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--select",
        type=_split_ids,
        default=None,
        metavar="RULES",
        help="comma-separated rule IDs to run (default: all, or pyproject)",
    )
    parser.add_argument(
        "--ignore",
        type=_split_ids,
        default=None,
        metavar="RULES",
        help="comma-separated rule IDs to skip",
    )
    parser.add_argument(
        "--format",
        "--output-format",
        dest="format",
        choices=("text", "json", "github"),
        default="text",
        help="report format (default: text; github = Actions annotations)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        metavar="FILE",
        help=f"baseline file of accepted findings (default: pyproject "
        f"'baseline' key, else {DEFAULT_BASELINE} if present)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file: report every finding",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from the current findings (pruning "
        "stale entries) and exit 0",
    )
    parser.add_argument(
        "--strict-baseline",
        action="store_true",
        help="fail (exit 1) when the baseline contains stale entries no "
        "current finding matches — the CI ratchet",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print a one-line timing/volume summary to stderr",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule ID with its tier and summary, then exit",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="simulation-correctness linter for the repro codebase",
    )
    add_lint_arguments(parser)
    return parser


def _baseline_path(args: argparse.Namespace, config: dict) -> Path | None:
    """Where the baseline lives for this invocation, or ``None`` for off."""
    if args.no_baseline:
        return None
    if args.baseline is not None:
        return args.baseline
    configured = config.get("baseline")
    if isinstance(configured, str) and configured:
        return Path(configured)
    default = Path(DEFAULT_BASELINE)
    if default.is_file() or args.update_baseline:
        return default
    return None


def run_from_args(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the process exit code."""
    if args.list_rules:
        combined: dict[str, tuple[str, str]] = {
            rid: (tier, cls.summary)
            for tier, registry in _TIERS
            for rid, cls in registry.items()
        }
        for rule_id in sorted(combined):
            tier, summary = combined[rule_id]
            print(f"{rule_id}  {tier:<11}  {summary}")
        return 0
    config = load_config(Path(args.paths[0]).resolve() if args.paths else None)
    # CLI selection flags replace the pyproject defaults wholesale — mixing
    # a command-line --select with a configured ignore list surprises.
    if args.select is not None or args.ignore is not None:
        select, ignore = args.select, args.ignore
    else:
        select, ignore = config.get("select"), config.get("ignore")
    stats = LintStats() if args.stats else None
    try:
        findings = lint_paths(
            args.paths,
            select=select,
            ignore=ignore,
            stats=stats,
        )
        baseline_file = _baseline_path(args, config)
        if baseline_file is None and args.update_baseline:
            raise LintError("--update-baseline conflicts with --no-baseline")
        baselined = 0
        stale: list[tuple[str, str, str]] = []
        if baseline_file is not None:
            judged, kept = split_baseline(
                load_baseline(baseline_file),
                collect_files(args.paths),
                resolve_selection(select, ignore),
            )
            if args.update_baseline:
                count = write_baseline(findings, baseline_file, keep=kept)
                print(f"wrote {count} baseline entries to {baseline_file}")
                return 0
            findings, baselined, stale = apply_baseline(findings, judged)
    except LintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if stale:
        for path, rule, message in stale:
            print(
                f"stale baseline entry: {path}: {rule} {message}",
                file=sys.stderr,
            )
        print(
            f"warning: {len(stale)} stale baseline entries no finding "
            "matches — run --update-baseline to prune them",
            file=sys.stderr,
        )
    if stats is not None:
        stats.findings = len(findings)
        stats.baselined = baselined
        print(stats.summary(), file=sys.stderr)
    try:
        print(format_findings(findings, fmt=args.format))
    except BrokenPipeError:
        # the reader (e.g. `| head`) went away; the exit code still stands.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if findings:
        return 1
    return 1 if (stale and args.strict_baseline) else 0


def main(argv: Sequence[str] | None = None) -> int:
    return run_from_args(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

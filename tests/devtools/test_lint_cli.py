"""CLI contract for ``repro lint`` / ``python -m repro.devtools.lint``.

Covers rule selection flags, the JSON report format, the documented exit
codes (0 clean / 1 findings / 2 usage error), and configuration pickup
from ``[tool.repro.lint]`` in ``pyproject.toml``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.devtools.lint import DEFAULT_BASELINE, load_baseline, write_baseline
from repro.devtools.lint import main as lint_main

CLEAN = "__all__ = []\nX = 1\n"
#: SIM004 (a policy without ``kind``) and SIM006 (no ``__all__``).
DIRTY = "class NamelessPolicy(Policy):\n    pass\n"


@pytest.fixture
def tree(tmp_path: Path) -> Path:
    """A fake package tree with one clean and one dirty module."""
    pkg = tmp_path / "src" / "repro" / "sim"
    pkg.mkdir(parents=True)
    (pkg / "clean.py").write_text(CLEAN)
    (pkg / "dirty.py").write_text(DIRTY)
    return tmp_path


def test_exit_zero_on_clean_file(tree, capsys):
    target = tree / "src" / "repro" / "sim" / "clean.py"
    assert lint_main([str(target)]) == 0
    assert "all clean" in capsys.readouterr().out


def test_exit_one_with_findings(tree, capsys):
    target = tree / "src" / "repro" / "sim" / "dirty.py"
    assert lint_main([str(target)]) == 1
    out = capsys.readouterr().out
    assert "SIM004" in out and "SIM006" in out


def test_exit_two_on_unknown_rule(tree, capsys):
    target = tree / "src" / "repro" / "sim" / "dirty.py"
    assert lint_main([str(target), "--select", "NOPE123"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_exit_two_on_missing_path(tmp_path, capsys):
    assert lint_main([str(tmp_path / "does-not-exist")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_select_restricts_rules(tree, capsys):
    target = tree / "src" / "repro" / "sim" / "dirty.py"
    assert lint_main([str(target), "--select", "SIM006"]) == 1
    out = capsys.readouterr().out
    assert "SIM006" in out and "SIM004" not in out


def test_ignore_drops_rules(tree, capsys):
    target = tree / "src" / "repro" / "sim" / "dirty.py"
    assert (
        lint_main([str(target), "--ignore", "SIM004,SIM006"]) == 0
    )
    assert "all clean" in capsys.readouterr().out


def test_json_format_is_parseable_and_stable(tree, capsys):
    target = tree / "src" / "repro" / "sim" / "dirty.py"
    assert lint_main([str(target), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert {f["rule"] for f in payload} == {"SIM004", "SIM006"}
    for item in payload:
        assert set(item) == {"path", "line", "col", "rule", "message"}
    # sorted by (path, line, col, rule)
    keys = [(f["path"], f["line"], f["col"], f["rule"]) for f in payload]
    assert keys == sorted(keys)


def test_github_format_emits_workflow_commands(tree, capsys):
    target = tree / "src" / "repro" / "sim" / "dirty.py"
    assert lint_main([str(target), "--format", "github"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.startswith("::error file=") for line in lines)
    assert any(",title=SIM004::" in line for line in lines)
    # one annotation per finding, each carrying its location properties
    for line in lines:
        assert "line=" in line and "col=" in line


def test_output_format_alias_matches_format(tree, capsys):
    target = tree / "src" / "repro" / "sim" / "dirty.py"
    lint_main([str(target), "--format", "github"])
    via_format = capsys.readouterr().out
    lint_main([str(target), "--output-format", "github"])
    via_alias = capsys.readouterr().out
    assert via_format == via_alias


def test_github_format_escapes_newlines_and_percent():
    from repro.devtools.findings import Finding, format_findings

    finding = Finding(
        path="src/repro/sim/x.py",
        line=1,
        col=0,
        rule="SIM004",
        message="bad%\nworse",
    )
    (line,) = format_findings([finding], fmt="github").splitlines()
    assert "%25" in line and "%0A" in line
    assert "\n" not in line


def test_directory_argument_recurses(tree, capsys):
    assert lint_main([str(tree / "src")]) == 1
    out = capsys.readouterr().out
    assert "dirty.py" in out and "clean.py" not in out


def test_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("SIM004", "SIM211"):
        assert rule_id in out


def test_pyproject_defaults_are_picked_up(tree, capsys):
    (tree / "pyproject.toml").write_text(
        '[tool.repro.lint]\nignore = ["SIM004", "SIM006"]\n'
    )
    target = tree / "src" / "repro" / "sim" / "dirty.py"
    assert lint_main([str(target)]) == 0
    assert "all clean" in capsys.readouterr().out
    # explicit flags override the config
    assert lint_main([str(target), "--select", "SIM004"]) == 1


def test_repo_config_runs_every_registered_rule():
    """No ``select`` list restates the registries, so the configured run
    (CI's and pre-commit's) lints with every registered rule."""
    from repro.devtools import CONCURRENCY_RULES, RULES
    from repro.devtools.lint import load_config, resolve_selection

    config = load_config(Path(__file__).resolve().parents[2])
    assert "select" not in config
    chosen = resolve_selection(config.get("select"), config.get("ignore"))
    assert chosen == set(RULES) | set(CONCURRENCY_RULES)


def test_repro_cli_lint_subcommand(tree, capsys):
    target = tree / "src" / "repro" / "sim" / "dirty.py"
    assert repro_main(["lint", str(target), "--select", "SIM004"]) == 1
    assert "SIM004" in capsys.readouterr().out
    assert repro_main(["lint", str(target), "--ignore", "SIM004,SIM006"]) == 0


def test_python_dash_m_entry_point(tree):
    """``python -m repro.devtools.lint`` works as documented."""
    target = tree / "src" / "repro" / "sim" / "dirty.py"
    src_dir = Path(__file__).resolve().parents[2] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "repro.devtools.lint", str(target)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src_dir), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 1
    assert "SIM004" in proc.stdout


# ---------------------------------------------------------------------------
# baseline, --stats (the whole-program tier's CLI surface)
# ---------------------------------------------------------------------------

#: one SIM209 finding: a results file written in place under experiments/.
NON_ATOMIC = """\
__all__ = ["save"]


def save(path, rows):
    with open(path, "w") as fh:
        fh.write(rows)
"""

ATOMIC = """\
import os

__all__ = ["save"]


def save(path, rows):
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(rows)
    os.replace(tmp, path)
"""



@pytest.fixture
def concurrency_tree(tmp_path: Path) -> Path:
    pkg = tmp_path / "src" / "repro" / "experiments"
    pkg.mkdir(parents=True)
    (pkg / "save.py").write_text(NON_ATOMIC)
    return tmp_path


def _save_py(root: Path) -> Path:
    return root / "src" / "repro" / "experiments" / "save.py"


def test_baseline_roundtrip(concurrency_tree, capsys):
    target = _save_py(concurrency_tree)
    baseline = concurrency_tree / "baseline.json"
    assert (
        lint_main(
            [
                str(target),
                "--baseline",
                str(baseline),
                "--update-baseline",
            ]
        )
        == 0
    )
    assert "wrote 1 baseline entries" in capsys.readouterr().out
    entries = json.loads(baseline.read_text())
    assert [e["rule"] for e in entries] == ["SIM209"]
    assert "line" not in entries[0]
    # baselined finding no longer fails the run …
    assert (
        lint_main(
            [str(target), "--baseline", str(baseline)]
        )
        == 0
    )
    capsys.readouterr()
    # … but --no-baseline still surfaces it
    assert lint_main([str(target), "--no-baseline"]) == 1


def test_baseline_is_a_multiset(concurrency_tree, capsys):
    """Two identical findings need two entries — fixing one still reports."""
    target = _save_py(concurrency_tree)
    target.write_text(
        NON_ATOMIC
        + '\n\ndef save2(path, rows):\n    with open(path, "w") as fh:\n'
        + "        fh.write(rows)\n"
    )
    baseline = concurrency_tree / "baseline.json"
    lint_main(
        [
            str(target),
            "--baseline",
            str(baseline),
            "--update-baseline",
        ]
    )
    capsys.readouterr()
    entries = json.loads(baseline.read_text())
    assert len(entries) == 2
    # drop one entry: one of the two findings is fresh again
    baseline.write_text(json.dumps(entries[:1]))
    assert (
        lint_main(
            [str(target), "--baseline", str(baseline)]
        )
        == 1
    )


def test_baseline_path_from_pyproject(concurrency_tree, capsys):
    baseline = concurrency_tree / "accepted.json"
    (concurrency_tree / "pyproject.toml").write_text(
        f'[tool.repro.lint]\nbaseline = "{baseline}"\n'
    )
    target = _save_py(concurrency_tree)
    lint_main([str(target), "--update-baseline"])
    capsys.readouterr()
    assert baseline.is_file()
    assert lint_main([str(target)]) == 0


def test_stats_reports_a_single_graph_build(concurrency_tree, capsys):
    target = _save_py(concurrency_tree)
    lint_main([str(target), "--stats", "--no-baseline"])
    err = capsys.readouterr().err
    assert "graph-builds=1" in err
    assert "files=1" in err


# ---------------------------------------------------------------------------
# tiers, baseline ratchet
# ---------------------------------------------------------------------------

@pytest.fixture
def combined_tree(tmp_path: Path) -> Path:
    """One per-file finding (SIM006) plus one concurrency finding (SIM209)."""
    pkg = tmp_path / "src" / "repro" / "sim"
    pkg.mkdir(parents=True)
    (pkg / "noall.py").write_text("X = 1\n")
    exp = tmp_path / "src" / "repro" / "experiments"
    exp.mkdir(parents=True)
    (exp / "save.py").write_text(NON_ATOMIC)
    return tmp_path


def test_list_rules_shows_every_tier(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id, tier in (
        ("SIM004", "file"),
        ("SIM208", "concurrency"),
    ):
        line = next(ln for ln in out.splitlines() if ln.startswith(rule_id))
        assert tier in line
    lines = out.splitlines()
    tier3 = [ln.split()[0] for ln in lines if ln.startswith("SIM2")]
    assert tier3 == ["SIM208", "SIM209", "SIM211"]
    assert not any(ln.startswith("SIM30") for ln in lines)


def test_stale_baseline_warns_then_strict_fails_then_prunes(
    concurrency_tree, capsys
):
    target = _save_py(concurrency_tree)
    baseline = concurrency_tree / "baseline.json"
    lint_main(
        [
            str(target),
            "--baseline",
            str(baseline),
            "--update-baseline",
        ]
    )
    capsys.readouterr()
    # fix the finding at its source: the write now goes tmp + os.replace
    target.write_text(ATOMIC)
    # default: still exit 0, but the dead entry is called out on stderr
    assert (
        lint_main(
            [str(target), "--baseline", str(baseline)]
        )
        == 0
    )
    captured = capsys.readouterr()
    assert "stale baseline" in captured.err
    # the ratchet: --strict-baseline turns dead entries into a failure
    assert (
        lint_main(
            [
                str(target),
                "--baseline",
                str(baseline),
                "--strict-baseline",
            ]
        )
        == 1
    )
    capsys.readouterr()
    # --update-baseline prunes the dead entry away
    assert (
        lint_main(
            [
                str(target),
                "--baseline",
                str(baseline),
                "--update-baseline",
            ]
        )
        == 0
    )
    assert json.loads(baseline.read_text()) == []


def test_committed_baseline_is_in_the_writer_format(tmp_path):
    """The committed baseline is byte-equal to what ``--update-baseline``
    writes for its own entries: sorted, two-space JSON, a final newline.
    ``--strict-baseline`` already fails on stale entries; this catches a
    hand-edited file, with no second lint of the tree."""
    committed = Path(__file__).resolve().parents[2] / DEFAULT_BASELINE
    rewritten = tmp_path / DEFAULT_BASELINE
    write_baseline([], rewritten, keep=load_baseline(committed))
    assert committed.read_bytes() == rewritten.read_bytes()


def _baseline_both_tiers(combined_tree, capsys) -> Path:
    """A baseline holding the tree's SIM006 and SIM209 findings."""
    baseline = combined_tree / "baseline.json"
    src = str(combined_tree / "src")
    lint_main([src, "--baseline", str(baseline), "--update-baseline"])
    assert {e["rule"] for e in json.loads(baseline.read_text())} == {"SIM006", "SIM209"}
    capsys.readouterr()
    return baseline


def test_select_run_judges_no_entry_of_an_unselected_rule(combined_tree, capsys):
    baseline = _baseline_both_tiers(combined_tree, capsys)
    src = str(combined_tree / "src")
    args = [src, "--select", "SIM006", "--baseline", str(baseline), "--strict-baseline"]
    assert lint_main(args) == 0
    assert "stale baseline" not in capsys.readouterr().err


def test_narrower_paths_judge_no_entry_outside_them(combined_tree, capsys):
    baseline = _baseline_both_tiers(combined_tree, capsys)
    noall = str(combined_tree / "src" / "repro" / "sim" / "noall.py")
    args = [noall, "--baseline", str(baseline), "--strict-baseline"]
    assert lint_main(args) == 0
    assert "stale baseline" not in capsys.readouterr().err


def test_update_baseline_with_select_keeps_unselected_entries(combined_tree, capsys):
    baseline = _baseline_both_tiers(combined_tree, capsys)
    before = json.loads(baseline.read_text())
    src = str(combined_tree / "src")
    lint_main([src, "--select", "SIM006", "--baseline", str(baseline), "--update-baseline"])
    assert json.loads(baseline.read_text()) == before
    # A selected entry whose finding is gone is still pruned.
    (combined_tree / "src" / "repro" / "sim" / "noall.py").write_text("__all__ = []\n")
    lint_main([src, "--select", "SIM006", "--baseline", str(baseline), "--update-baseline"])
    assert [e["rule"] for e in json.loads(baseline.read_text())] == ["SIM209"]

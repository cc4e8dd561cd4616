"""``python -m repro docs [--check]``: the one writer and checker of docs/.

The command writes every file :func:`repro.__main__.generated_docs`
returns and prunes per-technique DOT files no technique produces; with
``--check`` it writes nothing and names each missing, stale or orphaned
file.  The generator is swapped for the session's shared build so these
tests exercise the command without rebuilding the catalogs.
"""

import os
from pathlib import Path

import pytest

import repro.__main__ as cli

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def docs(generated_docs, monkeypatch):
    monkeypatch.setattr(cli, "generated_docs", lambda: dict(generated_docs))
    return generated_docs


def test_generated_docs_cover_every_artifact(docs):
    assert {"messages.md", "messages.json", "waitgraph.md", "waitgraph.json",
            "interference.md", "interference.json", "phasecost.md",
            "phasecost.json"} <= set(docs)
    dots = [name for name in docs if name.startswith("waitgraph/")]
    assert len(dots) == 10 and all(name.endswith(".dot") for name in dots)


def test_committed_docs_pass_the_check(docs, capsys):
    cwd = os.getcwd()
    os.chdir(REPO)
    try:
        assert cli.main(["docs", "--check"]) == 0
    finally:
        os.chdir(cwd)
    assert "fresh" in capsys.readouterr().out


def test_docs_writes_every_file_and_prunes_orphan_dots(docs, tmp_path):
    dot_dir = tmp_path / "waitgraph"
    dot_dir.mkdir()
    (dot_dir / "retired_technique.dot").write_text("digraph {}\n")
    (dot_dir / "README").write_text("not a DOT file\n")

    assert cli.main(["docs", "--docs", str(tmp_path)]) == 0
    for name, content in docs.items():
        assert (tmp_path / name).read_text() == content, name
    assert not (dot_dir / "retired_technique.dot").exists()
    assert (dot_dir / "README").exists()
    assert cli.main(["docs", "--check", "--docs", str(tmp_path)]) == 0


def test_docs_check_reports_missing_and_stale(docs, tmp_path, capsys):
    # Nothing written yet: every file is missing and nothing is created.
    assert cli.main(["docs", "--check", "--docs", str(tmp_path)]) == 1
    missing = capsys.readouterr().err
    for name in docs:
        assert f"{tmp_path / name}: missing" in missing, name
    assert list(tmp_path.iterdir()) == []

    assert cli.main(["docs", "--docs", str(tmp_path)]) == 0
    capsys.readouterr()

    # One stale file, one stale DOT file and one orphan: each is named,
    # nothing else is.
    (tmp_path / "phasecost.json").write_text("{}\n")
    (tmp_path / "waitgraph" / "active.dot").write_text("digraph {}\n")
    (tmp_path / "waitgraph" / "retired_technique.dot").write_text("")
    assert cli.main(["docs", "--check", "--docs", str(tmp_path)]) == 1
    problems = capsys.readouterr().err.splitlines()
    assert problems == [
        f"{tmp_path / 'waitgraph' / 'retired_technique.dot'}: not generated",
        f"{tmp_path / 'phasecost.json'}: out of date",
        f"{tmp_path / 'waitgraph' / 'active.dot'}: out of date",
        "regenerate with: make docs",
    ]

    # Regenerating repairs all three.
    assert cli.main(["docs", "--docs", str(tmp_path)]) == 0
    assert cli.main(["docs", "--check", "--docs", str(tmp_path)]) == 0


def test_lint_cli_no_longer_writes_catalogs(capsys):
    from repro.lint.cli import main as lint_main

    for flag in ("--write-catalog", "--check-catalog", "--write-waitgraph",
                 "--check-waitgraph", "--write-interference",
                 "--check-interference"):
        with pytest.raises(SystemExit) as exc:
            lint_main(["src/repro", flag, "docs/x.md"])
        assert exc.value.code == 2, flag
    capsys.readouterr()

"""The corpus of hard inputs and its replay script (tests/replay_corpus.py).

The corpus itself, with its time bounds, is replayed in CI; here only its
format, one cheap entry and the README's table of budgets are checked, so
that a broken entry, a replay that passes everything or a table row naming
no refusal would show."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import takewhile
from pathlib import Path

import pytest

import replay_corpus

SCRIPT = Path(replay_corpus.__file__)
CHEAP = "chordal-4-cycle.json"
README = SCRIPT.parents[1] / "README.md"
BUDGET_HEADER = "| Entry point | Bound | Corpus entry |"


@pytest.mark.parametrize("path", sorted(replay_corpus.CORPUS.glob("*.json")), ids=lambda p: p.stem)
def test_entry_is_well_formed(path):
    entry = replay_corpus.load(path)
    assert entry["why"] and entry["argv"] and entry["exit"] in (0, 1, 2, 3) and entry["timeout"] > 0
    # integers stay text: one entry holds an integer longer than int() reads
    json.loads(replay_corpus.document(entry), parse_int=str)


def budget_table_entries(text: str) -> list[str]:
    """The corpus entries named in the last column of the README's table of
    budgets, one per row after the header and its rule."""
    lines = text.splitlines()
    rows = takewhile(lambda row: row.startswith("|"), lines[lines.index(BUDGET_HEADER) + 2 :])
    return [row.rsplit("|", 2)[1].strip().strip("`") for row in rows]


def test_readme_budget_table_names_refusing_entries():
    names = budget_table_entries(README.read_text(encoding="utf-8"))
    assert names
    for name in names:
        entry = replay_corpus.load(replay_corpus.CORPUS / f"{name}.json")
        assert entry["exit"] == 3 and entry.get("stderr", "").startswith("undecided: "), name


def test_unknown_generator_is_refused(tmp_path):
    entry = json.loads((replay_corpus.CORPUS / CHEAP).read_text())
    entry["input"] = {"generate": "no_such_family", "args": []}
    (tmp_path / CHEAP).write_text(json.dumps(entry))
    with pytest.raises(ValueError, match="no_such_family"):
        replay_corpus.load(tmp_path / CHEAP)


def replay(directory: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(directory)], capture_output=True, text=True, timeout=60
    )


def test_replay_passes_and_fails(tmp_path):
    good, bad = tmp_path / "good", tmp_path / "bad"
    good.mkdir()
    bad.mkdir()
    shutil.copy(replay_corpus.CORPUS / CHEAP, good)
    run = replay(good)
    assert run.returncode == 0, run.stdout
    assert run.stdout.startswith("ok   chordal-4-cycle  ")

    entry = json.loads((good / CHEAP).read_text())
    entry["exit"] = 0
    (bad / CHEAP).write_text(json.dumps(entry))
    run = replay(bad)
    assert run.returncode == 1
    assert "exit 1, expected 0" in run.stdout
    assert run.stdout.splitlines()[-1] == "1 failed: chordal-4-cycle"

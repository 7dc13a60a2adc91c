"""The corpus of hard inputs and its replay script (tests/replay_corpus.py).

The corpus itself, with its time bounds, is replayed in CI; here only its
format and one cheap entry are checked, so that a broken entry or a
replay that passes everything would show."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import replay_corpus

SCRIPT = Path(replay_corpus.__file__)
CHEAP = "chordal-4-cycle.json"


@pytest.mark.parametrize("path", sorted(replay_corpus.CORPUS.glob("*.json")), ids=lambda p: p.stem)
def test_entry_is_well_formed(path):
    entry = replay_corpus.load(path)
    assert entry["why"] and entry["argv"] and entry["exit"] in (0, 1, 2, 3) and entry["timeout"] > 0
    # integers stay text: one entry holds an integer longer than int() reads
    json.loads(replay_corpus.document(entry), parse_int=str)


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

"""Replay the corpus of hard inputs through the command line.

Each entry of the corpus directory is one JSON file holding:

- `argv`: the arguments after `kdecomp`;
- `input`: the document piped to stdin, either literal or
  `{"generate": name, "args": [...]}` for one of the GENERATORS below,
  which returns the document, or its text where `json.dumps` cannot
  write it;
- `exit`: the expected exit status;
- `stdout` and/or `stderr`: the exact expected text (a stream without
  its key is not compared);
- `timeout`: the wall-clock bound in seconds;
- `why`: what the entry pins.

Entries run in name order, each as `python -m kdecomp.cli ARGV` in a child
process, so the package must be importable (installed, or PYTHONPATH=src).
One line is printed per entry, then the failing names; the exit status is
1 when any entry fails.

    python tests/replay_corpus.py [CORPUS_DIR]    # default: tests/corpus
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

CORPUS = Path(__file__).with_name("corpus")
REQUIRED = ("why", "argv", "input", "exit", "timeout")
STREAMS = ("stdout", "stderr")


def _pair_names(m: int) -> list[str]:
    return [f"{ab}{i}" for i in range(m) for ab in "ab"]


def pairs_complex(m: int) -> dict:
    """The complex with facets X - {a_i, b_i}, i < m."""
    names = _pair_names(m)
    facets = [[v for v in names if v[1:] != str(i)] for i in range(m)]
    return {"kind": "complex", "vars": names, "facets": facets}


def pairs_ideal(m: int) -> dict:
    """The ideal (a_i * b_i, i < m)."""
    return {"kind": "ideal", "vars": _pair_names(m), "gens": [f"a{i}*b{i}" for i in range(m)]}


def power(n: int) -> dict:
    """The ideal (x, y)^n."""
    return {"kind": "ideal", "vars": ["x", "y"], "gens": [f"x^{a}*y^{n - a}" for a in range(n + 1)]}


def variables_and_two_edges(m: int) -> dict:
    """The ideal (a_1, ..., a_m, b1*c1, b2*c2)."""
    a = [f"a{i}" for i in range(1, m + 1)]
    return {"kind": "ideal", "vars": a + ["b1", "c1", "b2", "c2"], "gens": a + ["b1*c1", "b2*c2"]}


def skeleton(n: int, k: int) -> dict:
    """The k-skeleton of the simplex on x0, ..., x(n-1): every k + 1 of
    its vertices span a facet."""
    names = [f"x{i}" for i in range(n)]
    return {"kind": "complex", "vars": names, "facets": [list(f) for f in combinations(names, k + 1)]}


def variables(n: int) -> dict:
    """The ideal (x0, ..., x(n-1))."""
    names = [f"x{i}" for i in range(n)]
    return {"kind": "ideal", "vars": names, "gens": names}


def square_and_cycle(n: int) -> dict:
    """x0^2 plus the edge ideal of the n-cycle on x1, ..., xn."""
    names = [f"x{i}" for i in range(n + 1)]
    edges = [f"x{i}*x{i % n + 1}" for i in range(1, n + 1)]
    return {"kind": "ideal", "vars": names, "gens": ["x0^2"] + edges}


def rising_powers(n: int) -> dict:
    """The ideal (x0, x1^2, ..., x(n-1)^n)."""
    names = [f"x{i}" for i in range(n)]
    return {"kind": "ideal", "vars": names, "gens": [f"x{i}^{i + 1}" for i in range(n)]}


def long_exponent(digits: int) -> str:
    """The text of the ideal (x^N), N written with `digits` nines: past
    int()'s digit limit, json.dumps cannot write it."""
    return '{"kind": "ideal", "vars": ["x"], "gens": [[' + "9" * digits + "]]}"


def seeded_rows(seed: int, n: int, count: int) -> dict:
    """`count` seeded exponent rows on n variables, entries drawn from
    0, 0, 0, 1, 2, with the zero rows dropped."""
    r = random.Random(seed)
    rows = [[r.choice([0, 0, 0, 1, 2]) for _ in range(n)] for _ in range(count)]
    return {"kind": "ideal", "vars": [f"x{i}" for i in range(n)], "gens": [row for row in rows if any(row)]}


GENERATORS = {
    f.__name__: f
    for f in (
        pairs_complex,
        pairs_ideal,
        power,
        variables_and_two_edges,
        seeded_rows,
        skeleton,
        variables,
        square_and_cycle,
        rising_powers,
        long_exponent,
    )
}


def load(path: Path) -> dict:
    """The entry in `path`; ValueError when a field is missing or unknown,
    or when its input names no generator."""
    entry = json.loads(path.read_text(encoding="utf-8"))
    missing = [k for k in REQUIRED if k not in entry]
    unknown = sorted(set(entry) - set(REQUIRED) - set(STREAMS))
    if missing or unknown or not any(s in entry for s in STREAMS):
        raise ValueError(f"{path.name}: missing {missing}, unknown {unknown}, or no stdout/stderr")
    spec = entry["input"]
    if "generate" in spec and spec["generate"] not in GENERATORS:
        raise ValueError(f"{path.name}: unknown generator {spec['generate']!r}")
    return entry


def document(entry: dict) -> str:
    spec = entry["input"]
    if "generate" in spec:
        spec = GENERATORS[spec["generate"]](*spec["args"])
    return (spec if isinstance(spec, str) else json.dumps(spec)) + "\n"


def replay(entry: dict) -> str | None:
    """None when the entry holds, else what differed."""
    try:
        run = subprocess.run(
            [sys.executable, "-m", "kdecomp.cli", *entry["argv"]],
            input=document(entry).encode(),
            capture_output=True,
            timeout=entry["timeout"],
        )
    except subprocess.TimeoutExpired:
        return f"no exit within {entry['timeout']} s"
    wrong = [] if run.returncode == entry["exit"] else [f"exit {run.returncode}, expected {entry['exit']}"]
    for stream in STREAMS:
        got = getattr(run, stream).decode()
        if stream in entry and got != entry[stream]:
            wrong.append(f"{stream} {got[:200]!r}, expected {entry[stream][:200]!r}")
    return "; ".join(wrong) or None


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: replay_corpus.py [CORPUS_DIR]", file=sys.stderr)
        return 2
    directory = Path(argv[0]) if argv else CORPUS
    paths = sorted(directory.glob("*.json"))
    if not paths:
        print(f"no entries in {directory}")
        return 1
    failed = []
    for path in paths:
        start = time.perf_counter()
        try:
            problem = replay(load(path))
        except ValueError as exc:
            problem = str(exc)
        seconds = time.perf_counter() - start
        print(f"{'ok' if problem is None else 'FAIL':4} {path.stem}  {seconds:.2f} s", flush=True)
        if problem is not None:
            print(f"     {problem}", flush=True)
            failed.append(path.stem)
    if failed:
        print(f"{len(failed)} failed: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

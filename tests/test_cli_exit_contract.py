"""The exit-status contract of the command line, on generated documents.

Every subcommand but `verify` is run in-process on well-formed and
malformed ideal, complex and clutter documents over at most five
variables.  The status must be 0, 1, 2 or 3 and no exception may
escape `main`; exit 1 (a negative verdict or a violation) may come only
from the commands that decide something.  A reader that closes stdout
early gets exit 2 and no traceback.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import kdecomp
from kdecomp.cli import main

NAMES = "xyzwv"

# any JSON value: null, booleans, small ints, short strings, nested lists
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.text("xyzw^*1 ", max_size=5),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=6,
)


@st.composite
def documents(draw):
    kind = draw(st.sampled_from(["ideal", "complex", "clutter"]))
    names = list(NAMES[: draw(st.integers(1 if kind == "complex" else 2, 5))])
    name = st.sampled_from(names)
    if kind == "ideal":
        key = "gens"
        exps = st.lists(st.integers(0, 3), min_size=len(names), max_size=len(names))
        word = st.lists(st.tuples(name, st.integers(1, 3)), min_size=1, max_size=3).map(
            lambda factors: "*".join(f"{v}^{e}" for v, e in factors)
        )
        item = exps | word
    else:
        key = "facets" if kind == "complex" else "edges"
        low = 2 if kind == "clutter" else 0
        item = st.lists(name, min_size=low, max_size=len(names), unique=True)
    doc = {"kind": kind, "vars": names, key: draw(st.lists(item, min_size=1, max_size=5))}
    if kind != "ideal" and draw(st.booleans()):
        doc["vertices"] = draw(st.lists(name, unique=True))
    # half the documents have one field replaced by, or gain an element of,
    # any JSON value
    spoil = draw(st.sampled_from([None] * 5 + ["kind", "vars", key, "item", "vertices"]))
    if spoil == "item":
        doc[key].insert(draw(st.integers(0, len(doc[key]))), draw(JUNK))
    elif spoil is not None:
        doc[spoil] = draw(JUNK)
    return doc


@st.composite
def argument_lists(draw, doc):
    k = str(draw(st.integers(-1, 2)))
    field = draw(st.sampled_from(["rational", "2", "3"]))
    json_flag = ["--json"] if draw(st.booleans()) else []
    names = doc["vars"] if isinstance(doc["vars"], list) else []
    name = st.sampled_from([v for v in names if isinstance(v, str)] or ["x"])
    # the bound needs an edge through its vertex: take one from the document
    edges = doc.get("edges")
    edge = draw(st.sampled_from(edges)) if isinstance(edges, list) and edges else None
    if isinstance(edge, list) and edge and all(isinstance(v, str) for v in edge):
        vertex, edge = draw(st.sampled_from(edge)), ",".join(edge)
    else:
        vertex, edge = draw(name), ",".join(draw(st.lists(name, min_size=1, max_size=3)))
    op = draw(st.sampled_from(["delete", "contract"]))
    return [
        ["dual"] + json_flag,
        ["decompose", "--k", k, "--mode", draw(st.sampled_from(["direct", "dual"]))]
        + json_flag,
        ["betti", "--method", draw(st.sampled_from(["oracle", "order", "recursive"])),
         "--field", field] + json_flag,
        ["invariants", "--field", field] + json_flag,
        ["clutter", "chordal"] + json_flag,
        ["clutter", "bound", "--vertex", vertex, "--edge", edge] + json_flag,
        ["clutter", "minor", "--ops", f"{op}:{draw(name)}"] + json_flag,
    ]


def may_exit_one(argv) -> bool:
    if argv[0] == "betti":
        return argv[argv.index("--method") + 1] in ("order", "recursive")
    return argv[0] == "decompose" or argv[:2] in (
        ["clutter", "chordal"],
        ["clutter", "bound"],
    )


def run_main(argv, text: str) -> int:
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return main(argv)
    finally:
        sys.stdin = stdin


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_cli_exit_status_contract(data):
    doc = data.draw(documents())
    text = json.dumps(doc)
    for argv in data.draw(argument_lists(doc)):
        code = run_main(argv, text)
        assert code in (0, 1, 2, 3), (argv, code)
        assert code != 1 or may_exit_one(argv), argv


def test_reader_closing_stdout_early_gets_exit_two():
    """`decompose --k 0 < doc | head -1` on (x, y)^300: the certificate
    text is about 730 kB, far past a pipe's buffer, so the reader closes
    stdout while the command still writes."""
    doc = {"kind": "ideal", "vars": ["x", "y"], "gens": [f"x^{a}*y^{300 - a}" for a in range(301)]}
    src = os.path.dirname(os.path.dirname(kdecomp.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "kdecomp.cli", "decompose", "--k", "0"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        proc.stdin.write(json.dumps(doc).encode())
        proc.stdin.close()
        first = proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=60) == 2
        assert proc.stderr.read() == b""
        assert first == b"u = x\n"
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()

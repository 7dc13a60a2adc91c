"""CLI output must stay byte-identical.

`cli_snapshot.json` records the exit status, stdout and stderr of
`kdecomp` run in-process: every subcommand, in text and `--json` form,
on a seeded batch of ideal, complex and clutter documents (including
documents a subcommand refuses, bad flag values and budget overruns),
and each `verify` property at two seeds.  Any change to what a command
prints shows up here as a changed record.

Regenerate the snapshot only for an intended output change, with
``PYTHONPATH=src python tests/test_cli_snapshot.py``, and say why in the
change log.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from random import Random

from kdecomp import VariableContext
from kdecomp.cli import main
from kdecomp.documents import emit_object
from kdecomp.generators import (
    random_clutter,
    random_complex,
    random_monomial_ideal,
)

SNAPSHOT = Path(__file__).with_name("cli_snapshot.json")
SEED = 20261019
VERIFY_SEEDS = (3, 11)
VERIFY_COUNT = 4

FIXED_DOCUMENTS = [
    '{"kind":"ideal","vars":["x","y","z"],"gens":["x*y","x*z","y*z"]}',
    '{"kind":"ideal","vars":["x","y"],"gens":["x^2","x*y","y^2"]}',
    # not decomposable, and without linear quotients
    '{"kind":"ideal","vars":["x","y","z","w"],"gens":["x*y","z*w"]}',
    # the zero ideal, and generators that are minimalized with a warning
    '{"kind":"ideal","vars":["x","y"],"gens":[]}',
    '{"kind":"ideal","vars":["x","y","z"],"gens":["x*y","x*y","x*y*z",[0,1,1]]}',
    # a non-maximal facet and a declared vertex that is not a face
    '{"kind":"complex","vars":["x","y","z"],"facets":[["x","y"],["x"]],"vertices":["x","y","z"]}',
    '{"kind":"complex","vars":["x","y","z"],"facets":[["x","y"],["x","z"],["y","z"]]}',
    '{"kind":"complex","vars":["x","y"],"facets":[]}',
    # the 6-vertex real projective plane: 2-torsion, so its invariants
    # over GF(2) differ from those over Q and GF(5)
    '{"kind":"complex","vars":["a","b","c","d","e","f"],"facets":[["a","b","c"],["a","b","d"],'
    '["a","c","e"],["a","d","f"],["a","e","f"],["b","c","f"],["b","d","e"],["b","e","f"],'
    '["c","d","e"],["c","d","f"]]}',
    '{"kind":"clutter","vars":["x","y","z","w"],"edges":[["x","y"],["x","z"],["y","z"],["z","w"]]}',
    '{"kind":"clutter","vars":["x","y","z","w"],"edges":[["x","y"],["y","z"],["z","w"],["w","x"]]}',
    '{"kind":"clutter","vars":["a","b","c","d","e"],"edges":[["a","b","c"],["b","c","d"],["c","d","e"]]}',
    '{"kind":"clutter","vars":["x","y","z"],"edges":[]}',
    # documents that do not parse
    '{"kind":"ideal","vars":["x","y"],"gens":["x*q"]}',
    '{"kind":"ideal","vars":["x"',
]


def seeded_documents() -> list[str]:
    """The fixed documents, then seeded ideals, complexes and clutters."""
    rng = Random(SEED)
    values = []
    ctx3 = VariableContext.of("x", "y", "z")
    ctx4 = VariableContext.of("a", "b", "c", "d")
    ctx5 = VariableContext.of("a", "b", "c", "d", "e")
    values += [random_monomial_ideal(rng, ctx3, max_gens=4, max_exp=2) for _ in range(5)]
    values += [random_monomial_ideal(rng, ctx4, 4, 1) for _ in range(4)]
    values += [random_complex(rng, ctx4, 4, max_facets=4) for _ in range(4)]
    values += [random_clutter(rng, ctx5, rng.randint(3, 5), max_edges=4) for _ in range(5)]
    seeded = [json.dumps(emit_object(v), separators=(",", ":")) for v in values]
    return FIXED_DOCUMENTS + seeded


def commands_for(document: str) -> list[list[str]]:
    """The argument lists run on one document."""
    try:
        parsed = json.loads(document)
    except json.JSONDecodeError:
        parsed = {}
    kind = parsed.get("kind")
    runs: list[list[str]] = [
        ["dual"],
        ["invariants"],
        ["invariants", "--field", "2"],
        ["betti", "--method", "recursive"],
        ["decompose", "--k", "0"],
        ["clutter", "chordal"],
    ]
    if kind == "ideal":
        runs += [
            ["betti", "--method", "order"],
            ["betti", "--method", "oracle"],
            ["betti", "--method", "oracle", "--field", "3"],
            ["decompose", "--k", "-1"],
            ["decompose", "--k", "1"],
            ["decompose", "--k", "-1", "--budget", "1"],
            ["decompose", "--k", "0", "--mode", "dual"],
        ]
    elif kind == "complex":
        runs += [
            ["decompose", "--k", k, "--mode", mode]
            for k in ("-1", "1")
            for mode in ("direct", "dual")
        ]
        runs += [["decompose", "--k", "0", "--mode", "dual"]]
    elif kind == "clutter":
        names = parsed["vars"]
        for edge in parsed["edges"]:
            for x in edge:
                runs.append(["clutter", "bound", "--vertex", x, "--edge", ",".join(edge)])
        runs += [
            ["clutter", "bound", "--vertex", names[-1], "--edge", ",".join(names[:2])],
            ["clutter", "minor", "--ops", f"delete:{names[0]}"],
            ["clutter", "minor", "--ops", f"contract:{names[1]},delete:{names[-1]}"],
            ["clutter", "minor", "--ops", f"contract:{names[0]},contract:{names[1]}"],
        ]
    return [argv + json_flag for argv in runs for json_flag in ([], ["--json"])]


# bad flag values, each on the first document; a field of 2**31 or more
# is left out, since its message is pinned by its own test
FLAG_RUNS = [
    ["betti", "--method", "oracle", "--field", field]
    for field in ("4", "1", "-3", "0", "abc", "2.0", "", "2147483647")
] + [
    ["invariants", "--field", "9"],
    ["decompose", "--k", "-2"],
    ["decompose", "--k", "0", "--budget", "-1"],
]


def verify_runs() -> list[list[str]]:
    properties = ("three-way", "terao", "ha", "regp", "lemma-h")
    runs = [
        ["verify", prop, "--seed", str(seed), "--count", str(VERIFY_COUNT)] + json_flag
        for prop in properties
        for seed in VERIFY_SEEDS
        for json_flag in ([], ["--json"])
    ]
    runs += [
        ["verify", "regp", "--seed", "1", "--count", "0"],
        ["verify", "terao", "--seed", "1", "--count", "-1", "--json"],
    ]
    return runs


def run(argv: list[str], stdin: str) -> dict:
    """Exit status, stdout and stderr of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return {"code": code, "out": out.getvalue(), "err": err.getvalue()}


def snapshot_batch() -> dict:
    documents = seeded_documents()
    records = []
    for index, document in enumerate(documents):
        for argv in commands_for(document):
            records.append({"doc": index, "argv": argv, **run(argv, document)})
    for argv in FLAG_RUNS:
        records.append({"doc": 0, "argv": argv, **run(argv, documents[0])})
    for argv in verify_runs():
        records.append({"doc": None, "argv": argv, **run(argv, "")})
    return {"documents": documents, "records": records}


def test_cli_output_matches_snapshot():
    expected = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    actual = snapshot_batch()
    assert actual["documents"] == expected["documents"]
    assert len(actual["records"]) == len(expected["records"])
    for got, want in zip(actual["records"], expected["records"]):
        assert got == want, f"kdecomp {' '.join(want['argv'])} on document {want['doc']}"


if __name__ == "__main__":
    batch = snapshot_batch()
    lines = ",\n".join(json.dumps(r, separators=(",", ":")) for r in batch["records"])
    docs = ",\n".join(json.dumps(d) for d in batch["documents"])
    SNAPSHOT.write_text(
        f'{{"documents": [\n{docs}\n],\n"records": [\n{lines}\n]}}\n', encoding="utf-8"
    )

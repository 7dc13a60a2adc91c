from __future__ import annotations

import json
import sys
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from kdecomp import Clutter, DocumentError, ImproperIdealError, MonomialIdeal, SimplicialComplex
from kdecomp.cli import main
from kdecomp.documents import (
    certificate_text,
    emit_object,
    exponents_from_string,
    parse_document,
    parse_object,
)
from kdecomp.generators import random_clutter, random_complex, random_monomial_ideal
from kdecomp.monomials import VariableContext

from conftest import ideal


def test_parse_ideal_document(ctx3):
    parsed = parse_document(
        '{"kind":"ideal","vars":["x","y","z"],"gens":["x*y","x*z","y*z"]}'
    )
    assert parsed.kind == "ideal"
    assert parsed.value == ideal(ctx3, "x*y", "x*z", "y*z")
    assert parsed.warnings == []


def test_parse_exponent_lists(ctx3):
    parsed = parse_object(
        {"kind": "ideal", "vars": ["x", "y", "z"], "gens": [[2, 0, 0], "y*z"]}
    )
    assert parsed.value == ideal(ctx3, "x^2", "y*z")


def test_parse_clutter_document():
    parsed = parse_document(
        '{"kind":"clutter","vars":["x","y","z"],"edges":[["x","y"],["y","z"]]}'
    )
    assert parsed.kind == "clutter"
    assert parsed.value.edges == frozenset({frozenset({0, 1}), frozenset({1, 2})})


def test_parse_warns_only_when_facets_are_reduced():
    def warnings(facets, **extra):
        obj = {"kind": "complex", "vars": ["a", "b", "c"], "facets": facets, **extra}
        return parse_object(obj).warnings

    reduced = ["duplicate or non-maximal facets were reduced"]
    assert warnings([["a", "b"], ["a"]]) == reduced
    assert warnings([["a", "b"], ["b", "a"]]) == reduced
    assert warnings([["a"], ["a", "b"]], vertices=["c"]) == reduced
    assert warnings([["a", "b"], ["b", "c"]]) == []
    assert warnings([["a"]], vertices=["a", "b", "c"]) == []
    assert warnings([[]]) == []
    assert warnings([]) == []


def test_parse_unit_generator_rejected():
    with pytest.raises(ImproperIdealError):
        parse_object({"kind": "ideal", "vars": ["x"], "gens": ["1"]})


def test_parse_errors_carry_position():
    with pytest.raises(DocumentError) as err:
        parse_document('{"kind": "ideal",\n  bad}')
    assert "line 2" in str(err.value)


def test_parse_unknown_variable():
    with pytest.raises(DocumentError) as err:
        parse_object({"kind": "ideal", "vars": ["x"], "gens": ["q"]})
    assert "q" in str(err.value)


def test_duplicates_warn(ctx3):
    parsed = parse_object(
        {"kind": "ideal", "vars": ["x", "y", "z"], "gens": ["x*y", "x*y", "x*y*z"]}
    )
    assert parsed.warnings
    assert parsed.value == ideal(ctx3, "x*y")


def test_monomial_string_round_trip(ctx4):
    rng = Random(7)
    from kdecomp.generators import random_monomial

    for _ in range(100):
        m = random_monomial(rng, ctx4, 4)
        assert exponents_from_string(str(m), ctx4) == m.exponents


def test_document_round_trip(ctx4):
    rng = Random(13)
    for _ in range(40):
        for value in (
            random_monomial_ideal(rng, ctx4, 5, 3),
            random_complex(rng, ctx4, 4),
            random_clutter(rng, ctx4, 4),
        ):
            assert parse_object(emit_object(value)).value == value


def test_degenerate_complex_round_trip(ctx3):
    for value in (
        SimplicialComplex.from_facets(ctx3, [], [0, 1]),
        SimplicialComplex.from_facets(ctx3, [()], [0, 1, 2]),
    ):
        assert parse_object(emit_object(value)).value == value


def writable(name):
    return name not in ("", "1") and name == name.strip() and not set(name) & set("*^,")


@st.composite
def named_values(draw):
    """Ideals, complexes and clutters on 2 to 4 variables whose names are
    drawn from letters, the document syntax's own characters and spaces;
    about half the draws keep to "a", "b", "1" and inner spaces."""
    alphabet = draw(st.sampled_from(["ab1 ", "ab1*^, "]))
    name = st.text(alphabet, max_size=3)
    if alphabet == "ab1 ":
        name = name.map(str.strip).filter(lambda s: s not in ("", "1"))
    names = draw(st.lists(name, min_size=2, max_size=4, unique=True))
    ctx, n = VariableContext(tuple(names)), len(names)
    kind = draw(st.sampled_from(["ideal", "complex", "clutter"]))
    if kind == "ideal":
        row = st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(any)
        return MonomialIdeal.from_monomials(ctx, map(ctx.monomial, draw(st.lists(row, max_size=4))))
    size = 0 if kind == "complex" else 2
    sets = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=size), max_size=4))
    vertices = draw(st.sets(st.integers(0, n - 1)))
    if kind == "complex":
        return SimplicialComplex.from_facets(ctx, sets, vertices=vertices)
    return Clutter.from_edges(ctx, sets, vertices=vertices)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(named_values())
def test_emitted_documents_parse_back_or_are_refused(value):
    text = json.dumps(emit_object(value))
    if all(map(writable, value.ctx.names)):
        assert parse_document(text).value == value
    else:
        with pytest.raises(DocumentError, match="cannot be written"):
            parse_document(text)


@pytest.mark.parametrize(
    "document, name",
    [
        # read as the generator a*b, whose dual is (a, b)
        ('{"kind":"ideal","vars":["a*b","a","b"],"gens":["a*b"]}', "'a*b'"),
        # dual --json emits "a*b*a", which reads back as a^2*b
        ('{"kind":"ideal","vars":["a*b","a","b"],"gens":[[1,0,0],[0,1,1]]}', "'a*b'"),
        # emitted as the generator "1", the unit ideal
        ('{"kind":"ideal","vars":["1","c"],"gens":[[1,0]]}', "'1'"),
        ('{"kind":"complex","vars":["x^2","y"],"facets":[["x^2"]]}', "'x^2'"),
        ('{"kind":"clutter","vars":["x,y","z"],"edges":[["x,y","z"]]}', "'x,y'"),
        ('{"kind":"clutter","vars":[" x","z"],"edges":[[" x","z"]]}', "' x'"),
        ('{"kind":"complex","vars":["","z"],"facets":[["z"]]}', "''"),
    ],
)
def test_cli_refuses_names_documents_cannot_write(capsys, monkeypatch, document, name):
    code, out, err = run_cli(capsys, ["dual"], document, monkeypatch)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: variable name {name} cannot be written") and err.count("\n") == 1


def run_cli(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TRI_IDEAL = '{"kind":"ideal","vars":["x","y","z"],"gens":["x*y","x*z","y*z"]}'


def test_cli_betti_oracle_golden(tmp_path, capsys):
    path = tmp_path / "tri.json"
    path.write_text(TRI_IDEAL)
    code, out, _ = run_cli(capsys, ["betti", str(path), "--method", "oracle"])
    assert code == 0
    assert out == "        0  1\ntotal:  3  2\n    2:  3  2\n"


def test_cli_betti_methods_agree(tmp_path, capsys):
    path = tmp_path / "tri.json"
    path.write_text(TRI_IDEAL)
    outputs = []
    for method in ("oracle", "order", "recursive"):
        code, out, _ = run_cli(capsys, ["betti", str(path), "--method", method])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_cli_decompose_golden(tmp_path, capsys):
    path = tmp_path / "lq.json"
    path.write_text('{"kind":"ideal","vars":["x","y"],"gens":["x^2","x*y","y^2"]}')
    code, out, _ = run_cli(capsys, ["decompose", str(path), "--k", "0"])
    assert code == 0
    assert out.splitlines()[0] == "u = x"


def test_cli_decompose_not_decomposable(tmp_path, capsys):
    path = tmp_path / "no.json"
    path.write_text('{"kind":"ideal","vars":["x","y","z","w"],"gens":["x*y","z*w"]}')
    code, out, _ = run_cli(capsys, ["decompose", str(path), "--k", "-1"])
    assert code == 1
    assert "not decomposable" in out


def test_cli_decompose_budget_exit(tmp_path, capsys):
    path = tmp_path / "tri.json"
    path.write_text(TRI_IDEAL)
    code, _, err = run_cli(capsys, ["decompose", str(path), "--k", "0", "--budget", "0"])
    assert code == 3
    assert "undecided" in err


def test_cli_dual_stdin(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        ["dual", "--json"],
        stdin_text='{"kind":"ideal","vars":["x","y"],"gens":["x","y"]}',
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert json.loads(out)["gens"] == ["x*y"]


def test_cli_dual_complex_mode(tmp_path, capsys):
    path = tmp_path / "cx.json"
    path.write_text(
        '{"kind":"complex","vars":["x","y","z"],"facets":[["x","z"],["y","z"]]}'
    )
    code, out, _ = run_cli(capsys, ["dual", str(path), "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["facets"] == [["z"]]
    assert obj["vertices"] == ["x", "y", "z"]


@pytest.mark.parametrize(
    "facets, vertices, text",
    [
        ([["x", "y"], ["x"]], ["x", "y", "z"], "<{x,y}> on {x,y,z}"),
        ([["x", "y"]], None, "{} on {x,y}"),
        ([["x", "y", "z"]], None, "{} on {x,y,z}"),
        ([["x", "y"], ["x", "z"], ["y", "z"]], None, "{<>} on {x,y,z}"),
        ([["x"], ["y"], ["z"]], None, "<{x}, {y}, {z}>"),
    ],
)
def test_cli_dual_text_names_vertices_outside_the_facets(
    capsys, monkeypatch, facets, vertices, text
):
    obj = {"kind": "complex", "vars": ["x", "y", "z"], "facets": facets}
    if vertices is not None:
        obj["vertices"] = vertices
    code, out, _ = run_cli(capsys, ["dual"], json.dumps(obj), monkeypatch)
    assert (code, out) == (0, text + "\n")


def test_cli_clutter_chordal(tmp_path, capsys):
    path = tmp_path / "c4.json"
    path.write_text(
        '{"kind":"clutter","vars":["x","y","z","w"],'
        '"edges":[["x","y"],["y","z"],["z","w"],["w","x"]]}'
    )
    code, out, _ = run_cli(capsys, ["clutter", "chordal", str(path)])
    assert code == 1
    assert "chordal: false" in out

    tri = tmp_path / "tri.json"
    tri.write_text(
        '{"kind":"clutter","vars":["x","y","z"],"edges":[["x","y"],["x","z"],["y","z"]]}'
    )
    code, out, _ = run_cli(capsys, ["clutter", "chordal", str(tri)])
    assert code == 0
    assert "chordal: true" in out


def test_cli_clutter_bound(tmp_path, capsys):
    path = tmp_path / "tri.json"
    path.write_text(
        '{"kind":"clutter","vars":["x","y","z"],"edges":[["x","y"],["x","z"],["y","z"]]}'
    )
    code, out, _ = run_cli(
        capsys, ["clutter", "bound", str(path), "--vertex", "x", "--edge", "x,y"]
    )
    assert code == 0
    assert "reg R/I(H) = 1" in out


def test_cli_clutter_bound_names_a_vertex_that_is_not_simplicial(capsys, monkeypatch):
    # c has the neighbours b and d, which the 4-cycle a-b-c-d does not join
    cycle = (
        '{"kind":"clutter","vars":["a","b","c","d"],'
        '"edges":[["a","b"],["b","c"],["c","d"],["d","a"]]}'
    )
    argv = ["clutter", "bound", "--vertex", "c", "--edge", "c,d"]
    code, out, err = run_cli(capsys, argv, cycle, monkeypatch)
    assert (code, out, err) == (2, "", "error: c is not a simplicial vertex\n")


def test_cli_clutter_minor(tmp_path, capsys):
    path = tmp_path / "c4.json"
    path.write_text(
        '{"kind":"clutter","vars":["x","y","z","w"],'
        '"edges":[["x","y"],["y","z"],["z","w"],["w","x"]]}'
    )
    code, out, _ = run_cli(
        capsys, ["clutter", "minor", str(path), "--ops", "contract:x,delete:y", "--json"]
    )
    assert code == 0
    assert json.loads(out)["edges"] == [["w"]]


def test_cli_names_the_one_vertex_edge_of_a_minor_it_cannot_read_back(capsys, monkeypatch):
    # the minor prints edges {x} and {z}; reading that document back fails
    # on its first one-vertex edge, named as the text output names it
    star = '{"kind":"clutter","vars":["x","y","z","w"],"edges":[["x","y"],["y","z"],["z","w"]]}'
    code, minor, _ = run_cli(
        capsys, ["clutter", "minor", "--ops", "contract:y,delete:w", "--json"], star, monkeypatch
    )
    assert code == 0 and json.loads(minor)["edges"] == [["x"], ["z"]]
    code, out, err = run_cli(capsys, ["clutter", "chordal"], minor, monkeypatch)
    assert (code, out, err) == (2, "", "error: user edges need at least two vertices: {x}\n")


def test_cli_invariants(tmp_path, capsys):
    path = tmp_path / "tri.json"
    path.write_text(TRI_IDEAL)
    code, out, _ = run_cli(capsys, ["invariants", str(path), "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["quotient"] == {"reg": 1, "pd": 2}
    assert obj["bight"] == 2


def test_cli_verify_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, ["verify", "terao", "--seed", "7", "--count", "10"])
    code2, out2, _ = run_cli(capsys, ["verify", "terao", "--seed", "7", "--count", "10"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert "verified 10 instances" in out1


def test_cli_decompose_complex_dual_mode(tmp_path, capsys):
    path = tmp_path / "tri.json"
    path.write_text(
        '{"kind":"complex","vars":["x","y","z"],'
        '"facets":[["x","y"],["x","z"],["y","z"]]}'
    )
    for mode in ("direct", "dual"):
        code, out, _ = run_cli(
            capsys, ["decompose", str(path), "--k", "0", "--mode", mode]
        )
        assert code == 0
        assert out.splitlines()[0] == "sigma = {x}"


def test_cli_betti_order_failure_exit(tmp_path, capsys):
    path = tmp_path / "no.json"
    path.write_text('{"kind":"ideal","vars":["x","y","z","w"],"gens":["x*y","z*w"]}')
    code, out, _ = run_cli(capsys, ["betti", str(path), "--method", "order"])
    assert code == 1
    assert "no order of linear quotients" in out


def test_cli_invariants_complex_and_clutter(tmp_path, capsys):
    cx_path = tmp_path / "cx.json"
    cx_path.write_text(
        '{"kind":"complex","vars":["x","y","z"],'
        '"facets":[["x","y"],["x","z"],["y","z"]]}'
    )
    code, out, _ = run_cli(capsys, ["invariants", str(cx_path), "--json"])
    assert code == 0
    assert json.loads(out)["quotient"] == {"reg": 2, "pd": 1}

    cl_path = tmp_path / "cl.json"
    cl_path.write_text('{"kind":"clutter","vars":["x","y"],"edges":[["x","y"]]}')
    code, out, _ = run_cli(capsys, ["invariants", str(cl_path), "--json"])
    assert code == 0
    assert json.loads(out)["quotient"] == {"reg": 1, "pd": 1}


def test_cli_invariants_zero_ideal_notes_conventions(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text('{"kind":"ideal","vars":["x","y"],"gens":[]}')
    code, out, _ = run_cli(capsys, ["invariants", str(path), "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["quotient"] == {"reg": 0, "pd": 0}
    assert obj["notes"]

    # one facet on 30 vertices: the nonface ideal is zero, found without
    # walking the 2^30 vertex subsets
    names = [f"v{i}" for i in range(30)]
    path.write_text(json.dumps({"kind": "complex", "vars": names, "facets": [names]}))
    code, out, _ = run_cli(capsys, ["invariants", str(path)])
    assert code == 0
    assert out == (
        "quotient: reg = 0, pd = 0\n"
        "note: the nonface ideal is zero; conventions reg=pd=0 used\n"
    )


def test_cli_parse_error_exit(capsys, monkeypatch):
    code, _, err = run_cli(
        capsys, ["dual"], stdin_text="not json", monkeypatch=monkeypatch
    )
    assert code == 2
    assert "syntax error" in err


@pytest.mark.parametrize("argv", [["dual"], ["betti", "--method", "oracle"]])
def test_cli_refuses_an_integer_too_long_to_read(capsys, monkeypatch, argv):
    # json.loads raises a plain ValueError past int()'s digit limit
    limit = sys.get_int_max_str_digits()
    document = '{"kind":"ideal","vars":["x"],"gens":[[' + "9" * (limit + 1) + "]]}"
    code, out, err = run_cli(capsys, argv, document, monkeypatch)
    assert (code, out, err) == (2, "", f"error: a number in the document has more than {limit} digits\n")
    # a syntax error still names its position
    code, out, err = run_cli(capsys, argv, '{"kind": "ideal",\n  bad}', monkeypatch)
    assert (code, out) == (2, "")
    assert err == (
        "error: syntax error at line 2, column 3:"
        " Expecting property name enclosed in double quotes\n"
    )


def test_cli_undecodable_input_exit(tmp_path, capsys, monkeypatch):
    import io

    bad = b"\xff\xfe{}"
    path = tmp_path / "bad.json"
    path.write_bytes(bad)
    code, out, err = run_cli(capsys, ["dual", str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: cannot read {path}: not UTF-8 text (invalid start byte at byte 0)\n"
    # stdin as Python sets it up in UTF-8 mode, which escapes bad bytes
    stdin = io.TextIOWrapper(io.BytesIO(bad), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, err = run_cli(capsys, ["dual"])
    assert (code, out) == (2, "")
    assert err == "error: cannot read stdin: not UTF-8 text (invalid start byte at byte 0)\n"


def test_cli_usage_exit():
    with pytest.raises(SystemExit) as err:
        main(["betti"])  # missing required --method
    assert err.value.code == 2


def test_parse_rejects_boolean_exponents():
    with pytest.raises(DocumentError):
        parse_object({"kind": "ideal", "vars": ["x", "y"], "gens": [[True, 1]]})


@pytest.mark.parametrize(
    "document, argv, named",
    [
        # an exponent list with a negative entry
        (
            '{"kind":"ideal","vars":["x","y"],"gens":[[1,-1]]}',
            ["betti", "--method", "oracle"],
            "[1, -1]",
        ),
        # a field size that is not prime
        (TRI_IDEAL, ["betti", "--method", "oracle", "--field", "4"], "'4'"),
        # exponents and fields are decimal digits and nothing else
        (
            '{"kind":"ideal","vars":["x","y"],"gens":["x^"]}',
            ["betti", "--method", "oracle", "--json"],
            "bad exponent '' in 'x^'",
        ),
        (
            '{"kind":"ideal","vars":["x","y"],"gens":["x^1_0"]}',
            ["betti", "--method", "oracle", "--json"],
            "bad exponent '1_0'",
        ),
        (
            '{"kind":"ideal","vars":["x","y"],"gens":["x^+2"]}',
            ["betti", "--method", "oracle", "--json"],
            "bad exponent '+2'",
        ),
        (
            '{"kind":"ideal","vars":["x","y"],"gens":["x^\\u0663"]}',
            ["betti", "--method", "oracle", "--json"],
            "bad exponent '\u0663'",
        ),
        (TRI_IDEAL, ["invariants", "--field", "1_1"], "or a prime, got '1_1'"),
        # a declared variable that is not a vertex of the clutter
        (
            '{"kind":"clutter","vars":["x","y","z"],"edges":[["x","y"]]}',
            ["clutter", "bound", "--vertex", "z", "--edge", "x,y"],
            "'z'",
        ),
        (
            '{"kind":"clutter","vars":["x","y","z"],"edges":[["x","y"]]}',
            ["clutter", "minor", "--ops", "delete:x,delete:x"],
            "'x'",
        ),
        # a shedding bound below -1
        (TRI_IDEAL, ["decompose", "--k", "-5"], "-5"),
        # a negative node budget
        (TRI_IDEAL, ["decompose", "--k", "0", "--budget", "-5"], "-5"),
        # contracting y after x would leave the empty edge
        (
            '{"kind":"clutter","vars":["x","y"],"edges":[["x","y"]]}',
            ["clutter", "minor", "--ops", "contract:x,contract:y"],
            "'y'",
        ),
        # facets, edges and vertex lists that are not lists of names
        (
            '{"kind":"complex","vars":["x","y"],"facets":[4]}',
            ["decompose", "--k", "0"],
            "facet must be a list of variable names, got 4",
        ),
        (
            '{"kind":"complex","vars":["x","y"],"facets":[null]}',
            ["invariants"],
            "got None",
        ),
        (
            '{"kind":"complex","vars":["x","y"],"facets":[true]}',
            ["dual"],
            "got True",
        ),
        (
            '{"kind":"complex","vars":["x","y"],"facets":[["x"]],"vertices":4}',
            ["invariants"],
            "vertices must be a list of variable names, got 4",
        ),
        # a string is not read one character at a time
        (
            '{"kind":"complex","vars":["x","y"],"facets":["xy"]}',
            ["decompose", "--k", "0"],
            "got 'xy'",
        ),
        (
            '{"kind":"clutter","vars":["x","y","z"],"edges":["xy","yz"]}',
            ["clutter", "chordal"],
            "edge must be a list of variable names, got 'xy'",
        ),
        # Alexander duality of an ideal that is not squarefree
        (
            '{"kind":"ideal","vars":["x","y"],"gens":["x^2","y"]}',
            ["dual", "--json"],
            "squarefree",
        ),
    ],
    ids=[
        "negative-exponent",
        "field-not-prime",
        "exponent-empty",
        "exponent-underscore",
        "exponent-plus-sign",
        "exponent-arabic-indic-digit",
        "field-underscore",
        "bound-vertex-outside-clutter",
        "minor-vertex-deleted-twice",
        "k-below-minus-one",
        "negative-budget",
        "minor-contraction-empties-edge",
        "facet-number",
        "facet-null",
        "facet-boolean",
        "vertices-number",
        "facet-string",
        "edge-strings",
        "dual-not-squarefree",
    ],
)
def test_cli_rejects_bad_input_with_usage_exit(tmp_path, capsys, document, argv, named):
    path = tmp_path / "doc.json"
    path.write_text(document)
    where = 2 if argv[0] == "clutter" else 1
    code, out, err = run_cli(capsys, argv[:where] + [str(path)] + argv[where:])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--k", "0"],
        ["decompose", "--k", "-1", "--json"],
        ["betti", "--method", "recursive"],
    ],
)
def test_cli_deep_certificate_exits_undecided(tmp_path, capsys, argv):
    # (x, y)^300 sheds one generator per level, so its certificate is 300
    # levels deep; a lowered recursion limit keeps the run short.
    n = 300
    path = tmp_path / "deep.json"
    gens = [[i, n - i] for i in range(n + 1)]
    path.write_text(json.dumps({"kind": "ideal", "vars": ["x", "y"], "gens": gens}))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        code, out, err = run_cli(capsys, argv[:1] + [str(path)] + argv[1:])
    finally:
        sys.setrecursionlimit(limit)
    assert code == 3
    assert out == ""
    assert err.startswith("undecided: ") and err.count("\n") == 1
    assert "recursion limit" in err and "Traceback" not in err


def test_cli_verify_rejects_negative_count(capsys):
    code, out, err = run_cli(capsys, ["verify", "terao", "--seed", "1", "--count", "-3"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "-3" in err


def test_cli_verify_reports_a_counterexample(capsys, monkeypatch):
    from kdecomp import cli

    for flag in ([], ["--json"]):
        outcomes = iter([True, True, "forged instance"])

        def check(rng, ctx, memo):
            return next(outcomes)

        monkeypatch.setitem(cli._PROPERTIES, "terao", (check, 3, 1, "samples"))
        argv = ["verify", "terao", "--seed", "1", "--count", "5", *flag]
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and err == ""
        if flag:
            obj = json.loads(out)
            assert obj["verified"] == 2 and obj["counterexample"] == "forged instance"
        else:
            assert out == "counterexample after 2 instances: forged instance\n"


def test_cli_verify_lemma_h_reports_a_violation_as_a_counterexample(capsys, monkeypatch):
    from kdecomp import PropertyViolationError, clutters

    def forged(clutter, e, x):
        raise PropertyViolationError("forged violation")

    monkeypatch.setattr(clutters, "lemma_h_ideals", forged)
    argv = ["verify", "lemma-h", "--seed", "1", "--count", "3", "--json"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "property": "lemma-h",
        "seed": 1,
        "verified": 0,
        "counterexample": "forged violation",
    }


def test_cli_verify_gives_up_when_every_attempt_is_skipped(capsys, monkeypatch):
    from kdecomp import cli

    def check(rng, ctx, memo):
        return None

    monkeypatch.setitem(cli._PROPERTIES, "terao", (check, 3, 4, "forged samples"))
    code, out, err = run_cli(capsys, ["verify", "terao", "--seed", "1", "--count", "2"])
    assert (code, out, err) == (3, "", "undecided: too few forged samples\n")


@pytest.mark.parametrize("field", ["2147483648", "1000000000000000003"])
def test_cli_field_too_large_names_the_bound(capsys, monkeypatch, field):
    # a field of 2**31 or more is refused for size before any primality
    # test, and the message says so; smaller bad fields keep the generic one
    code, out, err = run_cli(
        capsys, ["invariants", "--field", field], TRI_IDEAL, monkeypatch
    )
    assert code == 2
    assert out == ""
    assert err == f"error: field must be a prime below 2147483648, got {field}\n"
    code, out, err = run_cli(
        capsys, ["invariants", "--field", "2147483646"], TRI_IDEAL, monkeypatch
    )
    assert code == 2
    assert err == "error: field must be 'rational' or a prime, got '2147483646'\n"


def test_certificate_text_of_any_depth():
    # a chain of n nodes down the deletion side, built without recursion;
    # the text is built from an explicit stack, so no recursion limit applies
    n = 3000
    obj = {"kind": "leaf", "generator": "y"}
    for a in range(n, 0, -1):
        link = {"kind": "leaf", "generator": f"m{a}"}
        obj = {"kind": "node", "u": "x", "deletion": obj, "link": link}
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        text = certificate_text(obj)
    finally:
        sys.setrecursionlimit(limit)
    lines = text.split("\n")
    assert len(lines) == 4 * n + 1
    assert lines[:3] == ["u = x", "  deletion:", "    u = x"]
    assert lines[2 * n - 1 : 2 * n + 3] == [
        " " * (4 * n - 2) + "deletion:",
        " " * (4 * n) + "leaf: y",
        " " * (4 * n - 2) + "link:",
        " " * (4 * n) + f"leaf: m{n}",
    ]
    assert lines[-2:] == ["  link:", "    leaf: m1"]

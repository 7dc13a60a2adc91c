"""Input documents and serialization for the command line.

Documents are JSON objects with an explicit variable list; the variable
order is part of the contract (it drives lexicographic tie-breaking).
Monomials are written either as strings like ``"x^2*y"`` or as exponent
lists; facets and edges as lists of variable names.  A variable name is
not empty or ``"1"``, has no surrounding whitespace and holds no ``*``,
``^`` or ``,``: monomial strings and the CLI's vertex lists could not
name it otherwise.  An integer of more digits than ``int`` reads (4300
by default) is refused like a syntax error.

An ideal's generators are read straight into exponent tuples, each
checked once, and :meth:`MonomialIdeal.from_exponents` refuses 1 and
minimalizes them; no monomial is built per generator.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

from .clutters import Clutter, MinorStep
from .complexes import SimplicialComplex
from .decomposition import ComplexCertificate, ComplexNode, IdealCertificate, IdealNode, _fold
from .errors import DocumentError
from .monomials import MonomialIdeal, VariableContext


@dataclass
class ParsedDocument:
    kind: str  # "ideal" | "complex" | "clutter"
    value: object
    warnings: list[str]


def exponents_from_string(text: str, ctx: VariableContext) -> tuple[int, ...]:
    """The exponent tuple of a monomial string like ``"x^2*y"`` or ``"1"``."""
    text = text.strip()
    exps = [0] * ctx.n
    if text == "1":
        return tuple(exps)
    for factor in text.split("*"):
        factor = factor.strip()
        if not factor:
            raise DocumentError(f"empty factor in monomial {text!r}")
        name, caret, power = factor.partition("^")
        e = 1
        if caret:
            try:  # decimal digits only; int() also refuses too many of them
                if not (power.strip().isascii() and power.strip().isdigit()):
                    raise ValueError
                e = int(power)
            except ValueError:
                raise DocumentError(f"bad exponent {power!r} in {text!r}") from None
        try:
            exps[ctx.index(name.strip())] += e
        except KeyError:
            raise DocumentError(f"unknown variable {name.strip()!r}") from None
    return tuple(exps)


def vertex_list(items, ctx: VariableContext, what: str) -> frozenset[int]:
    # A string would be read one character at a time.  An element that is
    # not a declared name, a number or a list included, is unknown below.
    if not isinstance(items, list):
        raise DocumentError(f"{what} must be a list of variable names, got {items!r}")
    out = set()
    for name in items:
        try:
            out.add(ctx.index(name))
        except KeyError:
            raise DocumentError(f"unknown variable {name!r} in {what}") from None
    return frozenset(out)


def parse_document(text: str) -> ParsedDocument:
    """Parse a document; syntax errors report line and column."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError:  # an integer too long for int(), see sys.set_int_max_str_digits
        raise DocumentError(
            f"a number in the document has more than {sys.get_int_max_str_digits()} digits"
        ) from None
    return parse_object(obj)


def parse_object(obj) -> ParsedDocument:
    if not isinstance(obj, dict):
        raise DocumentError("document must be a JSON object")
    kind = obj.get("kind")
    if kind not in ("ideal", "complex", "clutter"):
        raise DocumentError(f"unknown document kind {kind!r}")
    variables = obj.get("vars")
    if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
        raise DocumentError('"vars" must be a list of variable names')
    for name in variables:
        if name in ("", "1") or name != name.strip() or any(c in name for c in "*^,"):
            raise DocumentError(
                f"variable name {name!r} cannot be written in a document: a name must"
                " not be empty or '1', have surrounding whitespace, or hold '*', '^' or ','"
            )
    try:
        ctx = VariableContext(tuple(variables))
    except ValueError as exc:
        raise DocumentError(str(exc)) from None

    warnings: list[str] = []
    if kind == "ideal":
        raw = obj.get("gens")
        if not isinstance(raw, list):
            raise DocumentError('"gens" must be a list')
        gens = []
        for item in raw:
            if isinstance(item, str):
                gens.append(exponents_from_string(item, ctx))
            elif isinstance(item, list):
                # bool is a subclass of int, but true is not an exponent
                if len(item) != ctx.n or not all(
                    type(e) is int and e >= 0 for e in item
                ):
                    raise DocumentError(f"bad exponent list {item!r}")
                gens.append(tuple(item))
            else:
                raise DocumentError(f"bad generator {item!r}")
        ideal = MonomialIdeal.from_exponents(ctx, gens)
        if len(ideal.exps) != len(gens):
            warnings.append("duplicate or non-minimal generators were minimalized")
        return ParsedDocument("ideal", ideal, warnings)

    # complexes and clutters: a list of vertex sets, optionally more vertices
    if kind == "complex":
        key, build, reduced = "facets", SimplicialComplex.from_facets, "non-maximal facets"
    else:
        key, build, reduced = "edges", Clutter.from_edges, "non-minimal edges"
    raw = obj.get(key)
    if not isinstance(raw, list):
        raise DocumentError(f'"{key}" must be a list')
    sets = [vertex_list(s, ctx, key[:-1]) for s in raw]
    extra = obj.get("vertices")
    declared = vertex_list(extra, ctx, "vertices") if extra is not None else None
    try:
        value = build(ctx, sets, vertices=declared)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
    if len(value.facet_masks if kind == "complex" else value.edge_masks) != len(sets):
        warnings.append(f"duplicate or {reduced} were reduced")
    return ParsedDocument(kind, value, warnings)

def emit_object(value) -> dict:
    """Document form of a core value; parse(emit(v)) is semantically v, or
    a DocumentError when a variable name cannot be written (see above)."""
    if isinstance(value, MonomialIdeal):
        return {
            "kind": "ideal",
            "vars": list(value.ctx.names),
            "gens": [str(g) for g in value.gens],
        }
    if isinstance(value, SimplicialComplex):
        kind, key, sets = "complex", "facets", value.facets
    elif isinstance(value, Clutter):
        kind, key, sets = "clutter", "edges", value.edges
    else:
        raise TypeError(f"cannot emit {type(value).__name__}")
    names = value.ctx.set_names
    out = {
        "kind": kind,
        "vars": list(value.ctx.names),
        key: [names(s) for s in sorted(sets, key=sorted)],
    }
    if value.vertices != frozenset().union(*sets):
        out["vertices"] = names(value.vertices)
    return out


def ideal_certificate_object(cert: IdealCertificate) -> dict:
    return _fold(
        cert, IdealNode, lambda c, _: {"kind": "leaf", "generator": str(c.generator)},
        lambda c, d, l: {"kind": "node", "u": str(c.u), "deletion": d, "link": l},
    )


def complex_certificate_object(cert: ComplexCertificate, ctx: VariableContext) -> dict:
    names = ctx.set_names
    return _fold(
        cert, ComplexNode,
        lambda c, _: {"kind": "leaf", "facet": None if c.facet is None else names(c.facet)},
        lambda c, d, l: {"kind": "node", "sigma": names(c.sigma), "deletion": d, "link": l},
    )


def certificate_text(obj: dict) -> str:
    """Indented text form of an ideal or complex certificate object.

    Lines are built once, in pre-order from an explicit stack, so a
    certificate of any depth prints in time linear in its text."""
    lines: list[str] = []
    stack: list = [("", obj)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):  # a "deletion:" or "link:" line
            lines.append(item)
            continue
        pad, node = item
        if "generator" in node:
            lines.append(f"{pad}leaf: {node['generator']}")
        elif node["kind"] == "leaf":
            facet = node["facet"]
            body = "void" if facet is None else f"{{{','.join(facet)}}}"
            lines.append(f"{pad}leaf: {body}")
        else:
            sigma = node.get("sigma")
            head = f"u = {node['u']}" if sigma is None else f"sigma = {{{','.join(sigma)}}}"
            lines.append(pad + head)
            inner = pad + "    "
            stack += [(inner, node["link"]), pad + "  link:"]
            stack += [(inner, node["deletion"]), pad + "  deletion:"]
    return "\n".join(lines)


def trace_object(trace, ctx: VariableContext) -> list[dict]:
    return [{"op": s.kind, "vertex": ctx.names[s.vertex]} for s in trace]


def parse_ops(text: str, ctx: VariableContext) -> tuple[MinorStep, ...]:
    """Parse a minor recipe like "delete:x,contract:y"."""
    steps = []
    if not text.strip():
        return ()
    for part in text.split(","):
        op, _, name = part.strip().partition(":")
        if op not in ("delete", "contract") or not name:
            raise DocumentError(f"bad minor operation {part.strip()!r}")
        try:
            steps.append(MinorStep(op, ctx.index(name.strip())))
        except KeyError:
            raise DocumentError(f"unknown variable {name.strip()!r}") from None
    return tuple(steps)

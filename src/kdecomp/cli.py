"""Command line front end.

Subcommands: dual, betti, decompose, invariants, clutter (chordal, bound,
minor), verify.
Exit status: 0 success/verified, 1 definitive negative or property
violation (a counterexample is printed), 2 usage or parse error, or
stdout closed by its reader before all output was written (as `| head -1`
does on a long output; nothing more is printed then), 3 undecided (a
search or oracle budget or Python's recursion limit was hit).

Each subcommand's handler returns (exit status, its --json object or
None, its text form), and `_run` alone prints: the object as indented
JSON under --json, else the text form.  A None object (a negative answer
such as "not decomposable") prints the text form under --json too.  The
text form is a string, or a function that builds it when that costs
work, so a --json run never builds it.

Output is deterministic: identical inputs, flags and seeds produce
byte-identical output, and randomized commands require an explicit seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from random import Random

from . import clutters as cl
from . import complexes as cx
from . import decomposition as dec
from . import documents as doc
from . import generators as gen
from . import homology as ho
from . import resolution as res
from .errors import (
    BudgetExceededError,
    DocumentError,
    KdecompError,
    PropertyViolationError,
)
from .monomials import MonomialIdeal, VariableContext

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_UNDECIDED = 3


def _read_document(path: str) -> doc.ParsedDocument:
    name = "stdin" if path == "-" else path
    try:
        if path == "-":
            # stdin as bytes where it has them, so it is decoded as strictly
            # as a file: in UTF-8 mode its text layer escapes bad bytes instead
            raw = getattr(sys.stdin, "buffer", None)
            text = sys.stdin.read() if raw is None else raw.read().decode("utf-8")
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {name}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise DocumentError(
            f"cannot read {name}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    parsed = doc.parse_document(text)
    for warning in parsed.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return parsed


def _parse_field(text: str):
    if text == "rational":
        return None
    field = None
    try:  # decimal digits only; int() also refuses too many of them
        if not (text.isascii() and text.isdigit()):
            raise ValueError
        field = int(text)
        ho.check_field(field)
    except ValueError as exc:
        if field is not None and field >= ho.FIELD_BOUND:
            raise DocumentError(str(exc)) from None  # too large to test for primality
        raise DocumentError(f"field must be 'rational' or a prime, got {text!r}") from None
    return field


def _cmd_dual(args):
    parsed = _read_document(args.file)
    if parsed.kind == "ideal":
        try:
            out = cx.alexander_dual_ideal(parsed.value)
        except ValueError as exc:
            raise DocumentError(str(exc)) from None
    elif parsed.kind == "complex":
        out = cx.alexander_dual_complex(parsed.value)
    else:
        raise DocumentError("dual expects an ideal or a complex")
    return EXIT_OK, doc.emit_object(out), str(out)


def _cmd_betti(args):
    parsed = _read_document(args.file)
    if parsed.kind != "ideal":
        raise DocumentError("betti expects an ideal document")
    ideal: MonomialIdeal = parsed.value
    field = _parse_field(args.field)
    if args.method == "oracle":
        table = ho.oracle_ideal_table(ideal, field)
    elif args.method == "order":
        order = res.linear_quotients_order(ideal)
        if order is None:
            return EXIT_VIOLATION, None, "no order of linear quotients exists"
        table = res.betti_from_order(ideal, order)
    else:
        cert = dec.k_decomposable_ideal(ideal)
        if cert is None:
            return EXIT_VIOLATION, None, "the ideal is not decomposable; no certificate recursion"
        table = res.betti_recursive(cert)
    obj = {
        "method": args.method,
        "entries": [{"i": i, "j": j, "count": c} for (i, j), c in table.items()],
        "pd": table.pd,
        "reg": table.reg,
    }
    return EXIT_OK, obj, table.render


def _cmd_decompose(args):
    parsed = _read_document(args.file)
    k = args.k
    if k < -1:
        raise DocumentError(f"--k must be -1 (no bound) or at least 0, got {k}")
    if args.budget < 0:
        raise DocumentError(f"--budget must be at least 0, got {args.budget}")
    if parsed.kind == "ideal":
        if args.mode == "dual":
            raise DocumentError("dual mode applies to complexes only")
        cert = dec.k_decomposable_ideal(parsed.value, k, node_budget=args.budget)
    elif parsed.kind == "complex":
        cert = dec.k_decomposable_complex(
            parsed.value, k, mode=args.mode, node_budget=args.budget
        )
    else:
        raise DocumentError("decompose expects an ideal or a complex")
    if cert is None:
        return EXIT_VIOLATION, None, f"not {k}-decomposable" if k >= 0 else "not decomposable"
    if parsed.kind == "ideal":
        dec.verify_ideal_certificate(cert, k, parsed.value)
        obj = doc.ideal_certificate_object(cert)
    else:
        dec.verify_complex_certificate(parsed.value, cert, k)
        obj = doc.complex_certificate_object(cert, parsed.value.ctx)
    return EXIT_OK, obj, lambda: doc.certificate_text(obj)


def _cmd_invariants(args):
    parsed = _read_document(args.file)
    field = _parse_field(args.field)
    if parsed.kind == "ideal":
        ideal: MonomialIdeal = parsed.value
        zero_note = "conventions: reg(R/0) = 0 and pd(R/0) = 0"
    elif parsed.kind == "complex":
        ideal = ho.oracle_nonface_ideal(parsed.value)
        zero_note = "the nonface ideal is zero; conventions reg=pd=0 used"
    else:
        ideal = cl.edge_ideal(parsed.value)
        zero_note = "the edge ideal is zero; conventions reg=pd=0 used"
    reg, pd = ho.oracle_quotient_reg_pd(ideal, field)
    out: dict = {"kind": parsed.kind}
    if parsed.kind == "ideal" and not ideal.is_zero:  # I's own, read back from R/I's
        out["ideal"] = {"reg": reg + 1, "pd": pd - 1}
    out["quotient"] = {"reg": reg, "pd": pd}
    notes = [zero_note] if ideal.is_zero else []
    if notes:
        out["notes"] = notes
    elif ideal.is_squarefree:  # nonface and edge ideals always are
        out["bight"] = res.bight(ideal)
    lines = [
        f"{key}: reg = {val['reg']}, pd = {val['pd']}"
        for key, val in out.items() if key in ("ideal", "quotient")
    ]
    if "bight" in out:
        lines.append(f"bight = {out['bight']}")
    lines += [f"note: {note}" for note in notes]
    return EXIT_OK, out, "\n".join(lines)


def _read_clutter(args) -> cl.Clutter:
    parsed = _read_document(args.file)
    if parsed.kind != "clutter":
        raise DocumentError("this command expects a clutter document")
    return parsed.value


def _cmd_chordal(args):
    clutter = _read_clutter(args)
    chordal, witness = cl.is_chordal(clutter)
    obj = {"chordal": chordal}
    lines = [f"chordal: {'true' if chordal else 'false'}"]
    if witness is not None:
        obj["witness"] = doc.trace_object(witness, clutter.ctx)
        ops = ", ".join(f"{s['op']} {s['vertex']}" for s in obj["witness"])
        lines.append(f"witness minor: [{ops or 'the clutter itself'}]")
    return EXIT_OK if chordal else EXIT_VIOLATION, obj, "\n".join(lines)


def _cmd_minor(args):
    clutter = _read_clutter(args)
    ctx = clutter.ctx
    trace = doc.parse_ops(args.ops, ctx)
    remaining = set(clutter.vertices)
    for step in trace:
        if step.vertex not in remaining:
            name = ctx.names[step.vertex]
            raise DocumentError(f"{name!r} is not a vertex of the minor")
        remaining.remove(step.vertex)
    out = cl.apply_trace(clutter, trace)
    return EXIT_OK, doc.emit_object(out), str(out)


def _cmd_bound(args):
    clutter = _read_clutter(args)
    ctx = clutter.ctx
    try:
        x = ctx.index(args.vertex)
    except KeyError:
        raise DocumentError(f"unknown vertex {args.vertex!r}") from None
    if x not in clutter.vertices:
        raise DocumentError(f"{args.vertex!r} is not a vertex of the clutter")
    edge = doc.vertex_list([v.strip() for v in args.edge.split(",")], ctx, "edge")
    try:
        report = cl.chordal_reg_bound(clutter, x, edge)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
    obj = {
        "reg": report.reg,
        "identity": {
            "deletion": report.identity_deletion,
            "link": report.identity_link,
            "rhs": report.identity_rhs,
            "holds": report.identity_holds,
        },
        "bound": {
            "deletion_sum": report.bound_deletion,
            "link": report.identity_link,
            "rhs": report.bound_rhs,
            "holds": report.bound_holds,
        },
    }
    ident, bound = obj["identity"], obj["bound"]
    text = (
        f"reg R/I(H) = {obj['reg']}\n"
        f"identity rhs = max({ident['deletion']}, {ident['link']}) = {ident['rhs']}  [equal]\n"
        f"bound rhs = max({bound['deletion_sum']}, {bound['link']}) = {bound['rhs']}  [holds]"
    )
    return EXIT_OK, obj, text


# One instance of each `verify` property, drawn from the shared rng: None
# skips it, True verifies it, and a string describes a counterexample.


def _three_way(rng: Random, ctx: VariableContext, memo: dict):
    ideal = gen.random_monomial_ideal(rng, ctx, max_gens=10, max_exp=3)
    cert = dec.k_decomposable_ideal(ideal, 2, memo=memo)
    if cert is None:
        return None
    t_order = res.betti_from_order(ideal, res.order_from_certificate(cert))
    t_rec = res.betti_recursive(cert)
    t_oracle = ho.betti_koszul(ideal)
    return t_order == t_rec == t_oracle or f"Betti tables disagree on {ideal}"


def _terao(rng: Random, ctx: VariableContext, memo: dict):
    ideal = gen.random_monomial_ideal(rng, ctx, 8, 1)
    return res.terao_check(ideal) or f"duality identity fails on {ideal}"


def _ha(rng: Random, ctx: VariableContext, memo: dict):
    delta = gen.random_complex(rng, ctx, 6)
    sigma = gen.random_face(rng, delta)
    verts = delta.vertices
    reg = ho.oracle_complex_reg_pd(delta)[0]
    reg_del = ho.oracle_complex_reg_pd(cx.delete_face(delta, sigma), ambient=verts)[0]
    reg_link = ho.oracle_complex_reg_pd(cx.link(delta, sigma), ambient=verts - sigma)[0]
    holds = reg <= max(reg_del, reg_link + len(sigma))
    return holds or f"regularity bound fails on {delta} at {sorted(sigma)}"


def _regp(rng: Random, ctx: VariableContext, memo: dict):
    delta = gen.random_complex(rng, ctx, 7)
    cert = dec.k_decomposable_complex(delta, 0, memo=memo)
    if not isinstance(cert, dec.ComplexNode):  # not decomposable, or a simplex
        return None
    agree = res.reg_pd_complex(delta, cert) == ho.oracle_complex_reg_pd(delta)
    return agree or f"recursive reg/pd disagrees with the oracle on {delta}"


def _lemma_h(rng: Random, ctx: VariableContext, memo: dict):
    clutter = gen.random_clutter(rng, ctx, rng.randint(2, 7))
    if clutter.is_edgeless:
        return None
    edges = sorted(clutter.edges, key=sorted)
    e = edges[rng.randrange(len(edges))]
    x = sorted(e)[rng.randrange(len(e))]
    try:
        cl.lemma_h_ideals(clutter, e, x)
    except PropertyViolationError as exc:
        return str(exc)
    return True


# property: (one-instance check, variables, attempts allowed per instance,
# what the skipped attempts lack); terao and ha never skip an attempt
_PROPERTIES = {
    "three-way": (_three_way, 6, 200, "decomposable samples"),
    "terao": (_terao, 7, 1, "samples"),
    "ha": (_ha, 6, 1, "samples"),
    "regp": (_regp, 7, 500, "vertex-decomposable samples"),
    "lemma-h": (_lemma_h, 7, 200, "clutters with edges"),
}


def _cmd_verify(args):
    if args.count < 0:
        raise DocumentError(f"--count must be at least 0, got {args.count}")
    check, n, patience, lacking = _PROPERTIES[args.property]
    rng = Random(args.seed)
    ctx = VariableContext.of(*[f"x{i}" for i in range(1, n + 1)])
    memo: dict = {}  # shared by every instance of one run
    done = attempts = 0
    failure = None
    while done < args.count and failure is None:
        attempts += 1
        if attempts > patience * args.count:
            raise BudgetExceededError(f"too few {lacking}")
        outcome = check(rng, ctx, memo)
        if outcome is True:
            done += 1
        elif outcome is not None:
            failure = outcome
    obj = {
        "property": args.property,
        "seed": args.seed,
        "verified": done,
        "counterexample": failure,
    }
    if failure is None:
        text = f"verified {done} instances of {args.property} (seed {args.seed})"
    else:
        text = f"counterexample after {done} instances: {failure}"
    return EXIT_OK if failure is None else EXIT_VIOLATION, obj, text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdecomp",
        description="Decomposability, Betti tables and chordality for monomial ideals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name, func, help):
        p = subparsers.add_parser(name, help=help)
        p.add_argument("file", nargs="?", default="-", help="input document (default: stdin)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=func)
        return p

    command(sub, "dual", _cmd_dual, "Alexander dual of an ideal or complex")

    p = command(sub, "betti", _cmd_betti, "graded Betti table of an ideal")
    p.add_argument("--method", choices=("order", "recursive", "oracle"), required=True)
    p.add_argument("--field", default="rational", help="rational (default) or a prime")

    p = command(sub, "decompose", _cmd_decompose, "search for a decomposition certificate")
    p.add_argument("--k", type=int, required=True, help="bound on shedding size; -1 for any")
    p.add_argument("--mode", choices=("direct", "dual"), default="direct")
    p.add_argument(
        "--budget", type=int, default=dec.DEFAULT_NODE_BUDGET,
        help="search visits allowed, memo hits included (default %(default)s)",
    )

    p = command(sub, "invariants", _cmd_invariants, "regularity, projective dimension, big height")
    p.add_argument("--field", default="rational")

    p = sub.add_parser("clutter", help="clutter operations")
    csub = p.add_subparsers(dest="clutter_cmd", required=True)
    command(csub, "chordal", _cmd_chordal, "decide chordality; witness on failure")
    p = command(csub, "bound", _cmd_bound, "check the regularity identity and bound")
    p.add_argument("--vertex", required=True, help="the simplicial vertex")
    p.add_argument("--edge", required=True, help="comma-separated edge, e.g. x,y")
    p = command(csub, "minor", _cmd_minor, "apply delete/contract operations")
    p.add_argument("--ops", required=True, help='e.g. "delete:x,contract:y"')

    p = sub.add_parser("verify", help="randomized property runs")
    p.add_argument("property", choices=sorted(_PROPERTIES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = _run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout before the output was written, as
        # `| head -1` does on a long output.  What is left in the buffer
        # goes to os.devnull, so the interpreter's final flush is quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    return status


def _run(args) -> int:
    try:
        status, obj, text = args.func(args)
        # inside the try: json.dumps of a deep certificate may recurse too far
        if args.json and obj is not None:
            print(json.dumps(obj, indent=2))
        else:
            print(text if isinstance(text, str) else text())
        return status
    except BudgetExceededError as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except RecursionError:
        print("undecided: input too deep for Python's recursion limit", file=sys.stderr)
        return EXIT_UNDECIDED
    except PropertyViolationError as exc:
        print(f"violation: {exc}")
        return EXIT_VIOLATION
    except KdecompError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

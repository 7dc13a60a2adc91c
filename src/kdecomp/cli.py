"""Command line front end.

Subcommands: dual, betti, decompose, invariants, clutter, verify.
Exit status: 0 success/verified, 1 definitive negative or property
violation (a counterexample is printed), 2 usage or parse error, or
stdout closed by its reader before all output was written (as `| head -1`
does on a long output; nothing more is printed then), 3 undecided (a
search or oracle budget or Python's recursion limit was hit).

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
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise DocumentError(f"cannot read {path}: {exc.strerror}") from None
    parsed = doc.parse_document(text)
    for warning in parsed.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return parsed


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _parse_field(text: str):
    if text == "rational":
        return None
    try:
        field = int(text)
        ho.check_field(field)
    except ValueError:
        raise DocumentError(f"field must be 'rational' or a prime, got {text!r}") from None
    return field


def _cmd_dual(args) -> int:
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
    if args.json:
        _emit_json(doc.emit_object(out))
    else:
        print(out)
    return EXIT_OK


def _cmd_betti(args) -> int:
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
            print("no order of linear quotients exists")
            return EXIT_VIOLATION
        table = res.betti_from_order(ideal, order)
    else:
        cert = dec.k_decomposable_ideal(ideal)
        if cert is None:
            print("the ideal is not decomposable; no certificate recursion")
            return EXIT_VIOLATION
        table = res.betti_recursive(cert)
    if args.json:
        _emit_json(
            {
                "method": args.method,
                "entries": [
                    {"i": i, "j": j, "count": c} for (i, j), c in table.items()
                ],
                "pd": table.pd,
                "reg": table.reg,
            }
        )
    else:
        print(table.render())
    return EXIT_OK


def _cmd_decompose(args) -> int:
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
        print(f"not {k}-decomposable" if k >= 0 else "not decomposable")
        return EXIT_VIOLATION
    if parsed.kind == "ideal":
        dec.verify_ideal_certificate(cert, k, parsed.value)
        obj = doc.ideal_certificate_object(cert)
    else:
        dec.verify_complex_certificate(parsed.value, cert, k)
        obj = doc.complex_certificate_object(cert, parsed.value.ctx)
    if args.json:
        _emit_json(obj)
    else:
        print(doc.certificate_text(obj))
    return EXIT_OK


def _cmd_invariants(args) -> int:
    parsed = _read_document(args.file)
    field = _parse_field(args.field)
    notes: list[str] = []
    if parsed.kind == "ideal":
        ideal: MonomialIdeal = parsed.value
        out: dict = {"kind": "ideal"}
        if ideal.is_zero:
            notes.append("conventions: reg(R/0) = 0 and pd(R/0) = 0")
            out["quotient"] = {"reg": 0, "pd": 0}
        else:
            table = ho.oracle_ideal_table(ideal, field)
            out["ideal"] = {"reg": table.reg, "pd": table.pd}
            out["quotient"] = {"reg": table.reg - 1, "pd": table.pd + 1}
            if ideal.is_squarefree:
                out["bight"] = res.bight(ideal)
    else:
        if parsed.kind == "complex":
            ideal, name = cx.stanley_reisner_ideal(parsed.value), "nonface"
        else:
            ideal, name = cl.edge_ideal(parsed.value), "edge"
        reg, pd = ho.oracle_quotient_reg_pd(ideal, field)
        out = {"kind": parsed.kind, "quotient": {"reg": reg, "pd": pd}}
        if ideal.is_zero:
            notes.append(f"the {name} ideal is zero; conventions reg=pd=0 used")
        else:
            out["bight"] = res.bight(ideal)
    if notes:
        out["notes"] = notes
    if args.json:
        _emit_json(out)
    else:
        for key in ("ideal", "quotient"):
            if key in out:
                print(
                    f"{key}: reg = {out[key]['reg']}, pd = {out[key]['pd']}"
                )
        if "bight" in out:
            print(f"bight = {out['bight']}")
        for note in notes:
            print(f"note: {note}")
    return EXIT_OK


def _cmd_clutter(args) -> int:
    parsed = _read_document(args.file)
    if parsed.kind != "clutter":
        raise DocumentError("this command expects a clutter document")
    clutter = parsed.value
    ctx = clutter.ctx

    if args.clutter_cmd == "chordal":
        chordal, witness = cl.is_chordal(clutter)
        if args.json:
            out = {"chordal": chordal}
            if witness is not None:
                out["witness"] = doc.trace_object(witness, ctx)
            _emit_json(out)
        else:
            print(f"chordal: {'true' if chordal else 'false'}")
            if witness is not None:
                ops = ", ".join(f"{s.kind} {ctx.names[s.vertex]}" for s in witness)
                print(f"witness minor: [{ops or 'the clutter itself'}]")
        return EXIT_OK if chordal else EXIT_VIOLATION

    if args.clutter_cmd == "minor":
        trace = doc.parse_ops(args.ops, ctx)
        remaining = set(clutter.vertices)
        for step in trace:
            if step.vertex not in remaining:
                name = ctx.names[step.vertex]
                raise DocumentError(f"{name!r} is not a vertex of the minor")
            remaining.remove(step.vertex)
        out = cl.apply_trace(clutter, trace)
        if args.json:
            _emit_json(doc.emit_object(out))
        else:
            print(out)
        return EXIT_OK

    # bound
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
    except PropertyViolationError as exc:
        print(f"violation: {exc}")
        return EXIT_VIOLATION
    if args.json:
        _emit_json(
            {
                "reg": report.reg,
                "identity": {
                    "deletion": report.identity_deletion,
                    "link": report.identity_link,
                    "rhs": report.identity_rhs,
                    "holds": report.identity_holds,
                },
                "bound": {
                    "deletion_sum": report.bound_deletion,
                    "link": report.bound_link,
                    "rhs": report.bound_rhs,
                    "holds": report.bound_holds,
                },
            }
        )
    else:
        print(f"reg R/I(H) = {report.reg}")
        print(
            f"identity rhs = max({report.identity_deletion}, "
            f"{report.identity_link}) = {report.identity_rhs}  [equal]"
        )
        print(
            f"bound rhs = max({report.bound_deletion}, "
            f"{report.bound_link}) = {report.bound_rhs}  [holds]"
        )
    return EXIT_OK


def _verify_three_way(rng: Random, count: int):
    ctx = VariableContext.of(*[f"x{i}" for i in range(1, 7)])
    memo: dict = {}
    done = 0
    attempts = 0
    while done < count:
        attempts += 1
        if attempts > 200 * count:
            raise BudgetExceededError("too few decomposable samples")
        ideal = gen.random_monomial_ideal(rng, ctx, max_gens=10, max_exp=3)
        cert = dec.k_decomposable_ideal(ideal, 2, memo=memo)
        if cert is None:
            continue
        order = res.order_from_certificate(cert)
        t_order = res.betti_from_order(ideal, order)
        t_rec = res.betti_recursive(cert)
        t_oracle = ho.betti_koszul(ideal)
        if not (t_order == t_rec == t_oracle):
            return done, f"Betti tables disagree on {ideal}"
        done += 1
    return done, None


def _verify_terao(rng: Random, count: int):
    ctx = VariableContext.of(*[f"x{i}" for i in range(1, 8)])
    for i in range(count):
        ideal = gen.random_squarefree_ideal(rng, ctx, max_gens=8)
        if not res.terao_check(ideal):
            return i, f"duality identity fails on {ideal}"
    return count, None


def _verify_ha(rng: Random, count: int):
    ctx = VariableContext.of(*[f"x{i}" for i in range(1, 7)])
    for i in range(count):
        delta = gen.random_complex(rng, ctx, 6)
        sigma = gen.random_face(rng, delta)
        reg = ho.oracle_complex_reg_pd(delta)[0]
        reg_del = ho.oracle_complex_reg_pd(
            cx.delete_face(delta, sigma), ambient=delta.vertices
        )[0]
        reg_link = ho.oracle_complex_reg_pd(
            cx.link(delta, sigma), ambient=delta.vertices - sigma
        )[0]
        if reg > max(reg_del, reg_link + len(sigma)):
            return i, f"regularity bound fails on {delta} at {sorted(sigma)}"
    return count, None


def _verify_regp(rng: Random, count: int):
    ctx = VariableContext.of(*[f"x{i}" for i in range(1, 8)])
    memo: dict = {}
    done = 0
    attempts = 0
    while done < count:
        attempts += 1
        if attempts > 500 * count:
            raise BudgetExceededError("too few vertex-decomposable samples")
        delta = gen.random_complex(rng, ctx, 7)
        cert = dec.k_decomposable_complex(delta, 0, memo=memo)
        if cert is None or not isinstance(cert, dec.ComplexNode):
            continue
        reg, pd = res.reg_pd_complex(delta, cert)
        if (reg, pd) != ho.oracle_complex_reg_pd(delta):
            return done, f"recursive reg/pd disagrees with the oracle on {delta}"
        done += 1
    return done, None


def _verify_lemma_h(rng: Random, count: int):
    ctx = VariableContext.of(*[f"x{i}" for i in range(1, 8)])
    done = 0
    attempts = 0
    while done < count:
        attempts += 1
        if attempts > 200 * count:
            raise BudgetExceededError("too few clutters with edges")
        clutter = gen.random_clutter(rng, ctx, rng.randint(2, 7))
        if clutter.is_edgeless:
            continue
        edges = sorted(clutter.edges, key=sorted)
        e = edges[rng.randrange(len(edges))]
        x = sorted(e)[rng.randrange(len(e))]
        cl.lemma_h_ideals(clutter, e, x)  # raises on mismatch
        done += 1
    return done, None


_VERIFIERS = {
    "three-way": _verify_three_way,
    "terao": _verify_terao,
    "ha": _verify_ha,
    "regp": _verify_regp,
    "lemma-h": _verify_lemma_h,
}


def _cmd_verify(args) -> int:
    if args.count < 0:
        raise DocumentError(f"--count must be at least 0, got {args.count}")
    rng = Random(args.seed)
    runner = _VERIFIERS[args.property]
    done, failure = runner(rng, args.count)
    if args.json:
        _emit_json(
            {
                "property": args.property,
                "seed": args.seed,
                "verified": done,
                "counterexample": failure,
            }
        )
    else:
        if failure is None:
            print(f"verified {done} instances of {args.property} (seed {args.seed})")
        else:
            print(f"counterexample after {done} instances: {failure}")
    return EXIT_OK if failure is None else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdecomp",
        description="Decomposability, Betti tables and chordality for monomial ideals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_file(p):
        p.add_argument("file", nargs="?", default="-", help="input document (default: stdin)")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("dual", help="Alexander dual of an ideal or complex")
    add_file(p)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("betti", help="graded Betti table of an ideal")
    add_file(p)
    p.add_argument("--method", choices=("order", "recursive", "oracle"), required=True)
    p.add_argument("--field", default="rational", help="rational (default) or a prime")
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("decompose", help="search for a decomposition certificate")
    add_file(p)
    p.add_argument("--k", type=int, required=True, help="bound on shedding size; -1 for any")
    p.add_argument("--mode", choices=("direct", "dual"), default="direct")
    p.add_argument("--budget", type=int, default=dec.DEFAULT_NODE_BUDGET)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("invariants", help="regularity, projective dimension, big height")
    add_file(p)
    p.add_argument("--field", default="rational")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("clutter", help="clutter operations")
    csub = p.add_subparsers(dest="clutter_cmd", required=True)
    pc = csub.add_parser("chordal", help="decide chordality; witness on failure")
    add_file(pc)
    pc.set_defaults(func=_cmd_clutter)
    pc = csub.add_parser("bound", help="check the regularity identity and bound")
    add_file(pc)
    pc.add_argument("--vertex", required=True, help="the simplicial vertex")
    pc.add_argument("--edge", required=True, help="comma-separated edge, e.g. x,y")
    pc.set_defaults(func=_cmd_clutter)
    pc = csub.add_parser("minor", help="apply delete/contract operations")
    add_file(pc)
    pc.add_argument("--ops", required=True, help='e.g. "delete:x,contract:y"')
    pc.set_defaults(func=_cmd_clutter)

    p = sub.add_parser("verify", help="randomized property runs")
    p.add_argument("property", choices=sorted(_VERIFIERS))
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
        return args.func(args)
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

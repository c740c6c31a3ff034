"""Command-line front end: construction, generation, checks, decomposition.

Results are JSON on stdout (or a file named with --out); diagnostics go to
stderr.  Exit status 0 means success / all checks passed, 1 means a
verification failed or a check came out negative, 2 means a usage or I/O
error; an internal fault is not a usage error and ends in a traceback.
`verify` writes its report a chunk at a time as the sweep makes it, so an
internal fault part-way through the sweep leaves the chunks written so far (a
truncated document with no summary) before the traceback; every other
command writes its whole document at once.  Output is byte-identical for
identical flags and seed; --pretty only adds whitespace.  A request outside
a stated bound (--n at most `MAX_N`; for `verify`, --n an n of
`MAX_FAMILY_BOUND_BY_N` and --family-bound from 0 to its entry; --max-n from
1 to `MAX_SELFCHECK_N`; --trials from 1 to `MAX_TRIALS`) is refused with
exit status 2 before any graph is built; a `decompose` input with an
exponent of absolute value above `MAX_EXPONENT_BY_N[n]` is refused with exit
status 2 before it is decomposed.
"""
from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from contextlib import contextmanager

from .decompose import (
    NotAKClassError,
    canonical_basis,
    decompose,
    verify_free_module,
)
from .gkm import (
    check_axial_axioms,
    check_connection_involution,
    check_three_independence,
    derive_connection,
    is_k_class,
)
from .laurent import ParseError, _quoted
from .linalg import spans_full_lattice
from .quadric import (
    QuadricGraph,
    antipodal_product_class,
    monomial_class,
    thom_class,
    vertex_map_from_json_dict,
    vertex_map_to_json_dict,
)
from .relations import ALL_KINDS, ClassProvider, RelationStream, iter_checks


class UsageError(Exception):
    """Bad flag combinations or unreadable inputs (exit status 2)."""


def _from_input(build, *args, **kwargs):
    """build(*args, **kwargs) on values the user gave; its ValueError is a usage error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# Stated upper bounds.  At n = 8 a Thom class value already has up to 2^16
# terms per vertex.  A coefficient of a decomposed class grows polynomially
# in its largest exponent N, faster at larger n: the class M_1^N, a file of a
# few hundred bytes, has a coefficient of N(N - 1) terms at n = 1, and of
# 158,906 terms at n = 2, N = 64.  The exponent bound is set per n so that
# `decompose` of M_1^N at the bound takes about 2 s at most: 0.6, 2.1, 1.9,
# 2.0, 1.5, 1.2, 1.6 and 0.8 s for n = 1..8, measured on a 2-core machine
# with Python 3.11.
#
# `verify` with family bound b enumerates the sum over s <= b of
# C(2n + 1 + 3^(n+1), s) candidate families, checks each one with an empty
# intersection, and writes the report a chunk of records at a time.  The
# family bound is set per n to the largest b whose `verify` took at most
# 15 s (median) and 600 MB on the same machine, when the report was still
# built whole before it was written; b + 1 took over 15 s for n = 2..6, and
# b = 12 reaches every family at n = 1.  Written in chunks, `verify` at these
# bounds takes 0.2, 6.0, 7.0, 5.2, 1.4 and 9.6 s and peaks at 18, 19, 19, 20,
# 35 and 152 MB RSS for n = 1..6 (medians of 3, output to /dev/null; 0.1,
# 6.6, 10.4, 7.8, 1.9 and 12.4 s and up to 515 MB when built whole); at
# n = 6 the memory is the generator classes', not the report's.  At n = 7
# even b = 0 took over 25 s, so `verify` has no entry for n = 7 or 8.
# `selfcheck` sweeps every n up to --max-n at b = 3.
MAX_N = 8
MAX_EXPONENT_BY_N = {1: 256, 2: 64, 3: 26, 4: 19, 5: 16, 6: 15, 7: 15, 8: 14}
MAX_FAMILY_BOUND_BY_N = {1: 12, 2: 6, 3: 4, 4: 3, 5: 2, 6: 1}
MAX_SELFCHECK_N = max(n for n, bound in MAX_FAMILY_BOUND_BY_N.items() if bound >= 3)
MAX_TRIALS = 10_000


def _limits(args):
    """(flag, value, least value or None, greatest value) for each bounded
    flag of the command, in checking order.  A --n below 1 is refused by
    QuadricGraph itself, except by `verify`, which looks its n up in
    `MAX_FAMILY_BOUND_BY_N` first."""
    if args.command == "verify":
        yield "--n", args.n, 1, max(MAX_FAMILY_BOUND_BY_N)
        yield "--family-bound", args.family_bound, 0, MAX_FAMILY_BOUND_BY_N[args.n]
    elif args.command == "selfcheck":
        yield "--max-n", args.max_n, 1, MAX_SELFCHECK_N
        yield "--trials", args.trials, 1, MAX_TRIALS
    else:
        yield "--n", args.n, None, MAX_N


def _check_limits(args) -> None:
    for flag, value, least, limit in _limits(args):
        if least is not None and value < least:
            raise UsageError(f"{flag} must be at least {least}")
        if value > limit:
            raise UsageError(f"{flag} {_quoted(value)} exceeds the supported maximum {limit}")


def _dump(doc, pretty: bool) -> str:
    """The text written for the JSON document `doc`."""
    if pretty:
        return json.dumps(doc, indent=2) + "\n"
    return json.dumps(doc, separators=(",", ":")) + "\n"


@contextmanager
def _target(args):
    """The write function of the command's output: that of the --out file,
    opened on entry, or of stdout as it is on entry.  An OSError raised
    while the file is open, by opening, writing or closing it, is a usage
    error."""
    path = args.out
    if not path:
        yield sys.stdout.write
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            yield handle.write
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None


def _write(doc, args) -> None:
    text = _dump(doc, args.pretty)
    with _target(args) as write:
        write(text)


def _load_vertex_map(ctx: QuadricGraph, path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: malformed JSON: {exc}") from None
    except RecursionError:
        raise UsageError(f"{path}: JSON nested too deeply") from None
    except ValueError as exc:  # bytes that are not UTF-8, or an int literal too long to convert
        raise UsageError(str(exc)) from None
    try:
        return vertex_map_from_json_dict(ctx, doc)
    except ParseError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _parse_subset(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise UsageError(f"--subset expects comma-separated integers, got {_quoted(text)}") from None


def _cmd_graph(args) -> int:
    ctx = _from_input(QuadricGraph, args.n)
    _write(ctx.graph.to_json_dict(), args)
    return 0


def _cmd_gen(args) -> int:
    ctx = _from_input(QuadricGraph, args.n)
    kind = args.cls
    if kind == "basis":
        _write([vertex_map_to_json_dict(ctx, b) for b in canonical_basis(ctx).classes], args)
        return 0
    if kind in ("M", "Minv"):
        if args.vertex is None:
            raise UsageError(f"--class {kind} requires --vertex")
        vm = _from_input(monomial_class, ctx, args.vertex, inverted=(kind == "Minv"))
    elif kind in ("Delta", "F"):
        if args.subset is None:
            raise UsageError(f"--class {kind} requires --subset")
        provider = ClassProvider(ctx)
        vm = _from_input(provider.thom if kind == "Delta" else provider.supported, _parse_subset(args.subset))
    else:  # argparse allows only "X" here
        vm = antipodal_product_class(ctx)
    _write(vertex_map_to_json_dict(ctx, vm), args)
    return 0


def _cmd_check(args) -> int:
    ctx = _from_input(QuadricGraph, args.n)
    vm = _load_vertex_map(ctx, args.infile)
    report = is_k_class(ctx.graph, vm)
    _write(
        {
            "n": ctx.n,
            "is_k_class": report.ok,
            "failing_edges": [list(e) for e in report.failing_edges],
        },
        args,
    )
    return 0 if report.ok else 1


_RELATION_FLAG_TO_KINDS = {
    "all": ALL_KINDS,
    "1": ("product_vanishing",),
    "2": ("complete_set_split",),
    "3": ("peeling",),
    "4": ("antipodal_product",),
}


def _cmd_verify(args) -> int:
    # The target is opened before the sweep starts, and each chunk of the
    # report is written as soon as it is made, so at most one chunk of text
    # is held.  An internal fault part-way leaves the chunks written so far:
    # a truncated document without its summary, then a traceback.
    ctx = _from_input(QuadricGraph, args.n)
    with _target(args) as write:
        records = iter_checks(
            ctx,
            family_size_bound=args.family_bound,
            seed=args.seed,
            kinds=_RELATION_FLAG_TO_KINDS[args.relations],
        )
        stream = RelationStream(ctx.n, records)
        for chunk in stream.chunks(args.pretty):
            write(chunk)
    return 1 if stream.fail_count else 0


def _cmd_decompose(args) -> int:
    ctx = _from_input(QuadricGraph, args.n)
    vm = _load_vertex_map(ctx, args.infile)
    largest = max((abs(x) for v in ctx.vertices for e in vm[v].support() for x in e), default=0)
    bound = MAX_EXPONENT_BY_N[ctx.n]
    if largest > bound:
        raise UsageError(f"{args.infile}: exponent {_quoted(largest)} exceeds the supported maximum {bound}")
    try:
        result = decompose(ctx, vm)
    except NotAKClassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write(result.to_json_dict(ctx), args)
    return 0


def _selfcheck_one(n: int, trials: int, seed: int) -> dict:
    ctx = QuadricGraph(n)
    connection = derive_connection(ctx.graph)
    axioms = check_axial_axioms(ctx.graph, connection)
    three_independent = check_three_independence(ctx.graph)
    involution = check_connection_involution(ctx.graph, connection)
    effective = all(
        spans_full_lattice([ctx.graph.axial(*e) for e in ctx.graph.edges_from(v)], ctx.m)
        for v in ctx.vertices
    )

    sweep_failures = []
    checked = 0
    for v in ctx.vertices:
        for inverted in (False, True):
            checked += 1
            if not is_k_class(ctx.graph, monomial_class(ctx, v, inverted=inverted)):
                sweep_failures.append({"class": "Minv" if inverted else "M", "vertex": v})
    for members in ctx.admissible_subsets():
        checked += 1
        if not is_k_class(ctx.graph, thom_class(ctx, members)):
            sweep_failures.append({"class": "Delta", "subset": sorted(members)})

    outcomes = Counter(record.passed for record in iter_checks(ctx, seed=seed))
    module_report = verify_free_module(ctx, trials=trials, seed=seed)

    passed = (
        axioms.ok
        and three_independent
        and involution
        and effective
        and not sweep_failures
        and not outcomes[False]
        and module_report.ok
    )
    return {
        "n": n,
        "structural": {
            "axiom_violations": len(axioms.violations),
            "three_independent": three_independent,
            "connection_involution": involution,
            "effective": effective,
        },
        "k_class_sweep": {"checked": checked, "failures": sweep_failures},
        "relations": {"pass": outcomes[True], "fail": outcomes[False]},
        "free_module": module_report.to_json_dict(),
        "pass": passed,
    }


def _cmd_selfcheck(args) -> int:
    runs = [_selfcheck_one(n, args.trials, args.seed) for n in range(1, args.max_n + 1)]
    doc = {
        "max_n": args.max_n,
        "trials": args.trials,
        "seed": args.seed,
        "runs": runs,
        "pass": all(run["pass"] for run in runs),
    }
    _write(doc, args)
    return 0 if doc["pass"] else 1


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose refusals echo each argument through `_quoted`:
    exit status 2 and the usage block as argparse gives them, but a huge
    value is cut to a short prefix.  Short values are echoed unchanged."""

    def parse_known_args(self, args=None, namespace=None):
        self._given = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        for text in self._given:
            short = _quoted(text)
            if short != repr(text):  # argparse echoes a value either as repr(text) or as text
                message = message.replace(repr(text), short).replace(text, short)
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kquadric",
        description="Exact K-ring computations on even-dimensional quadric GKM graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    n_help = f"the quadric has complex dimension 2n (at most {MAX_N})"

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if name != "selfcheck":
            p.add_argument("--n", type=int, required=True, help=n_help)
        return p

    command("graph", _cmd_graph, "emit the labeled graph as JSON")

    p = command("gen", _cmd_gen, "emit a generator class (or the whole basis) as JSON")
    p.add_argument(
        "--class",
        dest="cls",
        required=True,
        choices=["M", "Minv", "Delta", "X", "F", "basis"],
    )
    p.add_argument("--vertex", type=int)
    p.add_argument("--subset", help="comma-separated vertex list, e.g. 2,4,6")

    p = command("check", _cmd_check, "test whether a vertex map file is a K-class")
    p.add_argument("--in", dest="infile", required=True)

    p = command("verify", _cmd_verify, "run the relation suite")
    p.add_argument("--relations", choices=list(_RELATION_FLAG_TO_KINDS), default="all")
    bounds = ", ".join(map(str, MAX_FAMILY_BOUND_BY_N.values()))
    family_help = f"largest exhaustive product-vanishing family, 0 to {bounds} for n = 1..{max(MAX_FAMILY_BOUND_BY_N)}"
    p.add_argument("--family-bound", type=int, default=3, help=family_help)
    p.add_argument("--seed", type=int, default=0)

    p = command("decompose", _cmd_decompose, "decompose a K-class file over the canonical basis")
    bounds = ", ".join(map(str, MAX_EXPONENT_BY_N.values()))
    in_help = f"a K-class JSON file, every |exponent| at most {bounds} for n = 1..{MAX_N}"
    p.add_argument("--in", dest="infile", required=True, help=in_help)

    p = command("selfcheck", _cmd_selfcheck, "run the full verification battery for n = 1..max-n")
    p.add_argument("--max-n", dest="max_n", type=int, required=True, help=f"1 to {MAX_SELFCHECK_N}")
    p.add_argument("--trials", type=int, default=25, help=f"1 to {MAX_TRIALS}")
    p.add_argument("--seed", type=int, default=0)

    for p in sub.choices.values():
        p.add_argument("--out", help="write the result to this file instead of stdout")
        p.add_argument("--pretty", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _check_limits(args)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())

"""Command-line surface.

Subcommands: construct, verify, bound, search, reproduce.  Structured
output is a canonical JSON run report (stable across runs; wall-clock
timings are deliberately left out of it), human tables go to stdout
with --format table.  ``--workers`` is still accepted and ignored: every
check runs in one thread.

Exit codes: 0 success / property holds, 1 property fails, 2 usage
error, 3 malformed input or a file that cannot be read or written, 4
budget exceeded.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__, bounds, bundle, explore, geom
from .build import (
    BIG_SETS_TABLE,
    build_char_p_pair,
    build_phi_family,
    build_phi_map,
    build_askew_pair,
    catalog_entry,
    catalog_family,
    catalog_names,
)
from .check import (
    Verdict,
    are_mutually_orthogoval,
    from_map,
    is_askew_pair,
    is_half_dimension_orthogoval,
)
from .errors import (
    AffineQ2Undefined,
    BudgetExceeded,
    MalformedBundle,
    OrthokitError,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_MALFORMED = 3
EXIT_BUDGET = 4


def run_report(command: str, inputs: dict, verdicts: dict,
               witnesses: dict = None) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "verdicts": verdicts,
        "witnesses": witnesses or {},
        "tool_version": __version__,
    }


def _emit(report: dict, fmt: str, table_lines: list[str]):
    if fmt == "json":
        sys.stdout.write(bundle.canonical_json(report))
    else:
        for line in table_lines:
            print(line)


def _jsonable(obj):
    """A witness with its tuples as lists; its values are Python ints."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


# ----------------------------------------------------------------------
# construct
# ----------------------------------------------------------------------

def cmd_construct(args) -> int:
    if args.builder == "phi-family":
        spaces = build_phi_family(args.q, args.r, args.w, args.n)
        prov = {"construction": "phi-family",
                "parameters": {"q": args.q, "r": args.r,
                               "w": args.w, "n": args.n}}
    elif args.builder == "catalog":
        spaces = catalog_family(args.name)
        entry = catalog_entry(args.name)
        prov = {"construction": "catalog",
                "parameters": {"name": args.name},
                "reference": entry.get("source", "")}
    elif args.builder == "char-p":
        s, t, _ = build_char_p_pair(args.p, args.n, args.k)
        spaces = [s, t]
        prov = {"construction": "char-p",
                "parameters": {"p": args.p, "n": args.n, "k": args.k}}
    else:  # askew
        s, t = build_askew_pair(args.k, args.q)
        spaces = [s, t]
        prov = {"construction": "askew",
                "parameters": {"k": args.k, "q": args.q}}
    bundle.write_bundle(args.out, spaces, prov)
    report = run_report(
        "construct",
        {"builder": args.builder, "out": args.out,
         "geometry": spaces[0].geometry.describe()},
        {"spaces": len(spaces), "written": True})
    _emit(report, args.format,
          [f"wrote {len(spaces)} spaces to {args.out}"])
    return EXIT_OK


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _verify_family(spaces, prop, k):
    if len(spaces) < 2:
        raise ValueError("need at least 2 spaces")
    if prop == "k-orthogoval":
        return are_mutually_orthogoval(spaces, k=k)
    for i in range(len(spaces)):
        for j in range(i + 1, len(spaces)):
            if prop == "askew":
                v = is_askew_pair(spaces[i], spaces[j])
            else:
                v = is_half_dimension_orthogoval(spaces[i], spaces[j])
            if not v:
                v.witness = dict(v.witness, pair=[i, j])
                return v
    return Verdict(True)


def cmd_verify(args) -> int:
    spaces, prov = bundle.read_bundle(args.bundle)
    verdict = _verify_family(spaces, args.property, args.k)
    g = spaces[0].geometry
    report = run_report(
        "verify",
        {"bundle": args.bundle, "property": args.property, "k": args.k,
         "spaces": len(spaces), "geometry": g.describe(),
         "provenance": prov},
        {"holds": bool(verdict)},
        {"witness": _jsonable(verdict.witness)} if not verdict else {})
    lines = [f"{args.property} (k={args.k}) on {len(spaces)} spaces: "
             f"{'PASS' if verdict else 'FAIL'}"]
    if not verdict:
        lines.append(f"witness: {_jsonable(verdict.witness)}")
    _emit(report, args.format, lines)
    return EXIT_OK if verdict else EXIT_FAIL


# ----------------------------------------------------------------------
# bound
# ----------------------------------------------------------------------

def cmd_bound(args) -> int:
    if args.kind == "affine":
        g = geom.affine(args.dim, args.q)
    else:
        g = geom.projective(args.dim, args.q)
    families = [bundle.read_bundle(p)[0] for p in args.bundles]
    rep = bounds.bound_report(g, families)
    d = rep.as_dict()
    report = run_report("bound",
                        {"kind": args.kind, "dim": args.dim, "q": args.q,
                         "bundles": list(args.bundles)},
                        d)
    lines = [
        f"{g!r}",
        f"  triple bound : {rep.triple_bound}",
        f"  johnson bound: {rep.johnson_bound}",
        f"  achieved     : {rep.achieved}",
        f"  slack        : {rep.slack}",
    ]
    _emit(report, args.format, lines)
    return EXIT_OK


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------

def cmd_search(args) -> int:
    if args.task == "exponent-scan":
        res = explore.exponent_scan(args.q, args.r, args.w_max)
        report = run_report("search",
                            {"task": args.task, "q": args.q, "r": args.r,
                             "w_max": args.w_max}, res)
        _emit(report, args.format,
              [f"orthomorphism exponents: {res['orthomorphisms']}",
               f"sufficient conditions  : {res['sufficient_conditions']}"])
        return EXIT_OK

    if args.task == "power-chain":
        n = explore.power_chain(args.q, args.r, args.w)
        report = run_report("search",
                            {"task": args.task, "q": args.q, "r": args.r,
                             "w": args.w}, {"chain_length": n})
        _emit(report, args.format, [f"chain length: {n}"])
        return EXIT_OK

    if args.task == "clique":
        g = geom.projective(args.r - 1, args.q)
        ws = [int(w) for w in args.w_list.split(",")]
        cands = [build_phi_map(g, w) for w in ws]
        res = explore.clique_search(cands, g, budget=args.budget)
        report = run_report(
            "search",
            {"task": args.task, "q": args.q, "r": args.r, "w_list": ws,
             "budget": args.budget},
            {"members": [ws[i] for i in res.members], "size": len(res.members),
             "nodes": res.nodes, "exhaustive": res.exhaustive})
        _emit(report, args.format,
              [f"best clique: {[ws[i] for i in res.members]} "
               f"({res.nodes} nodes, exhaustive={res.exhaustive})"])
        return EXIT_OK if res.exhaustive else EXIT_BUDGET

    # half-dim
    try:
        res = explore.half_dim_exhaustive(
            args.dim, args.q, budget=args.budget,
            max_certificates=args.max_certificates)
        code = EXIT_OK
    except BudgetExceeded as exc:
        res = exc.result
        code = EXIT_BUDGET
    if args.out and res.certificates:
        g = geom.affine(args.dim, args.q)
        spaces = [from_map(g, p, name=f"found[{i}]")
                  for i, p in enumerate(res.certificates)]
        bundle.write_bundle(args.out, spaces,
                            {"construction": "half-dim-search",
                             "parameters": {"dim": args.dim, "q": args.q}})
    report = run_report(
        "search",
        {"task": args.task, "dim": args.dim, "q": args.q,
         "budget": args.budget},
        {"certificates": len(res.certificates), "nodes": res.nodes,
         "exhaustive": res.exhaustive})
    _emit(report, args.format,
          [f"certificates: {len(res.certificates)}, nodes: {res.nodes}, "
           f"exhaustive: {res.exhaustive}"])
    return code


# ----------------------------------------------------------------------
# reproduce
# ----------------------------------------------------------------------

def _reproduce_big_sets(args):
    rows = []
    ok = True
    table = BIG_SETS_TABLE
    if args.rows:
        want = {tuple(int(x) for x in r.split(",")) for r in args.rows}
        unknown = want - {(q, r, w) for q, r, ws, _ in table for w in ws}
        if unknown:
            raise ValueError(
                "--rows names q,r,w triples not in the big-sets table: "
                + " ".join(",".join(map(str, t)) for t in sorted(unknown)))
        table = [(q, r, tuple(w for w in ws if (q, r, w) in want), n)
                 for q, r, ws, n in table]
        table = [row for row in table if row[2]]
    for q, r, ws, n in table:
        for w in ws:
            fam = build_phi_family(q, r, w, n)
            verdict = are_mutually_orthogoval(fam)
            good = bool(verdict) and len(fam) == n + 1
            ok = ok and good
            rows.append({"q": q, "r": r, "w": w, "n": n,
                         "spaces": len(fam), "pass": good})
    return ok, rows


def _reproduce_catalog(args):
    rows = []
    ok = True
    for name in catalog_names():
        fam = catalog_family(name)
        entry = catalog_entry(name)
        verdict = are_mutually_orthogoval(fam)
        good = bool(verdict) and len(fam) == entry["expected_size"]
        ok = ok and good
        row = {"name": name, "spaces": len(fam), "pass": good}
        if entry.get("resolved_modulus") is not None:
            row["resolved_modulus"] = entry["resolved_modulus"]
        rows.append(row)
    return ok, rows


def _reproduce_bounds(args):
    rows = []
    for q in (2, 3, 4, 5):
        for d in range(2, 7):
            for kind in ("affine", "projective"):
                g = (geom.affine if kind == "affine" else geom.projective)(d, q)
                try:
                    rows.append({"kind": kind, "dim": d, "q": q,
                                 "triple": bounds.triple_bound(g),
                                 "johnson": bounds.johnson_bound(g)})
                except AffineQ2Undefined:
                    rows.append({"kind": kind, "dim": d, "q": q,
                                 "triple": None, "johnson": None,
                                 "note": "undefined for affine q=2"})
    return True, rows


def _reproduce_askew(args):
    rows = []
    ok = True
    for k, q in ((2, 2), (2, 3), (2, 5), (4, 2), (4, 3), (6, 2),
                 (4, 4), (4, 5), (6, 3), (10, 2)):
        s, t = build_askew_pair(k, q)
        good = bool(is_askew_pair(s, t))
        ok = ok and good
        rows.append({"k": k, "q": q, "pass": good})
    return ok, rows


def _reproduce_half_dim(args):
    try:
        res = explore.half_dim_exhaustive(4, 2, budget=args.budget)
    except BudgetExceeded as exc:
        return None, [{"dim": 4, "q": 2, "nodes": exc.result.nodes,
                       "certificates": len(exc.result.certificates),
                       "exhaustive": False}]
    good = res.exhaustive and not res.certificates
    return good, [{"dim": 4, "q": 2, "nodes": res.nodes,
                   "certificates": len(res.certificates),
                   "exhaustive": res.exhaustive}]


def cmd_reproduce(args) -> int:
    runners = {
        "big-sets": _reproduce_big_sets,
        "catalog": _reproduce_catalog,
        "bounds": _reproduce_bounds,
        "askew": _reproduce_askew,
        "half-dim-nonexistence": _reproduce_half_dim,
    }
    if args.rows is not None and args.table != "big-sets":
        raise ValueError(f"--rows applies to big-sets only, not to {args.table}")
    if args.budget is not None and args.table != "half-dim-nonexistence":
        raise ValueError(f"--budget applies to half-dim-nonexistence only, "
                         f"not to {args.table}")
    ok, rows = runners[args.table](args)
    report = run_report("reproduce",
                        {"table": args.table, "budget": args.budget,
                         "rows": args.rows},
                        {"pass": ok, "rows": rows})
    lines = [f"{args.table}:"]
    for row in rows:
        lines.append("  " + "  ".join(f"{k}={v}" for k, v in row.items()))
    lines.append(f"overall: {'PASS' if ok else 'FAIL' if ok is not None else 'BUDGET'}")
    _emit(report, args.format, lines)
    if ok is None:
        return EXIT_BUDGET
    return EXIT_OK if ok else EXIT_FAIL


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def _int_at_least(least: int):
    """An argparse type: an integer no less than ``least``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < least:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {least}, got {text!r}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="orthokit",
        description="construct, verify, bound, and search families of "
                    "mutually orthogoval finite geometries")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--workers", type=int, default=1,
                       help="accepted and ignored")

    c = sub.add_parser("construct", help="build a family and write a bundle")
    cs = c.add_subparsers(dest="builder", required=True)
    p = cs.add_parser("phi-family")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p = cs.add_parser("catalog")
    p.add_argument("--name", required=True, help=", ".join(catalog_names()))
    p = cs.add_parser("char-p")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p = cs.add_parser("askew")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    for p in cs.choices.values():
        p.add_argument("--out", required=True)
        common(p)
    c.set_defaults(func=cmd_construct)

    v = sub.add_parser("verify", help="verify a property of a bundle")
    v.add_argument("bundle")
    v.add_argument("--property", choices=("k-orthogoval", "askew", "half-dim"),
                   default="k-orthogoval")
    v.add_argument("--k", type=int, default=2)
    common(v)
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bound", help="bound report for a geometry")
    b.add_argument("--kind", choices=("affine", "projective"), required=True)
    b.add_argument("--dim", type=int, required=True)
    b.add_argument("--q", type=int, required=True)
    b.add_argument("bundles", nargs="*",
                   help="certificate bundles to verify against the bounds")
    common(b)
    b.set_defaults(func=cmd_bound)

    s = sub.add_parser("search", help="run a search task")
    ss = s.add_subparsers(dest="task", required=True)
    p = ss.add_parser("exponent-scan")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--w-max", type=int, required=True)
    p = ss.add_parser("power-chain")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p = ss.add_parser("clique")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--w-list", required=True,
                   help="comma-separated exponents as clique candidates")
    p.add_argument("--budget", type=_int_at_least(0), default=None)
    p = ss.add_parser("half-dim")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--budget", type=_int_at_least(0), default=None)
    p.add_argument("--max-certificates", type=_int_at_least(1), default=1)
    p.add_argument("--out", default=None,
                   help="write found certificates as a bundle")
    for p in ss.choices.values():
        common(p)
    s.set_defaults(func=cmd_search)

    r = sub.add_parser("reproduce", help="re-run a whole result table")
    r.add_argument("table", choices=("big-sets", "catalog", "bounds",
                                     "askew", "half-dim-nonexistence"))
    r.add_argument("--budget", type=_int_at_least(0), default=None,
                   help="node budget for half-dim-nonexistence")
    r.add_argument("--rows", nargs="*", default=None,
                   help="restrict big-sets to q,r,w triples")
    common(r)
    r.set_defaults(func=cmd_reproduce)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; pass that through
        return int(exc.code or 0)
    try:
        return args.func(args)
    except MalformedBundle as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except BudgetExceeded as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except (OrthokitError, ValueError) as exc:
        code = getattr(exc, "code", "INVALID")
        print(f"error [{code}]: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands
-----------
analyze    full invariant report for one curve (catalog name or curve file)
corpus     recompute every catalog expectation and print a pass/fail matrix
table      print one graded invariant over a degree range
stability  stability verdict for one curve
freeness   freeness verdict (both decision methods) for one curve
torelli    reconstructability verdict for one curve

Exit codes: 0 success, 1 usage error, 2 verification or fixture failure
(a curve that is not reduced included), 3 an internal consistency check
failed (RelationViolated, NegativeH2), printed as "internal check failed:
<message>".  Any other ArithmeticError is a bug and ends in a traceback.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from .analysis import (BUNDLE_TABLES, MODULE_TABLES, UnknownInvariant,
                       build_report, check_expectations, table_values,
                       torelli_report)
from .curvecat import (CurveFileSyntax, VerificationFailed, catalog,
                       load_curve_file, lookup)
from .logbundle import NegativeH2, freeness, is_stable, stability_sufficient
from .singcat import SmoothCurve, alpha_curve
from .syzygy import NotReduced, RelationViolated

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_INTERNAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _resolve_curve(token: str):
    """A curve argument is first tried as a catalog name, then as a file."""
    try:
        return lookup(token)
    except KeyError:
        pass
    if not os.path.isfile(token):
        raise _UsageError(
            "%r is neither a catalog curve nor an existing file" % token)
    return load_curve_file(token)


def _emit_json(text: str, dest):
    if dest == "-":
        sys.stdout.write(text)
    else:
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_analyze(args) -> int:
    rec = _resolve_curve(args.curve)
    start = time.monotonic()
    report = build_report(rec, max_degree=args.max_degree)
    seconds = time.monotonic() - start
    if args.json is not None:
        _emit_json(report.to_json(), args.json)
    if args.json != "-":
        _print_report(report, seconds)
    return EXIT_OK


def _print_report(report, seconds: float) -> None:
    data = report.data
    cur, inv = data["curve"], data["invariants"]
    print("curve      %s  (degree %d, %s, %d component%s)"
          % (cur["name"], cur["degree"],
             "irreducible" if cur["irreducible"] else "reducible",
             cur["components"], "" if cur["components"] == 1 else "s"))
    if cur["singularities"]:
        descr = ", ".join(
            s["type"] + (" at " + s["point"] if s["point"] else "")
            for s in cur["singularities"])
        print("sings      %s" % descr)
    else:
        print("sings      none (smooth)")
    print("tau        %s" % inv["tau"])
    print("mdr        %s" % ("infinite (only trivial relations)"
                             if inv["mdr"] is None else inv["mdr"]))
    print("ct         %s" % ("infinite" if inv["ct"] is None else inv["ct"]))
    print("alpha      %s" % (inv["alpha"] if inv["alpha"] is not None
                             else "n/a (smooth)"))
    b = data["bundle"]
    print("bundle     c1=%d  c2=%d  chi=%d  discriminant=%d"
          % (b["c1"], b["c2"], b["chi"], b["discriminant"]))
    for name in MODULE_TABLES + BUNDLE_TABLES:
        t = data["tables"][name]
        print("%-10s %s" % (name + "[" + str(t["start"]) + "..]",
                            " ".join(str(v) for v in t["values"])))
    st = data["stability"]
    extra = ""
    if st["sufficient_criterion_applies"]:
        extra = "  (exponent-bound criterion applies)"
    print("stable     %s%s" % (st["stable"], extra))
    fr = data["freeness"]
    if fr["free"]:
        print("free       True  exponents=%s" % (tuple(fr["exponents"]),))
    else:
        print("free       False  (defect module nonzero%s)"
              % ("" if fr["witness_degree"] is None
                 else " in degree %d" % fr["witness_degree"]))
    to = data["torelli"]
    print("torelli    %s%s" % (to["status"],
                               "  witness m=%s" % to["witness_degree"]
                               if to["witness_degree"] is not None else ""))
    if to["detail"]:
        print("           %s" % to["detail"])
    gc = data["genus_check"]
    if gc is not None:
        print("genus      h1=%d vs sum=%d -> %s"
              % (gc["h1"], gc["genus_sum"],
                 "pass" if gc["passed"] else "FAIL"))
    print("time       %.3fs" % seconds)


def _corpus_worker(name: str):
    rec = lookup(name)
    return [(r.key, r.expected, r.computed, r.ok)
            for r in check_expectations(rec)]


def _cmd_corpus(args) -> int:
    records = list(catalog())
    if args.filter:
        records = [r for r in records if args.filter in r.tags]
    if args.max_degree is not None:
        records = [r for r in records if r.degree <= args.max_degree]
    names = [r.name for r in records]
    if args.parallel:
        with ProcessPoolExecutor() as pool:
            all_rows = list(pool.map(_corpus_worker, names))
    else:
        all_rows = [_corpus_worker(n) for n in names]

    failures = 0
    lines = []
    for name, rows in zip(names, all_rows):
        bad = [(k, e, c) for k, e, c, ok in rows if not ok]
        failures += len(bad)
        status = "PASS" if not bad else "FAIL"
        lines.append("%-22s %-4s %d/%d checks"
                     % (name, status, len(rows) - len(bad), len(rows)))
        for k, e, c in bad:
            lines.append("    %s: expected %s, computed %s" % (k, e, c))
    summary = ("%d curves, %d checks, %d failures"
               % (len(names), sum(len(r) for r in all_rows), failures))
    text = "\n".join(lines + [summary]) + "\n"
    sys.stdout.write(text)
    if args.json is not None:
        payload = {
            "schema": 1,
            "curves": [
                {"name": name,
                 "checks": [{"key": k, "expected": e, "computed": c, "ok": ok}
                            for k, e, c, ok in rows]}
                for name, rows in zip(names, all_rows)],
            "failures": failures,
        }
        _emit_json(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                   args.json)
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def _parse_range(text: str):
    if ".." not in text:
        raise _UsageError("range must look like a..b, got %r" % text)
    lo_s, hi_s = text.split("..", 1)
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise _UsageError("range endpoints must be integers, got %r" % text)
    if hi < lo:
        raise _UsageError("empty range %r" % text)
    return lo, hi


def _cmd_table(args) -> int:
    rec = _resolve_curve(args.curve)
    lo, hi = _parse_range(args.range)
    try:
        values = table_values(rec.f, args.invariant, lo, hi)
    except UnknownInvariant as e:
        raise _UsageError(str(e))
    for k, v in zip(range(lo, hi + 1), values):
        print("%d\t%d" % (k, v))
    return EXIT_OK


def _cmd_stability(args) -> int:
    rec = _resolve_curve(args.curve)
    stable = is_stable(rec.f)
    print("stable: %s" % stable)
    try:
        alpha = alpha_curve(rec.sings)
        applies = stability_sufficient(rec.degree, alpha)
        print("exponent-bound criterion (alpha=%s): %s"
              % (alpha, "applies" if applies else "inconclusive"))
    except SmoothCurve:
        print("exponent-bound criterion: n/a (smooth curve)")
    return EXIT_OK


def _cmd_freeness(args) -> int:
    rec = _resolve_curve(args.curve)
    verdict = freeness(rec.f)
    print("free: %s" % verdict.free)
    if verdict.exponents is not None:
        print("exponents: (%d, %d)" % verdict.exponents)
    print("defect module vanishes: %s" % verdict.defect_module_vanishes)
    print("split test: %s" % verdict.split_test)
    print("methods agree: %s" % verdict.methods_agree)
    if verdict.witness_degree is not None:
        print("nonzero defect witness degree: %d" % verdict.witness_degree)
    return EXIT_OK


def _cmd_torelli(args) -> int:
    rec = _resolve_curve(args.curve)
    info = torelli_report(rec)
    print("status: %s" % info["status"])
    if info["witness_degree"] is not None:
        print("witness degree: %d" % info["witness_degree"])
    if info["by_count"]:
        print("certified by singularity count")
    if info["obstruction"] is not None:
        ob = info["obstruction"]
        print("dimension obstruction: family %d > bundle family %d"
              % (ob["family_dim"], ob["bundle_family_dim"]))
    if info["detail"]:
        print("detail: %s" % info["detail"])
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="syzcurve",
                     description="Exact syzygy, stability, freeness, and "
                                 "reconstructability invariants of reduced "
                                 "plane curves.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add_curve_arg(p):
        p.add_argument("curve", help="catalog curve name or curve file path")

    p = sub.add_parser("analyze", help="full invariant report for one curve")
    add_curve_arg(p)
    p.add_argument("--json", nargs="?", const="-", metavar="PATH",
                   help="emit the report as JSON to PATH (or stdout)")
    p.add_argument("--max-degree", type=int, metavar="K",
                   help="cap the upper degree of the printed tables")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("corpus", help="recompute all catalog expectations")
    p.add_argument("--filter", metavar="TAG",
                   help="only curves carrying this tag")
    p.add_argument("--parallel", action="store_true",
                   help="evaluate catalog entries in parallel processes")
    p.add_argument("--max-degree", type=int, metavar="K",
                   help="skip curves of degree above K")
    p.add_argument("--json", nargs="?", const="-", metavar="PATH",
                   help="also emit the matrix as JSON to PATH (or stdout)")
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser("table", help="print one graded invariant over a range")
    p.add_argument("invariant", help="one of: " + ", ".join(
        MODULE_TABLES + BUNDLE_TABLES))
    add_curve_arg(p)
    p.add_argument("range", help="inclusive degree range, e.g. 0..3")
    p.set_defaults(func=_cmd_table)

    for name, func, desc in (
            ("stability", _cmd_stability, "stability verdict"),
            ("freeness", _cmd_freeness, "freeness verdict"),
            ("torelli", _cmd_torelli, "reconstructability verdict")):
        p = sub.add_parser(name, help=desc + " for one curve")
        add_curve_arg(p)
        p.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_help()
            return EXIT_USAGE
        return args.func(args)
    except _UsageError as e:
        sys.stderr.write("usage error: %s\n" % e)
        return EXIT_USAGE
    except CurveFileSyntax as e:
        sys.stderr.write("curve file error: %s\n" % e)
        return EXIT_VERIFY
    except VerificationFailed as e:
        sys.stderr.write("verification failed: %s\n" % e)
        return EXIT_VERIFY
    except NotReduced as e:
        sys.stderr.write("not reduced: %s\n" % e)
        return EXIT_VERIFY
    except (RelationViolated, NegativeH2) as e:
        sys.stderr.write("internal check failed: %s\n" % e)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

"""Cold timings of tau, mdr, freeness and build_report on the degree ladder
past the benchmark's reach.

The ladder curve of degree d is the line arrangement
x*y*z*(x + i*y + (i^2 + 1)*z) for i = 1 .. d - 3.  Each degree gets a fresh
polynomial, and tau, mdr and freeness run on it in that order in one
process, so later calls reuse what earlier ones kept on the polynomial.
build_report then runs cold on another freshly parsed copy; its column
shows the first 12 hex digits of the sha256 of the report's JSON.

    python3 scripts/ladder_timing.py 8 10 12

prints one line per degree with the four values and their seconds.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from syzcurve import (CurveRecord, build_report, freeness, mdr,  # noqa: E402
                      parse, tau)


def ladder_curve(d: int):
    lines = ["x", "y", "z"] + ["(x + %d*y + %d*z)" % (i, i * i + 1)
                               for i in range(1, d - 2)]
    return parse("*".join(lines))


def report_digest(d: int) -> str:
    """build_report of the degree-d ladder arrangement on a fresh
    polynomial: d lines, no declared singularities."""
    rec = CurveRecord("ladder_%d" % d, ladder_curve(d), False, d, None, ())
    text = build_report(rec).to_json()
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("degrees", nargs="+", type=int, metavar="D",
                        help="ladder degrees, each at least 3")
    args = parser.parse_args(argv)
    for d in args.degrees:
        if d < 3:
            parser.error("ladder degrees start at 3, got %d" % d)
        f = ladder_curve(d)
        cells = []
        for name, call in (("tau", lambda: tau(f)), ("mdr", lambda: mdr(f)),
                           ("freeness", lambda: freeness(f).free),
                           ("report", lambda: report_digest(d))):
            start = perf_counter()
            value = call()
            cells.append("%s=%s %.2fs" % (name, value, perf_counter() - start))
        print("d=%d  %s" % (d, "  ".join(cells)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

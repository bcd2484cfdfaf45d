"""Cold timings of tau, mdr and freeness on the degree ladder past the
benchmark's reach.

The ladder curve of degree d is the line arrangement
x*y*z*(x + i*y + (i^2 + 1)*z) for i = 1 .. d - 3.  Each degree gets a fresh
polynomial, and tau, mdr and freeness run on it in that order in one
process, so later calls reuse what earlier ones kept on the polynomial.

    python3 scripts/ladder_timing.py 8 10 12

prints one line per degree with the three values and their seconds.
"""
from __future__ import annotations

import argparse
import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from syzcurve import freeness, mdr, parse, tau  # noqa: E402


def ladder_curve(d: int):
    lines = ["x", "y", "z"] + ["(x + %d*y + %d*z)" % (i, i * i + 1)
                               for i in range(1, d - 2)]
    return parse("*".join(lines))


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
        for name, fn in (("tau", tau), ("mdr", mdr),
                         ("freeness", lambda g: freeness(g).free)):
            start = perf_counter()
            value = fn(f)
            cells.append("%s=%s %.2fs" % (name, value, perf_counter() - start))
        print("d=%d  %s" % (d, "  ".join(cells)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

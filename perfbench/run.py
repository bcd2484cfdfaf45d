#!/usr/bin/env python3
"""Benchmark of the syzcurve package, driven through its public API.

Run from the repository root:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 40 --trace 0

Workloads (see README.md): `catalog`, `ladder`, `session`.  Every workload
reports the same end-to-end metrics with --trace 0 and the same per-layer
metrics with --trace 1; BENCHMARK.json at the repository root lists both.
A traced run makes one untraced and one traced round over the same inputs.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the run's context
(Python version, nproc, seed, sample counts, failed_ratio and the metrics
that are not in BENCHMARK.json).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback
from math import comb
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
DIGESTS = os.path.join(HERE, "catalog_digests.json")
WORKLOADS = ("catalog", "ladder", "session")
HARD_LIMIT_S = 165.0     # a run must exit within 180 s
SETUP_SAMPLES = 9
CATALOG_WARM = 30        # warm calls after each cold catalog call
LADDER_WARM = 100        # warm tau -> mdr -> freeness after each cold rung
SESSION_REPEATS = 30     # repeat passes after a session's first pass

sc = None       # the syzcurve package, imported by load_package()
inputs = None
tracer = None


def load_package():
    """Import syzcurve from this checkout's src/ and the benchmark's own
    modules.  Exits with status 1 when the checkout holds no package."""
    global sc, inputs, tracer
    if not os.path.isfile(os.path.join(SRC, "syzcurve", "__init__.py")):
        sys.exit("perfbench: no syzcurve package under %s" % SRC)
    sys.path.insert(0, SRC)
    import syzcurve
    if not os.path.abspath(syzcurve.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: syzcurve imported from %s, not from %s"
                 % (syzcurve.__file__, SRC))
    import inputs as inputs_mod
    import tracer as tracer_mod
    sc, inputs, tracer = syzcurve, inputs_mod, tracer_mod


def build_records(workload: str, seed: int):
    """The set-up a user pays before the first answer: the catalog and the
    workload's curves."""
    recs = sc.catalog()
    if workload == "catalog":
        return list(recs)
    if workload == "ladder":
        return inputs.ladder_rungs(seed)
    return inputs.session_records(seed)


def setup_probe(workload: str, seed: int) -> None:
    start = perf_counter()
    load_package()
    build_records(workload, seed)
    print(repr(perf_counter() - start))


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# a run: counts, failures, peak memory, and children forked after set-up so
# that nothing computed for one sample reaches another

class Run:
    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = time.monotonic()
        self.hard_deadline = self.start + HARD_LIMIT_S
        self.attempted = 0
        self.failures: list = []
        self.child_rss_kb = 0

    def fail(self, what: str, count: int = 1) -> None:
        self.failures.extend([what] * count)

    def fits(self, began: float, last: float) -> bool:
        """Whether another unit of `last` seconds fits in the run."""
        now = time.monotonic()
        return (now - began + last <= self.seconds
                and now + last <= self.hard_deadline)

    def peak_rss_mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return max(own, self.child_rss_kb) / 1024.0

    def in_child(self, fn):
        """Run fn() in a forked child; return its JSON payload, or a dict
        with an "error" key if it raised, died or ran out of time."""
        sys.stdout.flush()
        sys.stderr.flush()
        rfd, wfd = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(rfd)
                try:
                    payload = {"value": fn()}
                except Exception:
                    payload = {"error": traceback.format_exc(limit=4)}
                view = memoryview(json.dumps(payload).encode())
                while view:
                    view = view[os.write(wfd, view):]
            finally:
                os._exit(0)
        os.close(wfd)
        chunks, timed_out = [], False
        try:
            while True:
                remaining = self.hard_deadline - time.monotonic()
                if remaining <= 0:
                    timed_out = True
                    break
                if select.select([rfd], [], [], remaining)[0]:
                    chunk = os.read(rfd, 1 << 16)
                    if not chunk:
                        break
                    chunks.append(chunk)
        finally:
            os.close(rfd)
            if timed_out:
                os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        if timed_out:
            return {"error": "timed out"}
        try:
            return json.loads(b"".join(chunks))
        except ValueError:
            return {"error": "child ended with status %d" % status}


# ---------------------------------------------------------------------------
# units: one forked child each.  A unit's work() makes one cold pass over its
# curves and then warm passes, the same calls again in the same process.  It
# returns timed samples [item, part, seconds], part being "check" or
# "report", prefixed "warm_" on warm passes, and the value of each pass.
# answer() turns a pass's value into JSON in the child, outside the timing;
# verify() checks the cold pass's answer in the parent and returns a message
# per failed operation.

class Unit:
    def __init__(self, label, work, answer, verify, calls):
        self.label = label
        self.work = work
        self.answer = answer
        self.verify = verify
        self.calls = calls      # library calls in one pass


def report_digest(report) -> str:
    """sha256 of the report JSON with the wall-clock timing removed."""
    data = json.loads(report.to_json())
    data.pop("timing", None)
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def check_answer(results) -> list:
    return [[r.key, bool(r.ok)] for r in results]


def expectations_hold(rec, answer) -> bool:
    return ([k for k, _ in answer] == sorted(rec.expected)
            and all(v for _, v in answer))


def catalog_units(recs, digests) -> list:
    """One cold check_expectations and one cold build_report per curve."""
    units = []
    for rec in recs:
        for kind in ("check", "report"):
            call = (sc.check_expectations if kind == "check"
                    else sc.build_report)
            to_json = check_answer if kind == "check" else report_digest

            def work(rec=rec, kind=kind, call=call):
                samples, values = [], []
                for i in range(1 + CATALOG_WARM):
                    start = perf_counter()
                    values.append(call(rec))
                    samples.append([rec.name, ("warm_" if i else "") + kind,
                                    perf_counter() - start])
                return samples, values

            if kind == "check":
                def verify(answer, rec=rec):
                    if expectations_hold(rec, answer):
                        return []
                    return ["check %s: %s" % (rec.name, answer)]
            else:
                def verify(answer, rec=rec):
                    if answer == digests.get(rec.name):
                        return []
                    return ["report %s: digest %s differs from the stored "
                            "one" % (rec.name, answer)]
            units.append(Unit("%s %s" % (kind, rec.name), work, to_json,
                              verify, 1))
    return units


def ladder_units(rungs) -> list:
    """One tau -> mdr -> freeness session per rung; tau and mdr are its
    check part, freeness its report part."""
    units = []
    for d, lines, f in rungs:
        item = "d%d" % d

        def work(f=f, item=item):
            samples, values = [], []
            for i in range(1 + LADDER_WARM):
                prefix = "warm_" if i else ""
                t0 = perf_counter()
                tau = sc.tau(f)
                r = sc.mdr(f)
                t1 = perf_counter()
                v = sc.freeness(f)
                t2 = perf_counter()
                samples += [[item, prefix + "check", t1 - t0],
                            [item, prefix + "report", t2 - t1]]
                values.append((tau, r, v))
            return samples, values

        def answer(value):
            tau, r, v = value
            return [tau, r, v.free, v.methods_agree, v.split_test]

        def verify(answer, d=d, lines=lines):
            want_tau = comb(d, 2)
            want_split = inputs.split_identity(d, want_tau, d - 2)
            if (inputs.is_generic(lines) and not want_split
                    and answer == [want_tau, d - 2, False, True, want_split]):
                return []
            return ["ladder d=%d %s: tau, mdr, free, agree, split = %s"
                    % (d, lines, answer)]

        units.append(Unit("ladder d=%d" % d, work, answer, verify, 3))
    return units


def session_answer(value) -> list:
    out = []
    for verified, results, report in value:
        data = report.data
        genus = data.get("genus_check")
        out.append({"passed": bool(verified.passed),
                    "results": check_answer(results),
                    "digest": report_digest(report),
                    "tau": data["invariants"]["tau"],
                    "mdr": data["invariants"]["mdr"],
                    "free": data["freeness"]["free"],
                    "h1": genus["h1"] if genus else None})
    return out


def session_units(records) -> list:
    """One long-lived process: a first pass of verify_record,
    check_expectations and build_report over every record, then identical
    repeat passes.  verify_record and check_expectations are the check
    part, build_report the report part."""

    def work():
        samples, values = [], []
        for i in range(1 + SESSION_REPEATS):
            prefix = "warm_" if i else ""
            one = []
            for rec, _ in records:
                t0 = perf_counter()
                verified = sc.verify_record(rec)
                results = sc.check_expectations(rec)
                t1 = perf_counter()
                report = sc.build_report(rec)
                t2 = perf_counter()
                samples += [[rec.name, prefix + "check", t1 - t0],
                            [rec.name, prefix + "report", t2 - t1]]
                one.append((verified, results, report))
            values.append(one)
        return samples, values

    def verify(answer):
        out = []
        for (rec, own), got in zip(records, answer):
            if not got["passed"]:
                out.append("session %s: verify_record failed" % rec.name)
            if not expectations_hold(rec, got["results"]):
                out.append("session %s: expectations %s"
                           % (rec.name, got["results"]))
            wrong = {k: got.get(k) for k in ("tau", "mdr", "free")
                     if k in own and got.get(k) != own[k]}
            if "genus_h1" in own and got["h1"] != own["genus_h1"]:
                wrong["h1"] = got["h1"]
            if wrong:
                out.append("session %s: %s, expected %s"
                           % (rec.name, wrong, own))
        return out

    return [Unit("session", work, session_answer, verify, 3 * len(records))]


def make_units(workload, setup) -> list:
    if workload == "catalog":
        with open(DIGESTS) as fh:
            return catalog_units(setup, json.load(fh))
    if workload == "ladder":
        return ladder_units(setup)
    return session_units(setup)


def child_body(unit, trace):
    """What a unit's child runs: the timed work, then its answers."""
    if trace is not None:
        trace.begin_op()
    start = perf_counter()
    samples, values = unit.work()
    wall = perf_counter() - start
    agg = trace.end_op(wall) if trace is not None else None
    cold = unit.answer(values[0])
    differs = sum(unit.answer(v) != cold for v in values[1:])
    return {"samples": samples, "cold": cold, "warm": len(values) - 1,
            "warm_differs": differs, "wall": wall, "agg": agg}


def run_units(run, units, seed, trace=None, rounds=None):
    """Rounds over all units, each round in a seeded order, while they fit
    in the run (the first round always runs whole).  Returns the samples
    {item: {part: [seconds]}}, the number of units run, the summed unit
    wall time and the merged trace aggregate."""
    samples: dict = {}
    total: dict = {}
    wall = 0.0
    last: dict = {}
    began = time.monotonic()
    done = ran = 0
    while rounds is None or done < rounds:
        order = list(range(len(units)))
        random.Random("order:%d:%d" % (seed, done)).shuffle(order)
        done += 1
        for idx in order:
            if done > 1 and not run.fits(began, last[idx]):
                return samples, ran, wall, total
            unit = units[idx]
            ran += 1
            t0 = time.monotonic()
            payload = run.in_child(lambda: child_body(unit, trace))
            last[idx] = time.monotonic() - t0
            if "value" not in payload:
                run.attempted += unit.calls
                run.fail(unit.label + ": " + payload["error"], unit.calls)
                continue
            out = payload["value"]
            run.attempted += unit.calls * (1 + out["warm"])
            for what in unit.verify(out["cold"]):
                run.fail(what)
            if out["warm_differs"]:
                run.fail(unit.label + ": a warm pass differs from the cold "
                         "one", unit.calls * out["warm_differs"])
            for item, part, secs in out["samples"]:
                samples.setdefault(item, {}).setdefault(part, []).append(secs)
            wall += out["wall"]
            if out["agg"] is not None:
                tracer.merge(total, out["agg"])
    return samples, ran, wall, total


def summarize(samples) -> dict:
    """End-to-end times from per-item medians over all samples of a run."""
    med = {item: {part: statistics.median(v) for part, v in parts.items()}
           for item, parts in samples.items()}
    def total(*parts):
        return sum(m.get(part, 0.0) for m in med.values() for part in parts)

    return {"cold_s": (total("check", "report"), "s"),
            "cold_report_s": (total("report"), "s"),
            "warm_s": (total("warm_check", "warm_report"), "s")}


# ---------------------------------------------------------------------------
# running a workload

def end_to_end(seed, run, units):
    samples, ran, _, _ = run_units(run, units, seed)
    metrics = summarize(samples)
    metrics["peak_rss_mb"] = (run.peak_rss_mb(), "MB")
    counts = {item: {part: len(v) for part, v in parts.items()}
              for item, parts in samples.items()}
    return metrics, {"units_run": ran, "samples": counts}


def traced(seed, run, units):
    """One untraced and one traced round over the same inputs."""
    trace = tracer.Tracer()
    _, _, untraced_wall, _ = run_units(run, units, seed, None, 1)
    trace.install()
    try:
        _, _, traced_wall, total = run_units(run, units, seed, trace, 1)
    finally:
        trace.uninstall()
    if not total:
        return {}, {}
    overhead = traced_wall - untraced_wall
    return (tracer.layer_metrics(total, trace.found, overhead),
            {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall})


def manifest_metrics(trace: int) -> list:
    with open(MANIFEST) as fh:
        manifest = json.load(fh)
    return [m["name"] for m in manifest["per_layer" if trace
                                        else "end_to_end"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    load_package()
    wanted = manifest_metrics(args.trace)
    run = Run(args.seconds)
    units = make_units(args.workload, build_records(args.workload,
                                                    args.seed))
    if args.trace:
        metrics, samples = traced(args.seed, run, units)
    else:
        setup_s = measure_setup(args.workload, args.seed)
        metrics, samples = end_to_end(args.seed, run, units)
        metrics["setup_s"] = (setup_s, "s")
    failed = len(run.failures)
    attempted = max(run.attempted, 1)
    for what in run.failures[:20]:
        print("FAILED " + what, file=sys.stderr)
    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "samples": samples, "failed_ratio": failed / attempted,
        "wall_s": time.monotonic() - run.start,
        "other_metrics": {name: value for name, (value, _) in
                          sorted(metrics.items()) if name not in wanted},
    }
    if "tracing_overhead_s" in metrics:
        info["tracing_overhead_s"] = metrics["tracing_overhead_s"][0]
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name][0],
                           "unit": metrics[name][1]}
                    for name in wanted if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""
import ast
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import json  # noqa: E402

import syzcurve as sc  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def _describe(rungs):
    return [(d, lines, str(f)) for d, lines, f in rungs]


def test_same_seed_same_curves():
    assert _describe(inputs.ladder_rungs(7)) == _describe(
        inputs.ladder_rungs(7))
    assert _describe(inputs.ladder_rungs(7)) != _describe(
        inputs.ladder_rungs(8))
    first = [(r.name, str(r.f), r.sings) for r, _ in inputs.session_records(3)]
    again = [(r.name, str(r.f), r.sings) for r, _ in inputs.session_records(3)]
    assert first == again


def test_arrangements_are_generic():
    for seed in range(20):
        for d, lines, f in inputs.ladder_rungs(seed):
            assert len(lines) == d == f.degree
            assert all(-3 <= c <= 3 for line in lines for c in line)
            n = len(lines)
            assert all(inputs.det3(lines[i], lines[j], lines[k]) != 0
                       for i in range(n) for j in range(i + 1, n)
                       for k in range(j + 1, n))


def test_generic_check_rejects_special_position():
    assert not inputs.is_generic([(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    assert not inputs.is_generic([(1, 2, 3), (2, 4, 6)])
    assert not inputs.is_generic([(0, 0, 0)])
    assert inputs.is_generic([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])


def test_session_nodes_lie_on_the_curve():
    for rec, own in inputs.session_records(5):
        if "genus_h1" in own:
            assert len(rec.sings) == own["tau"]
            assert sc.verify_record(rec).passed


def test_self_time_of_synthetic_span_tree():
    spans = [
        ("a", -1, 0.0, 10.0),
        ("b", 0, 1.0, 4.0),     # overlaps c; the union counts once
        ("c", 0, 3.0, 6.0),
        ("d", 1, 2.0, 3.0),
        ("e", 0, 9.0, 12.0),    # clipped to a's end
        ("f", -1, 20.0, 21.5),
    ]
    assert tracer.self_times(spans) == [4.0, 2.0, 3.0, 1.0, 3.0, 1.5]


def test_tracer_rebinds_copied_names_and_restores_them():
    f = inputs.line_product([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    original = sc.syzygy.rank
    trace = tracer.Tracer()
    trace.install()
    try:
        assert "exactlin.rank" in trace.found
        assert "ring3.dim_graded" not in trace.found
        trace.begin_op()
        assert sc.mdr(f) == 2
        agg = trace.end_op(1.0)
    finally:
        trace.uninstall()
    assert sc.syzygy.rank is original
    assert agg["calls"]["exactlin.rank"] > 0
    assert agg["calls"]["syzygy.mdr"] == 1
    assert agg["cells"] > 0
    top = sum(end - start for _, parent, start, end in trace.spans
              if parent < 0)
    assert abs(sum(agg["modules"].values()) - top) < 1e-9


def test_absent_function_is_left_out():
    total = tracer.merge({}, {
        "calls": {}, "self_s": {}, "modules": {}, "wall_s": 1.0,
        "unwrapped_s": 1.0, "cells": 0, "kernel_bits": 0, "grad_builds": 0,
        "grad_distinct": 0, "syzygy_entries": 0, "syzygy_hits": 0})
    found = set(tracer.LISTED) - {"exactlin.solve"}
    metrics = tracer.layer_metrics(total, found, 0.0)
    assert "exactlin.solve.calls" not in metrics
    assert metrics["exactlin.rank.calls"] == (0, "count")


def test_summary_uses_per_item_medians():
    samples = {
        "a": {"check": [1.0, 3.0, 2.0], "report": [4.0, 4.0],
              "warm_check": [0.1, 0.3, 0.2], "warm_report": [0.5]},
        "b": {"check": [2.0], "report": [1.0, 9.0, 2.0],
              "warm_check": [0.2], "warm_report": [0.1, 0.1]},
        "c": {"check": [5.0], "report": [5.0]},
    }
    got = {name: value for name, (value, unit) in
           run.summarize(samples).items()}
    assert got["cold_s"] == 2.0 + 4.0 + 2.0 + 2.0 + 5.0 + 5.0
    assert got["cold_report_s"] == 4.0 + 2.0 + 5.0
    assert abs(got["warm_s"] - (0.2 + 0.5 + 0.2 + 0.1)) < 1e-12


def test_every_manifest_metric_is_produced():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    e2e = set(run.summarize({"a": {"check": [1.0], "report": [1.0],
                                   "warm_check": [1.0],
                                   "warm_report": [1.0]}}))
    e2e |= {"setup_s", "peak_rss_mb"}
    assert {m["name"] for m in manifest["end_to_end"]} == e2e
    total = tracer.merge({}, {
        "calls": {}, "self_s": {}, "modules": {}, "wall_s": 1.0,
        "unwrapped_s": 1.0, "cells": 0, "kernel_bits": 0, "grad_builds": 0,
        "grad_distinct": 0, "syzygy_entries": 0, "syzygy_hits": 0})
    layers = tracer.layer_metrics(total, set(tracer.LISTED), 0.0)
    assert {m["name"] for m in manifest["per_layer"]} <= set(layers)


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def test_no_private_names_and_no_cache_clearing():
    for fname in os.listdir(HERE):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(HERE, fname)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.module or "").startswith("syzcurve"):
                assert not any(_private(a.name) for a in node.names)
            if isinstance(node, ast.Import):
                assert not any(a.name.startswith("syzcurve._")
                               for a in node.names)
            if isinstance(node, ast.Attribute):
                assert node.attr != "clear_caches", fname
                if isinstance(node.value, ast.Name) and node.value.id in (
                        "sc", "syzcurve"):
                    assert not _private(node.attr), (fname, node.attr)
            if isinstance(node, ast.Name):
                assert node.id != "clear_caches", fname

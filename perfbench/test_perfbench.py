"""Tests of the benchmark's own arithmetic: ``python3 -m pytest perfbench``."""

import json
import os
import random
import threading
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

import layers
import run
from spans import Span, Tracer, self_times
from workloads import check_margin, derive_seeds

HERE = os.path.dirname(os.path.abspath(__file__))


# -- tail percentile ------------------------------------------------------------

def test_tail_percentile_needs_eleven_samples():
    assert run.tail_percentile([1.0] * 10) is None
    assert run.tail_percentile([float(i) for i in range(11)]) == (9, 0.0)


@pytest.mark.parametrize("n, p", [(20, 50), (40, 75), (100, 90), (105, 90), (1000, 99)])
def test_tail_percentile_known_sizes(n, p):
    assert run.tail_percentile([float(i) for i in range(n)]) == (p, float(n - 11))


def test_tail_percentile_is_highest_with_ten_above():
    for n in range(11, 400):
        samples = [float(i) for i in range(n)]
        random.Random(n).shuffle(samples)
        p, value = run.tail_percentile(samples)
        assert sum(s > value for s in samples) >= 10
        # the next percentile's nearest-rank sample has fewer than 10 above it
        rank = -(-(p + 1) * n // 100)
        assert n - rank < 10


# -- self times -----------------------------------------------------------------

def _span(name, sid, parent, thread, w0, w1, c0, c1):
    return Span(name, 1, sid, parent, thread, w0, w1, c0, c1)


def test_self_times_nested_spans():
    spans = [
        _span("root", 1, None, 0, 0.0, 10.0, 0.0, 8.0),
        _span("child", 2, 1, 0, 2.0, 5.0, 1.0, 3.5),
        _span("grandchild", 3, 2, 0, 3.0, 4.0, 2.0, 2.8),
    ]
    st = self_times(spans)
    assert st[1].wall == pytest.approx(7.0) and st[1].cpu == pytest.approx(5.5)
    assert st[2].wall == pytest.approx(2.0) and st[2].cpu == pytest.approx(1.7)
    assert st[3].wall == pytest.approx(1.0) and st[3].cpu == pytest.approx(0.8)


def test_self_times_children_overlapping_on_two_threads():
    spans = [
        _span("root", 1, None, 0, 0.0, 10.0, 0.0, 0.5),
        _span("a", 2, 1, 1, 1.0, 6.0, 0.0, 3.0),
        _span("b", 3, 1, 2, 4.0, 9.0, 0.0, 4.0),
    ]
    st = self_times(spans)
    # the children cover [1, 9] together; their CPU is on other threads
    assert st[1].wall == pytest.approx(2.0) and st[1].cpu == pytest.approx(0.5)
    assert st[2].wait == pytest.approx(2.0)
    assert st[3].wait == pytest.approx(1.0)


def test_tracer_links_pool_thread_spans_to_the_request_root():
    ns = types.SimpleNamespace(inner=lambda x: x + 1)
    ns.outer = lambda x: ns.inner(x) * 2
    original_outer = ns.outer
    tracer = Tracer()
    tracer.patch(ns, "outer", "outer")
    tracer.patch(ns, "inner", "inner", lambda args, kwargs, result: result)

    def request():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(ns.outer, range(4)))

    assert tracer.run_request(7, request) == [2, 4, 6, 8]
    assert ns.outer is original_outer
    spans = tracer.take()
    assert tracer.spans == []
    root = spans[-1]
    assert root.name == "request" and root.parent is None
    assert root.thread == threading.get_ident()
    by_id = {s.sid: s for s in spans}
    outers = [s for s in spans if s.name == "outer"]
    inners = [s for s in spans if s.name == "inner"]
    assert len(outers) == len(inners) == 4
    assert all(s.parent == root.sid and s.request == 7 for s in outers)
    assert all(by_id[s.parent].name == "outer" and by_id[s.parent].thread == s.thread
               for s in inners)
    assert sorted(s.info for s in inners) == [1, 2, 3, 4]


def test_request_metrics_per_step_and_pool_cpu():
    spans = [
        _span("request", 1, None, 0, 0.0, 4.0, 0.0, 0.1),
        _span("cli.run", 2, 1, 1, 0.0, 3.0, 0.0, 2.0),
        _span("cli.run", 3, 1, 2, 0.5, 3.5, 0.0, 1.0),
        Span("invariants.integrate_nu", 1, 4, 2, 1, 0.5, 2.5, 0.5, 1.5, 2000),
    ]
    m = layers.request_metrics(spans, wall=4.0)
    assert m["invariants.integrate_nu.calls"] == 1
    assert m["invariants.integrate_nu.us_per_step"] == pytest.approx(1e6 * 1.0 / 2000)
    assert m["invariants.integrate_nu.wait_s"] == pytest.approx(1.0)
    assert m["cli.run.busy_s"] == pytest.approx(1.0 + 1.0)
    assert m["cli.sweep.cpu_over_wall"] == pytest.approx(3.0 / 4.0)
    assert m["states.vacuum_trajectory.fallback_frac"] == 0.0


# -- seeds, checks and BENCHMARK.json ----------------------------------------------

def test_derive_seeds_repeats_for_the_same_workload_seed():
    assert derive_seeds(5, 16) == derive_seeds(5, 16)
    assert derive_seeds(5, 16) != derive_seeds(6, 16)
    assert derive_seeds(5, 8) == derive_seeds(5, 16)[:8]
    assert len(set(derive_seeds(5, 16))) == 16


def test_check_margin_inverts_witness_checks_and_rejects_contradictions():
    assert check_margin("invariants.oracle_deviation", 1e-7, 1e-6, True) == pytest.approx(0.1)
    assert check_margin("coherence.forcing_witness", 0.5, 1e-3, True) == pytest.approx(2e-3)
    with pytest.raises(ValueError):
        check_margin("closure", 2e-5, 1e-5, True)
    with pytest.raises(ValueError):
        check_margin("closure", 2e-5, 1e-5, False)


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads())

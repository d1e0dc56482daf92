"""The names the benchmark's traced run wraps must stay importable.

``perfbench/layers.py`` replaces module attributes of ``ffo`` with timing
wrappers by name; a renamed or removed function would crash ``--trace 1``.
"""

import json
import os
import types

import pytest

import ffo.cli
import ffo.grassmann
import ffo.states

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def test_every_perfbench_hook_resolves(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import layers
    import spans

    tracer = spans.Tracer()
    layers.instrument(tracer)  # getattr on every wrapped name; nothing is installed
    hooks = {(owner.__name__, attr) for owner, attr, _, _ in tracer._patches
             if isinstance(owner, types.ModuleType)}
    assert {owner for owner, _ in hooks} == {"ffo.cli", "ffo.states", "ffo.grassmann"}
    assert {("ffo.cli", "evolve_unitary"), ("ffo.cli", "integrate_nu"),
            ("ffo.cli", "emit_csv"), ("ffo.states", "evolve_unitary"),
            ("ffo.grassmann", "g_mul")} <= hooks
    modules = {m.__name__: m for m in (ffo.cli, ffo.states, ffo.grassmann)}
    for owner, attr in hooks:
        assert callable(getattr(modules[owner], attr)), (owner, attr)


def test_traced_emit_csv_counts_the_written_bytes(monkeypatch, tmp_path):
    # the span's work is os.path.getsize of emit_csv's first positional argument
    monkeypatch.syspath_prepend(PERFBENCH)
    import layers
    import spans

    tracer = spans.Tracer()
    layers.instrument(tracer)
    out = tmp_path / "out.csv"
    argv = ["all", "--config", os.path.join(PERFBENCH, "readme_scenario.json"),
            "--t-final", "0.5", "--out", str(out)]
    assert tracer.run_request(1, ffo.cli.main, argv) == 0
    recorded = tracer.take()
    assert [s.name for s in recorded].count("cli.emit_csv") == 1
    assert layers.request_metrics(recorded, 1.0)["cli.emit_csv.bytes"] == out.stat().st_size > 0


def _traced_metrics(tmp_path, argv) -> dict:
    import layers
    import spans

    tracer = spans.Tracer()
    layers.instrument(tracer)
    argv = argv + ["--t-final", "0.5", "--format", "json", "--out", str(tmp_path / "r.json")]
    assert tracer.run_request(1, ffo.cli.main, argv) == 0
    return layers.request_metrics(tracer.take(), 1.0)


def test_traced_reduce_request_samples_each_signal_once(monkeypatch, tmp_path):
    # f, f', omega and omega' on the grid nodes and the step midpoints; each
    # complex evaluation counts with its real and imaginary legs: 2 x (3 + 3 + 1 + 1),
    # g on the nodes for the scenario gates, and the closure's oracle, which
    # samples omega, f and g once each on both Gauss node sets (1 + 3 + 1)
    monkeypatch.syspath_prepend(PERFBENCH)
    metrics = _traced_metrics(tmp_path, ["reduce", "--sweep", "1", "--seed", "0"])
    assert metrics["signals.eval.calls"] == 22
    assert metrics["invariants.integrate_nu.calls"] == 0
    assert metrics["propagator.evolve_unitary.midpoint.calls"] == 1


@pytest.mark.parametrize("argv, calls", [
    # omega, f and g on the nodes for the scenario gates (1 + 3 + 1); the
    # oracle samples omega, f and g once each, on both Gauss nodes (1 + 3 + 1)
    (["evolve", "--sweep", "1", "--seed", "0"], 10),
    # and omega and f on the step midpoints for integrate_nu (1 + 3)
    (["invariants", "--sweep", "1", "--seed", "0"], 14),
    # omega, omega', f and f' on both grids, 2 x (1 + 1 + 3 + 3), g on the
    # nodes and the oracle's 5: the README scenario runs reduce too
    (["all", "--config", os.path.join(PERFBENCH, "readme_scenario.json")], 22),
])
def test_traced_request_samples_each_signal_once(monkeypatch, tmp_path, argv, calls):
    monkeypatch.syspath_prepend(PERFBENCH)
    assert _traced_metrics(tmp_path, argv)["signals.eval.calls"] == calls


def test_traced_all_request_solves_nu_once(monkeypatch, tmp_path):
    # from nu0 alone, for invariants and phases: reduce's closure reads the
    # propagator, which the invariants already built
    monkeypatch.syspath_prepend(PERFBENCH)
    metrics = _traced_metrics(tmp_path, ["all", "--config",
                                         os.path.join(PERFBENCH, "readme_scenario.json")])
    assert metrics["invariants.integrate_nu.calls"] == 1
    assert metrics["signals.eval.calls"] == 22
    # the self-test's graded products, each one batched call: two completeness
    # integrals, zeta|zeta>, the Berezin top monomial and the associativity
    # triple (four); the Grassmann layer stays in the per-layer metrics
    assert metrics["grassmann.g_mul.calls"] == 8
    assert metrics["grassmann.busy_s"] > 0


def test_traced_phases_request_counts_the_vacuum_gap_points(monkeypatch, tmp_path):
    # the wrap reads the mask as result[1]: on omega = 0, f = 0.5, where
    # nu_minus = cos^2(t/2) reaches 0 at t = pi, the vacuum is exp(i phi0) e0
    # on every point, so no point falls back
    monkeypatch.syspath_prepend(PERFBENCH)
    import layers
    import spans

    doc = tmp_path / "pinch.json"
    doc.write_text(json.dumps({"hamiltonian": {"omega": {"type": "constant", "value": 0.0},
                                               "f_re": {"type": "constant", "value": 0.5}},
                               "run": {"t_final": 8.0, "dt": 0.001}}))
    tracer = spans.Tracer()
    layers.instrument(tracer)
    argv = ["phases", "--config", str(doc), "--format", "json", "--out", str(tmp_path / "p.json")]
    assert tracer.run_request(1, ffo.cli.main, argv) == 0
    recorded = tracer.take()
    assert any(s.name == "states.vacuum_trajectory" for s in recorded)
    metrics = layers.request_metrics(recorded, 1.0)
    assert metrics["states.vacuum_trajectory.fallback_frac"] == 0.0
    assert metrics["states.vacuum_trajectory.us_per_step"] > 0


@pytest.mark.parametrize("name", ["sweep-reduce", "sweep-invariants"])
def test_full_length_sweep_requests_pass_the_benchmark_gate(monkeypatch, tmp_path, capsys, name):
    # the workloads' own requests (reduce --sweep 4 --t-final 10 and
    # invariants --sweep 16 --t-final 2, dt 1e-3) on a reference seed and a
    # derived one, through the benchmark's gate: exit 0, every scenario
    # written, every verdict passed and agreeing with its value
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads

    workload = workloads.workloads()[name]
    for seed in (workload.reference_seeds[0], workloads.derive_seeds(7, 1)[0]):
        argv = workload.argv(seed, str(tmp_path))
        assert ffo.cli.main(argv) == 0
        outcome = workload.verify(argv, 0, capsys.readouterr().out, str(tmp_path))
        assert outcome.steps == workload.sweep * (workload.points - 1)
        assert outcome.margins and max(outcome.margins) <= 1.0

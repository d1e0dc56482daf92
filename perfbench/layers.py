"""Which ``ffo`` functions the traced run wraps, and the per-layer metrics.

The wrapped names are the public functions ``ffo.cli`` calls into each layer
(patched in ``ffo.cli``'s namespace), plus ``ffo.states.evolve_unitary`` so
that ``coherence_check``'s propagator child is separated out,
``ffo.grassmann.g_mul`` so that graded products inside the Grassmann engine
are counted, and ``value``/``d1``/``d2`` of every signal class.
"""

from __future__ import annotations

import os
from collections import defaultdict

from spans import Span, Tracer, self_times

# (name, unit) of every per-layer metric, in report order
PER_LAYER = [
    ("invariants.integrate_nu.us_per_step", "us"),
    ("invariants.integrate_nu.wait_s", "s"),
    ("invariants.integrate_nu.calls", "count"),
    ("invariants.invariance_residual_max.busy_s", "s"),
    ("invariants.build_B_array.busy_s", "s"),
    ("propagator.evolve_unitary.rk4.us_per_step", "us"),
    ("propagator.evolve_unitary.rk4.calls", "count"),
    ("propagator.evolve_unitary.rk4.wait_s", "s"),
    ("propagator.evolve_unitary.midpoint.us_per_step", "us"),
    ("propagator.evolve_unitary.midpoint.calls", "count"),
    ("propagator.evolve_unitary.midpoint.wait_s", "s"),
    ("reduction.lambda2_from_epsilon.calls", "count"),
    ("reduction.lambda2_from_epsilon.busy_s", "s"),
    ("reduction.integrate_epsilon.us_per_step", "us"),
    ("reduction.nu_from_epsilon_arrays.busy_s", "s"),
    ("states.vacuum_trajectory.us_per_step", "us"),
    ("states.vacuum_trajectory.fallback_frac", "ratio"),
    ("states.lr_phases.busy_s", "s"),
    ("states.schrodinger_residual_max.calls", "count"),
    ("states.schrodinger_residual_max.busy_s", "s"),
    ("states.coherence_check.busy_s", "s"),
    ("cli.emit_csv.busy_s", "s"),
    ("cli.emit_csv.bytes", "B"),
    ("cli.emit_json.busy_s", "s"),
    ("cli.parse_config.busy_s", "s"),
    ("cli.run.busy_s", "s"),
    ("cli.run.wait_s", "s"),
    ("cli.sweep.cpu_over_wall", "ratio"),
    ("signals.eval.calls", "count"),
    ("signals.eval.points_per_call", "points/call"),
    ("signals.eval.busy_s", "s"),
    ("grassmann.busy_s", "s"),
    ("grassmann.g_mul.calls", "count"),
    ("sweeps.random_spec.busy_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


def _steps(args, kwargs, result) -> int:
    return len(result.times) - 1


def _unitary_name(args, kwargs) -> str:
    cfg = kwargs.get("cfg", args[2] if len(args) > 2 else None)
    return "propagator.evolve_unitary." + getattr(cfg, "method", "midpoint")


def instrument(tracer: Tracer) -> None:
    """Register every layer boundary of ``ffo`` with ``tracer``."""
    import ffo.cli as cli
    import ffo.grassmann as grassmann
    import ffo.signals as signals
    import ffo.states as states

    plain = {
        "parse_config": "cli.parse_config", "run": "cli.run", "emit_json": "cli.emit_json",
        "random_spec": "sweeps.random_spec",
        "build_B_array": "invariants.build_B_array",
        "invariance_residual_max": "invariants.invariance_residual_max",
        "nu_from_epsilon_arrays": "reduction.nu_from_epsilon_arrays",
        "lambda2_from_epsilon": "reduction.lambda2_from_epsilon",
        "lr_phases": "states.lr_phases",
        "schrodinger_residual_max": "states.schrodinger_residual_max",
        "coherence_check": "states.coherence_check",
        "completeness_check": "grassmann.completeness_check",
        "coherent_ket": "grassmann.coherent_ket",
        "apply_fermion_op": "grassmann.apply_fermion_op",
        "g_mul": "grassmann.g_mul",
    }
    for attr, name in plain.items():
        tracer.patch(cli, attr, name)
    tracer.patch(grassmann, "g_mul", "grassmann.g_mul")
    tracer.patch(cli, "emit_csv", "cli.emit_csv",
                 lambda args, kwargs, result: os.path.getsize(args[0]))
    tracer.patch(cli, "integrate_nu", "invariants.integrate_nu", _steps)
    tracer.patch(cli, "integrate_epsilon", "reduction.integrate_epsilon", _steps)
    for owner in (cli, states):
        tracer.patch(owner, "evolve_unitary", _unitary_name, _steps)
    tracer.patch(cli, "vacuum_trajectory", "states.vacuum_trajectory",
                 lambda args, kwargs, result: (len(result[1]) - 1, int(result[1].sum()),
                                               len(result[1])))
    for cls in (signals.Constant, signals.Sinusoid, signals.Polynomial,
                signals.Tabulated, signals.ComplexSignal):
        for attr in ("value", "d1", "d2"):
            if attr in cls.__dict__:
                tracer.patch(cls, attr, "signals.eval",
                             lambda args, kwargs, result: getattr(args[1], "size", 1))


class _Layer:
    __slots__ = ("calls", "busy", "wait", "work", "extra", "extra_total")

    def __init__(self):
        self.calls = 0
        self.busy = self.wait = 0.0
        self.work = self.extra = self.extra_total = 0

    def us_per_step(self) -> float:
        return 1e6 * self.busy / self.work if self.work else 0.0


def request_metrics(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced request (all but ``trace.overhead_frac``).

    ``wall`` is the request's wall time.  ``busy`` is self thread-CPU time and
    ``wait`` self wall minus self CPU, both summed over the layer's spans.
    """
    selfs = self_times(spans)
    layers: dict[str, _Layer] = defaultdict(_Layer)
    run_cpu = 0.0
    for s in spans:
        lay = layers[s.name]
        st = selfs[s.sid]
        lay.calls += 1
        lay.busy += st.cpu
        lay.wait += st.wait
        if isinstance(s.info, tuple):         # vacuum: (steps, fallback points, points)
            lay.work += s.info[0]
            lay.extra += s.info[1]
            lay.extra_total += s.info[2]
        elif s.info is not None:
            lay.work += s.info
        if s.name == "cli.run":
            run_cpu += s.c1 - s.c0

    def get(name) -> _Layer:
        return layers.get(name) or _Layer()

    nu, eps, vac = get("invariants.integrate_nu"), get("reduction.integrate_epsilon"), \
        get("states.vacuum_trajectory")
    rk4, mid = get("propagator.evolve_unitary.rk4"), get("propagator.evolve_unitary.midpoint")
    lam2, sch = get("reduction.lambda2_from_epsilon"), get("states.schrodinger_residual_max")
    csv, run, sig = get("cli.emit_csv"), get("cli.run"), get("signals.eval")
    return {
        "invariants.integrate_nu.us_per_step": nu.us_per_step(),
        "invariants.integrate_nu.wait_s": nu.wait,
        "invariants.integrate_nu.calls": nu.calls,
        "invariants.invariance_residual_max.busy_s": get("invariants.invariance_residual_max").busy,
        "invariants.build_B_array.busy_s": get("invariants.build_B_array").busy,
        "propagator.evolve_unitary.rk4.us_per_step": rk4.us_per_step(),
        "propagator.evolve_unitary.rk4.calls": rk4.calls,
        "propagator.evolve_unitary.rk4.wait_s": rk4.wait,
        "propagator.evolve_unitary.midpoint.us_per_step": mid.us_per_step(),
        "propagator.evolve_unitary.midpoint.calls": mid.calls,
        "propagator.evolve_unitary.midpoint.wait_s": mid.wait,
        "reduction.lambda2_from_epsilon.calls": lam2.calls,
        "reduction.lambda2_from_epsilon.busy_s": lam2.busy,
        "reduction.integrate_epsilon.us_per_step": eps.us_per_step(),
        "reduction.nu_from_epsilon_arrays.busy_s": get("reduction.nu_from_epsilon_arrays").busy,
        "states.vacuum_trajectory.us_per_step": vac.us_per_step(),
        "states.vacuum_trajectory.fallback_frac":
            vac.extra / vac.extra_total if vac.extra_total else 0.0,
        "states.lr_phases.busy_s": get("states.lr_phases").busy,
        "states.schrodinger_residual_max.calls": sch.calls,
        "states.schrodinger_residual_max.busy_s": sch.busy,
        "states.coherence_check.busy_s": get("states.coherence_check").busy,
        "cli.emit_csv.busy_s": csv.busy,
        "cli.emit_csv.bytes": csv.work,
        "cli.emit_json.busy_s": get("cli.emit_json").busy,
        "cli.parse_config.busy_s": get("cli.parse_config").busy,
        "cli.run.busy_s": run.busy,
        "cli.run.wait_s": run.wait,
        "cli.sweep.cpu_over_wall": run_cpu / wall,
        "signals.eval.calls": sig.calls,
        "signals.eval.points_per_call": sig.work / sig.calls if sig.calls else 0.0,
        "signals.eval.busy_s": sig.busy,
        "grassmann.busy_s": sum(lay.busy for name, lay in layers.items()
                                if name.startswith("grassmann.")),
        "grassmann.g_mul.calls": get("grassmann.g_mul").calls,
        "sweeps.random_spec.busy_s": get("sweeps.random_spec").busy,
    }

"""The names the benchmark's traced run wraps must stay importable.

``perfbench/layers.py`` replaces module attributes of ``ffo`` with timing
wrappers by name; a renamed or removed function would crash ``--trace 1``.
"""

import os
import types

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

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffo.cli import (CHECK_TOLERANCES, MAX_GRID_POINTS, MODES, ScenarioConfig, _table_select,
                     emit_csv, main, parse_config, run, serialize_config)
from ffo.errors import ConfigError
from ffo.propagator import PropagatorConfig, evolve_state

GOOD = """
{
  "hamiltonian": {
    "omega": {"type": "sinusoid", "amplitude": 0.3, "frequency": 1.0, "offset": 1.0},
    "f_re": {"type": "constant", "value": 0.5},
    "f_im": {"type": "constant", "value": 0.1},
    "g": {"type": "polynomial", "coeffs": [0.2, 0.01]}
  },
  "run": {"mode": "invariants", "t_final": 2.0, "dt": 0.001},
  "initial": {"nu0": [[1, 0], [0, 0], [0, 0]]},
  "output": {"format": "csv"}
}
"""


def test_parse_round_trip():
    cfg = parse_config(GOOD)
    text = serialize_config(cfg)
    cfg2 = parse_config(text)
    assert cfg2.spec == cfg.spec
    assert (cfg2.mode, cfg2.t_final, cfg2.dt) == (cfg.mode, cfg.t_final, cfg.dt)
    assert cfg2.nu0 == cfg.nu0
    # serialization is stable under a second round trip
    assert serialize_config(cfg2) == text


def test_negative_dt_rejected_with_path():
    bad = GOOD.replace('"dt": 0.001', '"dt": -0.5')
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert err.value.path == "run.dt"


def test_unknown_key_rejected_with_path():
    bad = GOOD.replace('"g":', '"gee": {"type": "constant"}, "g":')
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "hamiltonian.gee" in str(err.value)


def test_unknown_mode_rejected():
    bad = GOOD.replace('"invariants"', '"frobnicate"')
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert err.value.path == "run.mode"


def test_tabulated_non_increasing_rejected():
    bad = GOOD.replace(
        '{"type": "constant", "value": 0.5}',
        '{"type": "tabulated", "times": [0.0, 1.0, 0.5], "values": [1, 2, 3]}')
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert err.value.path == "hamiltonian.f_re"


def test_unknown_signal_type_rejected():
    bad = GOOD.replace('"constant", "value": 0.5', '"ramp", "value": 0.5')
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_unknown_tolerance_rejected():
    bad = GOOD.replace('"dt": 0.001', '"dt": 0.001, "tolerances": {"bogus": 1.0}')
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "run.tolerances.bogus" in str(err.value)


def test_run_invariants_report():
    cfg = parse_config(GOOD)
    report, tables = run("invariants", cfg)
    assert report.passed
    names = [c["name"] for c in report.checks]
    assert "oracle_deviation" in names and "lambda1_drift" in names
    header, cols = tables["invariants"]
    assert header[0] == "t" and len(cols[0]) == 2001
    obj = report.to_json_obj()
    assert obj["schema"] == 1 and "wall_time_s" not in obj


def test_main_writes_deterministic_csv(tmp_path):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(GOOD)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["invariants", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["invariants", "--config", str(cfg_path), "--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    header = b1.decode().splitlines()[0].split(",")
    assert header[0] == "t"
    # full-precision round trip: parse a float back exactly
    row = b1.decode().splitlines()[2].split(",")
    assert float(row[0]) == 0.001


def _csv_reference(path, header, columns):
    """Per-cell CSV writer: every cell formatted on its own, row by row."""

    def fmt(x):
        if isinstance(x, (float, np.floating)):
            return repr(float(x))
        return str(x)

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(len(columns[0])):
            fh.write(",".join(fmt(col[i]) for col in columns) + "\n")


def test_emit_csv_matches_per_cell_reference(tmp_path):
    doc = json.loads(GOOD)
    doc["output"]["fields"] = ["lambda2", "t", "oracle_dev"]
    cfg = parse_config(json.dumps(doc))
    _, tables = run("all", cfg)
    edge = np.array([0.0, -0.0, np.nan, -np.inf, 5e-324, 0.1, 1e22, -1.5e-7])
    cases = {
        "invariants": tables["invariants"],
        "fields": _table_select(cfg, *tables["invariants"]),
        "grassmann": tables["grassmann-selftest"],
        "edge": (["x", "x32", "label"], [edge, edge.astype(np.float32),
                                         [str(v) for v in edge]]),
    }
    assert cases["fields"][0] == ["lambda2", "t", "oracle_dev"]
    for name, (header, cols) in cases.items():
        got, want = tmp_path / f"{name}.csv", tmp_path / f"{name}.ref.csv"
        emit_csv(str(got), header, cols)
        _csv_reference(str(want), header, cols)
        assert got.read_bytes() == want.read_bytes(), name


def test_main_json_report(tmp_path):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(GOOD)
    out = tmp_path / "report.json"
    code = main(["invariants", "--config", str(cfg_path), "--out", str(out),
                 "--format", "json"])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["schema"] == 1
    assert obj["passed"] is True
    assert {c["name"] for c in obj["checks"]} >= {"oracle_deviation", "lambda1_drift"}


def test_main_field_selector(tmp_path):
    doc = json.loads(GOOD)
    doc["output"]["fields"] = ["t", "lambda2"]
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "sel.csv"
    assert main(["invariants", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "t,lambda2"


def test_main_bad_config_exit_2(tmp_path):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(GOOD.replace('"dt": 0.001', '"dt": -1'))
    assert main(["invariants", "--config", str(cfg_path)]) == 2


@pytest.mark.parametrize("old, new, flags, path", [
    ('[[1, 0], [0, 0], [0, 0]]', '[[0, 0], [0, 0], [0, 0]]', [], "initial.nu0"),
    ('"initial": {', '"initial": {"epsilon0": [[0, 0], [0, 0]], ', [], "initial.epsilon0"),
    ('"t_final": 2.0', '"t_final": Infinity', [], "run.t_final"),
    ('"t_final": 2.0', '"t_final": 1e400', [], "run.t_final"),
    ("", "", ["--t-final", "inf"], "run.t_final"),
    ('"dt": 0.001', '"dt": NaN', [], "run.dt"),
    ("", "", ["--dt", "nan"], "run.dt"),
    ('"value": 0.5', '"value": NaN', [], "hamiltonian.f_re.value"),
    ('"coeffs": [0.2, 0.01]', '"coeffs": [0.2, -Infinity]', [], "hamiltonian.g.coeffs[1]"),
    ('[[1, 0], [0, 0]', '[[1, NaN], [0, 0]', [], "initial.nu0[0][1]"),
    ('"dt": 0.001', '"dt": 0.001, "tolerances": {"closure": -1e-5}', [],
     "run.tolerances.closure"),
    ('"dt": 0.001', '"dt": 0.001, "tolerances": {"closure": NaN}', [],
     "run.tolerances.closure"),
    ("", "", ["--tol", "nan"], "run.tolerances.oracle_deviation"),
    ("", "", ["--tol", "-1"], "run.tolerances.oracle_deviation"),
    ('"t_final": 2.0', '"t_final": 1' + "0" * 400, [], "run.t_final"),
    ('"type": "constant", "value": 0.5', '"type": [], "value": 0.5', [],
     "hamiltonian.f_re.type"),
    ('"output": {"format": "csv"}', '"output": null', [], "output"),
    ('"coeffs": [0.2, 0.01]', '"coeffs": []', [], "hamiltonian.g.coeffs"),
    ('"t_final": 2.0', '"t_final": 0.001', [], "run.t_final"),
])
def test_main_bad_input_exit_2_with_path(tmp_path, capsys, old, new, flags, path):
    assert old in GOOD
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(GOOD.replace(old, new))
    assert main(["invariants", "--config", str(cfg_path), *flags]) == 2
    assert path in capsys.readouterr().err


# documents shaped like the schema, where any node may instead be arbitrary
# JSON: numbers include non-finite floats and integers too large for a float
_NUMBERS = st.integers(-10**400, 10**400) | st.floats()
_JUNK = st.recursive(
    st.none() | st.booleans() | _NUMBERS | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)


def _or_junk(strategy):
    return strategy | _JUNK


def _object(**fields):
    return _or_junk(st.fixed_dictionaries({}, optional=fields))


def _pairs(count):
    pair = _or_junk(st.lists(_or_junk(_NUMBERS), min_size=2, max_size=2))
    return _or_junk(st.lists(pair, min_size=count, max_size=count))


_SIGNAL = _object(
    type=_or_junk(st.sampled_from(["constant", "sinusoid", "polynomial", "tabulated"])),
    **{key: _or_junk(_NUMBERS) for key in ("value", "amplitude", "frequency", "phase",
                                            "offset")},
    **{key: _or_junk(st.lists(_or_junk(_NUMBERS), max_size=4))
       for key in ("coeffs", "times", "values")},
    stray=_JUNK)
_DOCUMENTS = _object(
    hamiltonian=_object(omega=_SIGNAL, f_re=_SIGNAL, f_im=_SIGNAL, g=_SIGNAL),
    run=_object(mode=_or_junk(st.sampled_from(["invariants", "reduce", "bogus"])),
                t_final=_or_junk(_NUMBERS), dt=_or_junk(_NUMBERS),
                tolerances=_or_junk(st.dictionaries(st.sampled_from(["closure", "bogus"]),
                                                    _or_junk(_NUMBERS)))),
    initial=_object(nu0=_pairs(3), epsilon0=_pairs(2), state=_pairs(2)),
    output=_object(format=_or_junk(st.sampled_from(["csv", "json"])),
                   path=_or_junk(st.text(max_size=3)),
                   fields=_or_junk(st.lists(_or_junk(st.sampled_from(["t", "lambda2"]))))),
    stray=_JUNK)


@settings(max_examples=300, deadline=None, database=None)
@given(doc=_DOCUMENTS)
def test_any_json_document_parses_or_names_a_path(doc):
    try:
        cfg = parse_config(json.dumps(doc))
    except ConfigError as exc:
        assert exc.path
    else:
        assert isinstance(cfg, ScenarioConfig)


# small documents that mostly parse, on grids of at most 51 points, so that
# main() runs every mode on them; edge values include empty lists, zeros,
# huge magnitudes and tabulated ranges shorter than the grid
_VALUE = st.floats(-3, 3) | st.sampled_from([0.0, 1e-300, 1e150, -1e150])
_RUN_SIGNAL = st.one_of(
    st.fixed_dictionaries({"type": st.just("constant")}, optional={"value": _VALUE}),
    st.fixed_dictionaries({"type": st.just("sinusoid")},
                          optional={key: _VALUE for key in ("amplitude", "frequency",
                                                            "phase", "offset")}),
    st.fixed_dictionaries({"type": st.just("polynomial")},
                          optional={"coeffs": st.lists(_VALUE, max_size=3)}),
    st.integers(0, 4).flatmap(lambda n: st.fixed_dictionaries({
        "type": st.just("tabulated"),
        "times": st.lists(st.floats(-0.1, 0.1), min_size=n, max_size=n,
                          unique=True).map(sorted),
        "values": st.lists(_VALUE, min_size=n, max_size=n)})),
)
_RUN_PAIRS = {n: st.lists(st.lists(_VALUE, min_size=2, max_size=2), min_size=n, max_size=n)
              for n in (2, 3)}
_RUN_DOCUMENTS = st.fixed_dictionaries({
    "hamiltonian": st.fixed_dictionaries(
        {}, optional={name: _RUN_SIGNAL for name in ("omega", "f_re", "f_im", "g")}),
    "run": st.fixed_dictionaries(
        {"t_final": st.integers(2, 50).map(lambda n: n * 0.001) | st.floats(0.0, 0.05),
         "dt": st.just(0.001)},
        optional={"tolerances": st.dictionaries(
            st.sampled_from(sorted(CHECK_TOLERANCES)), st.sampled_from([0.0, 1e-6, 1.0]),
            max_size=2)}),
    "initial": st.fixed_dictionaries(
        {}, optional={"nu0": _RUN_PAIRS[3], "epsilon0": _RUN_PAIRS[2],
                      "state": _RUN_PAIRS[2]}),
    "output": st.fixed_dictionaries(
        {}, optional={"format": st.sampled_from(["csv", "json"]),
                      "fields": st.lists(st.sampled_from(["t", "lambda2", "phi0", "x"]),
                                         min_size=1, max_size=2)}),
})


@settings(max_examples=150, deadline=None, database=None)
@given(doc=_RUN_DOCUMENTS, mode=st.sampled_from(MODES),
       flags=st.sampled_from([[], ["--sweep", "1"]]))
def test_main_runs_any_small_document_without_a_traceback(tmp_path_factory, doc, mode, flags):
    work = tmp_path_factory.mktemp("run")
    cfg_path = work / "scenario.json"
    cfg_path.write_text(json.dumps(doc))
    argv = [mode, "--config", str(cfg_path), "--out", str(work / "out"), *flags]
    assert main(argv) in (0, 1, 2)


def test_all_mode_builds_u_once_and_nu_once_plus_the_closure(monkeypatch, tmp_path):
    import ffo.cli

    calls = {"evolve_unitary": 0, "integrate_nu": 0}

    def counting(name):
        original = getattr(ffo.cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(ffo.cli, name, counting(name))
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(GOOD.replace('"t_final": 2.0', '"t_final": 10.0'))
    assert main(["all", "--config", str(cfg_path), "--out", str(tmp_path / "out.csv")]) == 0
    # U feeds invariants, coherence; nu feeds invariants, phases; reduce's
    # closure integrates nu from nu(epsilon)[0]
    assert calls == {"evolve_unitary": 1, "integrate_nu": 2}


@pytest.mark.parametrize("mode, config_t_final, flags", [
    ("invariants", "2.0005", []),
    ("invariants", "2.0", ["--t-final", "2.0005"]),
    ("grassmann-selftest", None, ["--t-final", "1.0005", "--dt", "0.001"]),
])
def test_t_final_off_the_grid_exit_2(tmp_path, capsys, mode, config_t_final, flags):
    # rejected with its path before any mode runs
    argv = [mode, *flags]
    if config_t_final is not None:
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text(GOOD.replace('"t_final": 2.0', f'"t_final": {config_t_final}'))
        argv += ["--config", str(cfg_path)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert "run.t_final" in err and "integer multiple" in err
    assert out == ""


def test_reported_points_count_the_grid():
    cfg = parse_config(GOOD)
    cfg.t_final = 3.142
    report, _ = run("grassmann-selftest", cfg)
    assert report.grid["points"] == 3143


def test_main_missing_config_exit_2():
    assert main(["invariants"]) == 2


def test_main_grassmann_selftest_no_config():
    assert main(["grassmann-selftest"]) == 0


def test_main_failing_tolerance_exit_1(tmp_path):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(GOOD)
    # an absurd primary tolerance forces a check failure (report still emitted)
    out = tmp_path / "r.json"
    code = main(["invariants", "--config", str(cfg_path), "--tol", "1e-30",
                 "--out", str(out), "--format", "json"])
    assert code == 1
    assert json.loads(out.read_text())["passed"] is False


def test_main_sweep_runs(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["invariants", "--sweep", "3", "--seed", "11",
                 "--t-final", "2", "--out", str(out)])
    assert code == 0
    for i in range(3):
        assert (tmp_path / f"sweep-{i:03d}.csv").exists()


@pytest.mark.parametrize("count", ["0", "-3"])
def test_main_sweep_count_below_one_exit_2(tmp_path, capsys, count):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(GOOD)
    assert main(["invariants", "--sweep", count]) == 2
    assert main(["invariants", "--config", str(cfg_path), "--sweep", count]) == 2
    captured = capsys.readouterr()
    assert "--sweep" in captured.err
    assert "scenarios" not in captured.out


def test_grid_bound_rejected_before_allocation(monkeypatch, capsys):
    import ffo.invariants

    def no_grid(*args):
        raise AssertionError("a grid was built for an oversized scenario")

    monkeypatch.setattr(ffo.invariants, "time_grid", no_grid)
    assert main(["invariants", "--sweep", "1", "--t-final", "1e13", "--dt", "1e-3"]) == 2
    assert "run.t_final" in capsys.readouterr().err
    cfg = parse_config(GOOD)
    cfg.t_final = MAX_GRID_POINTS * cfg.dt
    with pytest.raises(ConfigError, match="run.t_final"):
        cfg.validate()
    cfg.t_final = (MAX_GRID_POINTS - 1) * cfg.dt
    cfg.validate()


def test_main_evolve_matches_evolve_state(tmp_path):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(GOOD.replace('"initial": {', '"initial": {"state": [[0.6, 0], [0, 0.8]], '))
    out = tmp_path / "evolve.csv"
    assert main(["evolve", "--config", str(cfg_path), "--out", str(out)]) == 0
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    cfg = parse_config(cfg_path.read_text())
    _, psi = evolve_state(cfg.spec, [0.6, 0.8j], cfg.t_final, PropagatorConfig(dt=cfg.dt))
    assert np.max(np.abs(table[:, 1] + 1j * table[:, 2] - psi[:, 0])) < 1e-14
    assert np.max(np.abs(table[:, 3] + 1j * table[:, 4] - psi[:, 1])) < 1e-14
    assert np.max(np.abs(table[:, 5] - 1.0)) < 1e-12


def test_main_coherence_sweep_passes():
    # free sweep specs need a fourth-order oracle to meet zeta_ratio at dt=1e-3
    assert main(["coherence", "--sweep", "8", "--seed", "0", "--t-final", "10"]) == 0


def test_flag_overrides():
    cfg = parse_config(GOOD)
    report, _ = run("coherence", cfg)
    # forced spec: witness semantics
    assert report.checks[0]["name"] == "forcing_witness"


def test_invariants_scenario_with_rotating_forcing(tmp_path):
    # omega = 1 + 0.3 sin t, f = 0.5 exp(0.1 i t) entered as a sinusoid pair
    doc = {
        "hamiltonian": {
            "omega": {"type": "sinusoid", "amplitude": 0.3, "frequency": 1.0,
                      "offset": 1.0},
            "f_re": {"type": "sinusoid", "amplitude": 0.5, "frequency": 0.1,
                     "phase": np.pi / 2},
            "f_im": {"type": "sinusoid", "amplitude": 0.5, "frequency": 0.1},
            "g": {"type": "constant", "value": 0.0},
        },
        "run": {"mode": "invariants", "t_final": 5.0, "dt": 0.001},
        "initial": {"nu0": [[1, 0], [0, 0], [0, 0]]},
        "output": {"format": "csv"},
    }
    cfg_path = tmp_path / "rot.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "rot.csv"
    assert main(["invariants", "--config", str(cfg_path), "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0].split(",")
    assert header == ["t", "re_nu_minus", "im_nu_minus", "re_nu_plus", "im_nu_plus",
                      "re_nu_3", "im_nu_3", "abs_lambda1", "lambda2", "oracle_dev"]
    report, _ = run("invariants", parse_config(cfg_path.read_text()))
    oracle = [c for c in report.checks if c["name"] == "oracle_deviation"][0]
    assert oracle["value"] <= 1e-6


def test_coherence_free_spec_passes(tmp_path):
    doc = {
        "hamiltonian": {"omega": {"type": "constant", "value": 1.2},
                        "g": {"type": "sinusoid", "amplitude": 0.4, "frequency": 0.7}},
        "run": {"mode": "coherence", "t_final": 5.0, "dt": 0.001},
    }
    cfg_path = tmp_path / "coh.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "coh.csv"
    assert main(["coherence", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    cols = lines[0].split(",")
    i_ratio = cols.index("re_zeta_ratio")
    last = lines[-1].split(",")
    t = float(last[0])
    assert complex(float(last[i_ratio]), float(last[i_ratio + 1])) == pytest.approx(
        np.exp(-1.2j * t), abs=1e-8)

import contextlib
import functools
import io
import json
import os
import stat
import subprocess
import sys
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ffo
from ffo.cli import (CHECK_TOLERANCES, CSV_SLAB_ROWS, MAX_GRID_POINTS, MAX_INITIAL_ABS,
                     MIN_INITIAL_ABS, MODES, ScenarioConfig, _table_select, emit_csv, main,
                     parse_config, run)
from ffo.errors import ConfigError
from ffo.grid import GridSamples, _mul, time_grid
from ffo.invariants import _nu_dot, build_B_array, integrate_nu, motion_constants, nu_generator
from ffo.propagator import UnitaryTrajectory, apply_unitary, evolve_unitary
from ffo.reduction import integrate_epsilon, nu_from_epsilon_arrays
from ffo.signals import (ComplexSignal, Constant, HamiltonianSpec, Polynomial, Signal,
                         Sinusoid, Tabulated)
from ffo.sweeps import random_spec

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


def serialize_config(cfg: ScenarioConfig) -> str:
    """Round-trip a parsed config back to canonical JSON."""

    def sig(s: Signal):
        if isinstance(s, Constant):
            return {"type": "constant", "value": s.c}
        if isinstance(s, Sinusoid):
            return {"type": "sinusoid", "amplitude": s.amplitude,
                    "frequency": s.frequency, "phase": s.phase, "offset": s.offset}
        if isinstance(s, Polynomial):
            return {"type": "polynomial", "coeffs": list(s.coeffs)}
        if isinstance(s, Tabulated):
            return {"type": "tabulated", "times": list(s.times), "values": list(s.values)}
        raise TypeError(f"unserializable signal {s!r}")

    def pair(z: complex):
        return [z.real, z.imag]

    doc = {
        "hamiltonian": {"omega": sig(cfg.spec.omega), "f_re": sig(cfg.spec.f.re),
                        "f_im": sig(cfg.spec.f.im), "g": sig(cfg.spec.g)},
        "run": {"mode": cfg.mode, "t_final": cfg.t_final, "dt": cfg.dt,
                "tolerances": dict(sorted(cfg.tolerances.items()))},
        "initial": {"nu0": [pair(z) for z in cfg.nu0],
                    "epsilon0": [pair(z) for z in cfg.epsilon0],
                    "state": [pair(z) for z in cfg.state0]},
        "output": {"format": cfg.out_format,
                   **({"path": cfg.out_path} if cfg.out_path else {}),
                   **({"fields": cfg.fields} if cfg.fields else {})},
    }
    return json.dumps(doc, indent=2, sort_keys=True)


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
    report, tables = run(cfg)
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
    _, tables = run(replace(cfg, mode="all"))
    edge = np.array([0.0, -0.0, np.nan, -np.inf, 5e-324, 0.1, 1e22, -1.5e-7])
    signed_zeros = np.tile([0.0, -0.0, 0.0, 2.5, -0.0], 7)
    # quiet and signalling NaNs with distinct payloads, either sign, next to 1.0
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000123,
                     0x7FF0000000000001, 0x3FF0000000000000], dtype=np.uint64).view(np.float64)
    cases = {
        "invariants": tables["invariants"],
        "fields": _table_select(cfg, *tables["invariants"]),
        "grassmann": tables["grassmann-selftest"],
        "edge": (["x", "x32", "label"], [edge, edge.astype(np.float32),
                                         [str(v) for v in edge]]),
        "signed_zeros": (["z", "z32"], [signed_zeros, signed_zeros.astype(np.float32)]),
    }
    with np.errstate(invalid="ignore"):  # the float32 cast of a NaN payload is deliberate
        cases["nans"] = (["n", "n32"], [np.tile(nans, 3), np.tile(nans, 3).astype(np.float32)])
    # each magnitude where orjson's notation parts from repr's, with both neighbours
    big = np.finfo(np.float64).max
    bounds = np.array([1e-9, 1e-5, 1e-4, 1e16])
    bounds = np.concatenate([np.nextafter(bounds, 0.0), bounds, np.nextafter(bounds, np.inf)])
    bounds = np.concatenate([bounds, -bounds, [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, big]])
    with np.errstate(over="ignore"):  # float16 holds none of the large magnitudes
        cases["bounds"] = (["x", "x16", "xbe"], [bounds, bounds.astype(np.float16),
                                                 bounds.astype(">f8")])
    cases["one_row"] = (["x", "x32"], [np.array([1e-5]), np.array([-2.5e-7], dtype=np.float32)])
    # the README scenario's tables that hold the most cells repr writes
    with open(_README_SCENARIO, encoding="utf-8") as fh:
        readme = dict(json.load(fh), output={"format": "csv"})
    _, readme_tables = run(replace(parse_config(json.dumps(readme)), mode="all"))
    cases["readme_reduce"] = readme_tables["reduce"]
    cases["readme_phases"] = readme_tables["phases"]
    # row counts either side of the slab boundaries, with repeated values
    t = tables["invariants"][1][0]
    for rows in (CSV_SLAB_ROWS - 1, CSV_SLAB_ROWS, CSV_SLAB_ROWS + 1, 2 * CSV_SLAB_ROWS + 1):
        times = np.resize(t, rows)
        cases[f"rows{rows}"] = (["t", "repeat", "label"],
                                [times, np.round(times, 1), [f"r{i}" for i in range(rows)]])
    assert cases["fields"][0] == ["lambda2", "t", "oracle_dev"]
    for name, (header, cols) in cases.items():
        got, want = tmp_path / f"{name}.csv", tmp_path / f"{name}.ref.csv"
        emit_csv(str(got), header, cols)
        _csv_reference(str(want), header, cols)
        assert got.read_bytes() == want.read_bytes(), name


# bit patterns worth drawing on their own: signed zeros, infinities, the
# extreme subnormals and normals, and a quiet NaN
_SPECIAL_BITS = [0, 1 << 63, 0x7FF0000000000000, 0xFFF0000000000000, 1, 0x000FFFFFFFFFFFFF,
                 0x8000000000000001, 0x0010000000000000, 0x7FEFFFFFFFFFFFFF, 0x7FF8000000000000]


@settings(max_examples=40, deadline=None, database=None)
@given(pool=st.lists(st.sampled_from(_SPECIAL_BITS) | st.integers(0, 2**64 - 1),
                     min_size=1, max_size=6),
       pool32=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
       rows=st.integers(0, 2 * CSV_SLAB_ROWS + 1), seed=st.integers(0, 2**32 - 1))
# a float32 signalling NaN, whose cast to float64 sets numpy's invalid flag
@example(pool=[0], pool32=[0x7F800001], rows=1, seed=0)
def test_emit_csv_matches_reference_on_repeated_bit_patterns(tmp_path_factory, pool, pool32,
                                                             rows, seed):
    # a small pool of arbitrary bit patterns, so that values repeat across rows
    rng = np.random.default_rng(seed)
    bits, bits32 = np.array(pool, dtype=np.uint64), np.array(pool32, dtype=np.uint32)
    cols = [bits[rng.integers(len(bits), size=rows)].view(np.float64),
            bits32[rng.integers(len(bits32), size=rows)].view(np.float32),
            bits[rng.integers(len(bits), size=rows)].view(np.float64)]
    work = tmp_path_factory.mktemp("csv")
    emit_csv(str(work / "got.csv"), ["a", "b32", "c"], cols)
    _csv_reference(str(work / "want.csv"), ["a", "b32", "c"], cols)
    assert (work / "got.csv").read_bytes() == (work / "want.csv").read_bytes()


@settings(max_examples=40, deadline=None, database=None)
@given(values=st.lists(st.floats(width=64), max_size=40))
def test_emit_csv_matches_reference_on_drawn_floats(tmp_path_factory, values):
    # floats drawn by value spread over magnitudes, where raw bit patterns cluster
    col = np.array(values, dtype=np.float64)
    work = tmp_path_factory.mktemp("csv")
    emit_csv(str(work / "got.csv"), ["x"], [col])
    _csv_reference(str(work / "want.csv"), ["x"], [col])
    assert (work / "got.csv").read_bytes() == (work / "want.csv").read_bytes()


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


@pytest.mark.parametrize("mode", MODES)
def test_json_drifts_map_each_check_name_to_its_value(tmp_path, mode):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(GOOD)
    out = tmp_path / "report.json"
    assert main([mode, "--config", str(cfg_path), "--out", str(out), "--format", "json"]) == 0
    obj = json.loads(out.read_text())
    assert obj["drifts"] == {c["name"]: c["value"] for c in obj["checks"]}
    assert len(obj["drifts"]) == len(obj["checks"]) > 0


def test_output_files_get_the_mode_open_gives_them(tmp_path):
    # 0666 less the umask, for a new file and for one written over
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(GOOD)
    new, old = tmp_path / "new.csv", tmp_path / "old.json"
    old.write_text("{}\n")
    old.chmod(0o644)
    umask = os.umask(0o022)
    try:
        assert main(["invariants", "--config", str(cfg_path), "--out", str(new)]) == 0
        assert main(["invariants", "--config", str(cfg_path), "--out", str(old),
                     "--format", "json"]) == 0
    finally:
        os.umask(umask)
    assert [stat.S_IMODE(p.stat().st_mode) for p in (new, old)] == [0o644, 0o644]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["new.csv", "old.json", "scenario.json"]


def test_output_over_a_directory_exits_2_and_removes_its_temporary_file(tmp_path, capsys):
    # the replace fails after the temporary file is written: it must not be left behind
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(GOOD)
    target = tmp_path / "tgt.csv"
    target.mkdir()
    assert main(["invariants", "--config", str(cfg_path), "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert target.is_dir() and not list(target.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json", "tgt.csv"]


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
    ('"f_re": {"type": "constant", "value": 0.5}',
     '"f_re": {"type": "tabulated", "times": [0, 0.5], "values": [1, 2]}', [],
     "hamiltonian.f_re.times"),
    ('"invariants", "t_final": 2.0, "dt": 0.001},\n  "initial": {"nu0": [[1, 0], [0, 0]',
     '"phases", "t_final": 2.0, "dt": 0.001},\n  "initial": {"nu0": [[1, 0], [1, 0]', [],
     "initial.nu0"),
    # a leading mode in flags replaces invariants: all has no primary check for --tol
    ("", "", ["all", "--tol", "1e-3"], "--tol"),
    ("", "", ["--sweep", "2", "--seed", "-1"], "--seed"),
    ('"initial": {', '"initial": {"state": [[0, 0], [0, 0]], ', ["evolve"], "initial.state"),
    # numbers must be JSON numbers and strings JSON strings: float() and str()
    # used to take these, and "path": null wrote None.csv
    ('"t_final": 2.0', '"t_final": "0.01"', [], "run.t_final"),
    ('"value": 0.5', '"value": "0.5"', [], "hamiltonian.f_re.value"),
    ('"dt": 0.001', '"dt": 0.001, "tolerances": {"closure": false}', [],
     "run.tolerances.closure"),
    ('[[1, 0], [0, 0]', '[[true, 0], [0, 0]', [], "initial.nu0[0][0]"),
    ('"mode": "invariants"', '"mode": 1', [], "run.mode"),
    ('"format": "csv"', '"format": null', [], "output.format"),
    ('"format": "csv"', '"format": "csv", "path": null', [], "output.path"),
    ('"format": "csv"', '"format": "csv", "path": ["a", "b"]', [], "output.path"),
    ('"format": "csv"', '"format": "csv", "fields": ["t", 1]', [], "output.fields[1]"),
    # an empty path used to write a hidden ".csv" (or "-000.csv" in a sweep)
    ('"format": "csv"', '"format": "csv", "path": ""', [], "output.path"),
    ("", "", ["--out", ""], "output.path"),
    ("", "", ["--sweep", "2", "--out", ""], "output.path"),
    # reduce divides by f: a zero of f on the grid nodes (f = 0.5 sin t at
    # t = 0) or on a step midpoint (t = dt/2) used to stop inside integrate_epsilon
    ('{"type": "constant", "value": 0.5},\n    "f_im": {"type": "constant", "value": 0.1}',
     '{"type": "sinusoid", "amplitude": 0.5},\n    "f_im": {"type": "constant", "value": 0}',
     ["reduce"], "hamiltonian.f_re"),
    ('{"type": "constant", "value": 0.5},\n    "f_im": {"type": "constant", "value": 0.1}',
     '{"type": "sinusoid", "amplitude": 0.5, "phase": -0.0005},\n'
     '    "f_im": {"type": "constant", "value": 0}', ["reduce"], "hamiltonian.f_re"),
    ('"output": {"format": "csv"}\n}', '"output": {"format": "csv"}', [], "<document>"),
    ('"dt": 0.001', '"dt": 0.001, "tolerances": [1]', [], "run.tolerances"),
    ('"format": "csv"', '"format": "csv", "fields": "t"', [], "output.fields"),
    ('"format": "csv"', '"format": "xml"', [], "output.format"),
    # a repeated key used to resolve silently to its last value, as a free
    # scenario for a repeated f_re or a 100 times finer grid for a repeated dt
    ('"output": {"format": "csv"}\n}', '"output": {"format": "csv"},\n  "run": {"t_final": 1}\n}',
     [], "<document>.run"),
    ('"f_re": {"type": "constant", "value": 0.5}',
     '"f_re": {"type": "constant", "value": 0.5}, "f_re": {"type": "constant", "value": 0.0}',
     [], "hamiltonian.f_re"),
    ('"dt": 0.001', '"dt": 0.1, "dt": 0.001', [], "run.dt"),
    ('"value": 0.5', '"value": 0.5, "value": 0.0', [], "hamiltonian.f_re.value"),
    ('"dt": 0.001', '"dt": 0.001, "tolerances": {"closure": 1e-5, "closure": 1}', [],
     "run.tolerances.closure"),
    # a sequence field must be a list: 5 was iterated by Python, {"a": 1} read as
    # its keys and "12" as its characters
    ('"coeffs": [0.2, 0.01]', '"coeffs": 5', [], "hamiltonian.g.coeffs"),
    ('"f_re": {"type": "constant", "value": 0.5}',
     '"f_re": {"type": "tabulated", "times": {"a": 1}, "values": [1, 2]}', [],
     "hamiltonian.f_re.times"),
    ('"f_re": {"type": "constant", "value": 0.5}',
     '"f_re": {"type": "tabulated", "times": [0, 2], "values": "12"}', [],
     "hamiltonian.f_re.values"),
    # as an empty path did, a path naming a directory wrote a hidden "dir/.csv"
    # (or "dir/-000.csv" in a sweep)
    ('"format": "csv"', '"format": "csv", "path": "no-such-dir/"', [], "output.path"),
    ("", "", ["--out", "no-such-dir/."], "output.path"),
    ("", "", ["--sweep", "2", "--out", "no-such-dir/.."], "output.path"),
])
def test_main_bad_input_exit_2_with_path(tmp_path, capsys, old, new, flags, path):
    assert old in GOOD
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(GOOD.replace(old, new))
    mode, *flags = flags if flags and flags[0] in MODES else ["invariants", *flags]
    assert main([mode, "--config", str(cfg_path), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("data", [
    b'{"run": ' + b"[" * 100_000,  # nesting past the recursion limit
    b'{"run": {"dt": ' + b"1" * 5000 + b"}}",  # an integer past Python's digit limit
    b'{"output": {"path": "caf\xe9.csv"}}',  # Latin-1, not UTF-8
], ids=["nesting", "digits", "latin-1"])
def test_malformed_document_is_a_config_error(tmp_path, capsys, data):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_bytes(data)
    assert main(["invariants", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: <document>: ") and err.count("\n") == 1, err
    if data.isascii():
        with pytest.raises(ConfigError) as info:
            parse_config(data.decode())
        assert info.value.path == "<document>"


def test_config_is_validated_however_it_is_built():
    cfg = parse_config(GOOD)
    with pytest.raises(FrozenInstanceError):
        cfg.dt = -1.0
    with pytest.raises(ConfigError) as err:
        replace(cfg, dt=-1.0)
    assert err.value.path == "run.dt"
    # nu0 = (1, 1, 0) is off the ladder shell: a phases config reports it,
    # where a phases run of an invariants config used to blame run.dt
    off_shell = GOOD.replace("[[1, 0], [0, 0], [0, 0]]", "[[1, 0], [1, 0], [0, 0]]")
    for build in (lambda: parse_config(off_shell.replace('"invariants"', '"phases"')),
                  lambda: replace(parse_config(off_shell), mode="phases")):
        with pytest.raises(ConfigError) as err:
            build()
        assert err.value.path == "initial.nu0"


@pytest.mark.parametrize("mode, key, vector", [
    ("invariants", "nu0", [[1e200, 0], [0, 0], [0, 0]]),
    ("reduce", "epsilon0", [[1e200, 0], [0, 0]]),
    ("evolve", "state", [[0, 0], [0, -1e200]]),
])
def test_huge_initial_vector_rejected_with_path(tmp_path, capsys, mode, key, vector):
    # finite, but lambda1, lambda2 or the norm would overflow, or so small
    # that B, lambda2 or the norm vanishes and every check passes on nothing;
    # at either bound (on each part) every mode still runs to a verdict
    # without an overflow
    doc = {"hamiltonian": {"f_re": {"type": "constant", "value": 0.5}},
           "run": {"t_final": 0.01}, "initial": {key: vector}}
    cfg_path = tmp_path / "scenario.json"
    for modulus, codes in ((1e200, {2}), (MAX_INITIAL_ABS, {0, 1}),
                           (1e-200, {2}), (1e-320, {2}), (MIN_INITIAL_ABS, {0, 1})):
        doc["initial"][key] = [[x and np.copysign(modulus, x) for x in p] for p in vector]
        cfg_path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([mode, "--config", str(cfg_path)]) in codes
        assert (f"initial.{key}" in capsys.readouterr().err) == (codes == {2})
    # both parts finite but the modulus not: still a config error, not an OverflowError
    doc["initial"][key] = [[1.7e308, 1.7e308] if any(p) else p for p in vector]
    cfg_path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([mode, "--config", str(cfg_path)]) == 2
    assert f"initial.{key}" in capsys.readouterr().err


def _write_doc(tmp_path, hamiltonian, **run):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps({"hamiltonian": hamiltonian, "run": run}))
    return str(cfg_path)


def test_forcing_gate_reads_every_grid_node(tmp_path, capsys):
    # f = 0.5 sin(6.4 pi t) vanishes at every t = k t_final / 64, the points
    # of the old 65-point probe, which judged it free and applied
    # coherence_eigen (4.98e-2, FAIL); on the grid max |f| is 0.5
    path = _write_doc(tmp_path, {"f_re": {"type": "sinusoid", "amplitude": 0.5,
                                          "frequency": 6.4 * np.pi}}, t_final=10.0, dt=1e-3)
    assert main(["coherence", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "[pass] forcing_witness" in out and "coherence_eigen" not in out


@pytest.mark.parametrize("mode", ["invariants", "reduce"])
def test_huge_signal_rejected_with_path(tmp_path, capsys, mode):
    # a constant f of 1e150 used to end in "nonfinite nu state at t=0.001"
    path = _write_doc(tmp_path, {"f_re": {"type": "constant", "value": 1e150}}, t_final=0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([mode, "--config", path]) == 2
    err = capsys.readouterr().err
    assert "hamiltonian.f_re: 1e+150 at t=0.0: dt" in err and "run.dt" in err


def test_huge_constant_g_leaves_the_invariance_residual(tmp_path, capsys):
    # g 1 commutes with B; forming h11 - h00 = (omega + g) - g used to round
    # omega away at g = 1e150 and fail invariance_residual at 1.0
    residual = {}
    for g in (0.0, 1e150):
        path = _write_doc(tmp_path, {"f_re": {"type": "constant", "value": 0.5},
                                     "g": {"type": "constant", "value": g}}, t_final=1.0)
        assert main(["invariants", "--config", path]) == 0
        line = next(x for x in capsys.readouterr().out.splitlines() if "invariance_residual" in x)
        residual[g] = line.split("value=")[1].split()[0]
    assert residual[1e150] == residual[0.0]


@pytest.mark.parametrize("mode", MODES)
def test_nonfinite_g_rejected_with_path_in_every_mode(tmp_path, capsys, mode):
    for g, dt, message in (
            # g = 1e306 t^3 overflows at t = 5.65: the oracle used to end in the
            # path-less "nonfinite propagator step at t=4.48" after a RuntimeWarning,
            # phases failed on a nan phase_consistency, and reduce, which reads no g,
            # passed
            ({"type": "polynomial", "coeffs": [0, 0, 0, 1e306]}, 0.01,
             "hamiltonian.g: inf at t=5.65: not finite"),
            # g = 1e308 is finite, but theta = int g overflows at t = 1.797: the
            # oracle ended in the path-less "nonfinite propagator step at t=1.797",
            # phases wrote -inf phases after a RuntimeWarning, and reduce passed
            ({"type": "constant", "value": 1e308}, 1e-3,
             "hamiltonian.g: 1e+308 at t=0.899: theta = int (g + omega/2) passes "
             "8.99e+307, half the largest float")):
        path = _write_doc(tmp_path, {"g": g, "f_re": {"type": "constant", "value": 0.5}},
                          t_final=10.0, dt=dt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([mode, "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["invariants", "reduce", "phases", "all"])
def test_nonfinite_f_im_is_blamed_on_f_im(tmp_path, capsys, mode):
    # f = re + 1j * im made 0 * inf a nan in the real part, and the gate blamed f_re
    path = _write_doc(tmp_path, {"omega": {"type": "constant", "value": 1.0},
                                 "f_re": {"type": "constant", "value": 0.5},
                                 "f_im": {"type": "sinusoid", "amplitude": 1e308,
                                          "offset": 1e308, "phase": 1.3}}, t_final=1.0)
    assert main([mode, "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert "hamiltonian.f_im: inf at t=0.0: not finite" in capsys.readouterr().err


def test_overflowing_forcing_rejected_without_a_warning(tmp_path, capsys):
    # f = 1e306 t^3 overflows on the late nodes; the gate names the first node
    # past the bound, and the overflow used to print a RuntimeWarning before it
    path = _write_doc(tmp_path, {"f_re": {"type": "polynomial", "coeffs": [0, 0, 0, 1e306]}},
                      t_final=10.0, dt=0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evolve", "--config", path]) == 2
    assert "hamiltonian.f_re: 1e+300 at t=0.01: dt" in capsys.readouterr().err


def test_overflowing_tabulated_spline_rejected_without_a_warning(tmp_path, capsys):
    cfg_path = tmp_path / "scenario.json"
    for name, times, values in (
            # 1e10 over a 1e-300 step overflows the spline's slopes: scipy used
            # to warn and then reject them in its own words
            ("f_re", [0.0, 1e-300, 1.0], [0.0, 1e10, 0.0]),
            # steps of 2e-313 and 4e-20: scipy's solve warned that its system
            # is ill-conditioned before the run failed on the range
            ("omega", [0.0, 2.2250738585e-313, 4.0e-20], [1.0, 2.0, 3.0])):
        cfg_path.write_text(json.dumps({"hamiltonian": {name: {
            "type": "tabulated", "times": times, "values": values}}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["evolve", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: hamiltonian.{name}: the cubic spline")
        assert err.count("\n") == 1


def test_overflowing_epsilon_steps_fail_without_a_warning(tmp_path, capsys):
    # f passes the resolution gate, but f'/f ~ 1e150 overflows the epsilon
    # generator's RK4 steps, which used to print four RuntimeWarnings first
    path = _write_doc(tmp_path, {
        "f_re": {"type": "sinusoid", "frequency": -1e150, "phase": -1e150,
                 "offset": 1.192092896e-07},
        "g": {"type": "sinusoid", "phase": -1e150, "frequency": 1e-300,
              "offset": 1.192092896e-07},
        "f_im": {"type": "sinusoid"}}, t_final=0.002, dt=0.001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["reduce", "--config", path]) == 2
    assert capsys.readouterr().err == "error: nonfinite epsilon state at t=0.001\n"


def test_evolve_unitarity_drift_keeps_a_nan():
    # a nan in u01 spoils only the second and third entries of U'U - 1
    from types import SimpleNamespace

    from ffo.cli import _run_evolve

    unitary = evolve_unitary(GridSamples(random_spec(np.random.default_rng(0)), 1.0, 1e-2))
    unitary.U[50, 0, 1] = np.nan
    sc = SimpleNamespace(unitary=unitary, cfg=SimpleNamespace(state0=np.array([1.0, 0.0])))
    _, checks = _run_evolve(sc, dict(CHECK_TOLERANCES))
    assert checks[0]["name"] == "unitarity_drift"
    assert np.isnan(checks[0]["value"]) and not checks[0]["passed"]


@pytest.mark.parametrize("g", [10.0, 100.0])
def test_constant_g_passes_phases(tmp_path, g):
    # g only turns the global phase; differencing that phase cost the
    # Schrodinger check about g^3 dt^2/6 (2.2e-4 at g = 10, 0.17 at g = 100)
    path = _write_doc(tmp_path, {"f_re": {"type": "constant", "value": 0.5},
                                 "g": {"type": "constant", "value": g}}, t_final=1.0, dt=1e-3)
    assert main(["phases", "--config", path]) == 0


_README_SCENARIO = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                                "readme_scenario.json")


def test_only_evolve_builds_the_unitary_matrix(tmp_path, monkeypatch):
    # the oracle checks read the Cayley-Klein pair; evolve reads U's entries
    with open(_README_SCENARIO, encoding="utf-8") as fh:
        doc = json.load(fh)
    del doc["output"]
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(doc))
    reads, build = [], UnitaryTrajectory.U.func
    monkeypatch.setattr(UnitaryTrajectory, "U", property(lambda u: reads.append(u) or build(u)))
    for mode in ("invariants", "reduce", "coherence", "all", "evolve"):
        reads.clear()
        assert main([mode, "--config", str(cfg_path), "--out", str(tmp_path / mode)]) == 0
        assert bool(reads) == (mode == "evolve"), mode


@pytest.mark.parametrize("t_final", [2.0, 10.0])
def test_oracle_deviation_matches_the_matrix_transport(t_final):
    from ffo.cli import _oracle_deviation

    rng = np.random.default_rng(2718)
    for k in range(4):
        samples = GridSamples(random_spec(rng, f_floor=k % 2 == 1), t_final, 1e-3)
        nu0 = rng.normal(size=3) + 1j * rng.normal(size=3)  # complex, nu_3 != 0
        nu, u = integrate_nu(samples, nu0).nu, evolve_unitary(samples)
        oracle = u.U @ build_B_array(nu0) @ np.conj(np.transpose(u.U, (0, 2, 1)))
        want = np.max(np.abs(build_B_array(nu) - oracle), axis=(1, 2))
        scale = np.sqrt(motion_constants(nu0).lambda2)
        assert np.max(np.abs(_oracle_deviation(u, nu0, nu) - want)) <= 1e-14 * scale


def test_phases_check_values_do_not_depend_on_g(tmp_path):
    # the checks run on the traceless H0, and g enters only theta: g = 1e8
    # used to fail schrodinger (1.26e-4) and g = 1e150 both checks
    with open(_README_SCENARIO, encoding="utf-8") as fh:
        doc = json.load(fh)
    del doc["output"]
    checks = []
    for g in ({"type": "constant", "value": 0.0}, {"type": "constant", "value": 10.0},
              {"type": "constant", "value": 1e8}, {"type": "constant", "value": 1e150},
              {"type": "polynomial", "coeffs": [0.0, 1e6]}):
        doc["hamiltonian"]["g"] = g
        cfg_path, out = tmp_path / "scenario.json", tmp_path / "report.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["phases", "--config", str(cfg_path), "--format", "json",
                     "--out", str(out)]) == 0, g
        checks.append(json.loads(out.read_text())["checks"])
    assert all(c == checks[0] for c in checks[1:])


@pytest.mark.parametrize("mode", ["invariants", "evolve", "reduce"])
def test_check_values_do_not_depend_on_the_scale_of_the_initial_vector(mode):
    # nu0 -> c nu0 scales B by c and the constants by c^2, state0 -> c state0
    # scales the norm by c, and epsilon0 -> c epsilon0 scales nu by c^2; the
    # checks are read relative to lambda2(0), the initial norm and
    # n = |eps0|^2 + |eps0'|^2 (nu0 = (1e4, 0, 0) used to fail three invariants
    # checks, epsilon0 = 1e3 (1, 0.3i) three reduce checks)
    values = {}
    for c in (1.0, 2.0**-20, 2.0**20, 1e-4, 1e-3, 1e3, 1e4):
        cfg = parse_config(json.dumps(dict(_README_DOC, initial={
            "nu0": [[c, 0], [0, 0], [0, 0]], "state": [[c, 0], [0, 0]],
            "epsilon0": [[c, 0], [0, 0.3 * c]]})))
        report, _ = run(replace(cfg, mode=mode))
        assert report.passed
        values[c] = [check["value"] for check in report.checks]
    # a power of two scales every step exactly
    assert values[2.0**-20] == values[1.0] == values[2.0**20]
    for c in (1e-4, 1e-3, 1e3, 1e4):
        assert np.allclose(values[c], values[1.0], rtol=0.0, atol=1e-12), c


def test_phases_sweep_through_pinches_of_nu_minus_passes():
    # scenario 000's nu_minus falls to 2e-6: a gauge keyed on nu_minus alone
    # turned by about 0.9 rad per step there (phase_consistency 0.13)
    assert main(["phases", "--sweep", "4", "--seed", "0", "--t-final", "10"]) == 0


def test_phases_through_a_zero_of_nu_minus_passes(tmp_path):
    # omega = 0, f = 0.5: nu_minus = cos^2(t/2) is 0 at t = pi
    path = _write_doc(tmp_path, {"omega": {"type": "constant", "value": 0.0},
                                 "f_re": {"type": "constant", "value": 0.5}}, t_final=8.0, dt=1e-3)
    assert main(["phases", "--config", path]) == 0


def test_phases_builds_the_frame_and_phases_once(monkeypatch, tmp_path):
    # the vacuum is exp(i phi0) e0 from the phases the runner already has;
    # both module names are counted, so a second build inside ffo.states shows
    import ffo.states

    calls = []
    original = ffo.states.lr_phases

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (ffo.cli, ffo.states):
        monkeypatch.setattr(module, "lr_phases", counting)
    path = _write_doc(tmp_path, {"omega": {"type": "constant", "value": 0.0},
                                 "f_re": {"type": "constant", "value": 0.5}}, t_final=8.0, dt=1e-3)
    assert main(["phases", "--config", path]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("mode", ["evolve", "invariants", "phases"])
def test_unresolved_grid_rejected_before_any_integration(tmp_path, capsys, mode):
    # omega dt = 1.5: evolve used to pass (unitarity holds for any Magnus U)
    # while invariants reported an oracle deviation of 1.0
    doc = {"omega": {"type": "constant", "value": 1500.0},
           "f_re": {"type": "constant", "value": 0.5}}
    assert main([mode, "--config", _write_doc(tmp_path, doc, t_final=1.0, dt=1e-3)]) == 2
    assert "hamiltonian.omega: 1500.0 at t=0.0: dt" in capsys.readouterr().err
    # dt r just below the bound runs to a verdict
    doc["omega"]["value"] = 999.0
    assert main([mode, "--config", _write_doc(tmp_path, doc, t_final=1.0, dt=1e-3)]) in (0, 1)


def test_resolution_gate_names_the_dominating_signal_and_a_nan(nan_forcing_spec):
    cfg = replace(parse_config(GOOD), spec=HamiltonianSpec(
        omega=Sinusoid(0.3, 1.0, offset=1.0),
        f=ComplexSignal(Polynomial((0.5,)), Polynomial((0.0, 0.0, 300.0))), g=Polynomial((0.0,))))
    # 2 |Im f| = 600 t^2 passes 1/dt first at t = 1.291
    with pytest.raises(ConfigError, match=r"at t=1\.291\d*: dt") as err:
        run(cfg)
    assert err.value.path == "hamiltonian.f_im"
    with pytest.raises(ConfigError, match=r"nan at t=1\.251\d*: not finite") as err:
        run(replace(cfg, spec=nan_forcing_spec, mode="evolve"))
    assert err.value.path == "hamiltonian.f_re"


def test_main_checks_overrides_against_tabulated_range_and_ladder_shell(tmp_path, capsys):
    # validate runs again after --t-final and the mode argument override the document
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(GOOD.replace(
        '"f_re": {"type": "constant", "value": 0.5}',
        '"f_re": {"type": "tabulated", "times": [-1, 2.0], "values": [0.5, 0.5]}'))
    assert main(["invariants", "--config", str(cfg_path)]) == 0
    assert main(["invariants", "--config", str(cfg_path), "--t-final", "2.5"]) == 2
    assert "hamiltonian.f_re.times" in capsys.readouterr().err
    cfg_path.write_text(GOOD.replace('"nu0": [[1, 0], [0, 0]', '"nu0": [[1, 0], [1, 0]'))
    assert main(["invariants", "--config", str(cfg_path)]) == 0
    for mode in ("phases", "all"):
        capsys.readouterr()
        assert main([mode, "--config", str(cfg_path)]) == 2
        assert "initial.nu0" in capsys.readouterr().err


def test_main_accepts_tabulated_signal_ending_at_t_final(tmp_path, capsys):
    # 3 * 0.1 is 0.30000000000000004; the grid must still end at t_final = 0.3
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps({
        "hamiltonian": {"f_re": {"type": "tabulated", "times": [0, 0.3], "values": [1, 2]}},
        "run": {"t_final": 0.3, "dt": 0.1}}))
    assert main(["evolve", "--config", str(cfg_path)]) == 0
    # invariants runs too; its checks may fail at this coarse dt, its config may not
    assert main(["invariants", "--config", str(cfg_path)]) != 2
    assert "config error" not in capsys.readouterr().err


# the README scenario, and one whose f_re is tabulated
_README_DOC = dict(json.loads(GOOD), run={"mode": "invariants", "t_final": 10.0, "dt": 0.001},
                   output={"format": "csv", "fields": ["t", "lambda2", "oracle_dev"]})
_TABULATED_DOC = {
    "hamiltonian": {"omega": {"type": "constant", "value": 1.0},
                    "f_re": {"type": "tabulated", "times": [0, 0.5, 1.0, 1.5, 2.0],
                             "values": [0.5, 0.6, 0.55, 0.45, 0.5]},
                    "f_im": {"type": "constant", "value": 0.1}},
    "run": {"t_final": 2.0, "dt": 0.001}}


@pytest.mark.parametrize("doc, loads_scipy", [(_README_DOC, False), (_TABULATED_DOC, True)],
                         ids=["readme", "tabulated"])
def test_fresh_run_imports_scipy_only_for_a_tabulated_signal(tmp_path, doc, loads_scipy):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(doc))
    script = ("import sys\n"
              "from ffo.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(code, 'scipy' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(ffo.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script, "all", "--config", str(cfg_path),
                           "--out", str(tmp_path / "out.csv")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {loads_scipy}"


def test_fresh_process_imports_orjson_only_to_write_csv(tmp_path):
    # config parsing and a JSON-only run leave orjson unloaded; a CSV run loads it
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(_README_DOC))
    script = ("import sys\n"
              "from ffo.cli import main, parse_config\n"
              "parse_config(open(sys.argv[1]).read())\n"
              "print('loaded', 'orjson' in sys.modules)\n"
              "for fmt in ('json', 'csv'):\n"
              "    code = main(['invariants', '--config', sys.argv[1], '--format', fmt,\n"
              "                 '--out', sys.argv[2] + '.' + fmt])\n"
              "    print('loaded', code, 'orjson' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(ffo.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script, str(cfg_path), str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = [line for line in proc.stdout.splitlines() if line.startswith("loaded ")]
    assert loaded == ["loaded False", "loaded 0 False", "loaded 0 True"]
    assert (tmp_path / "out.csv").read_text().startswith("t,lambda2,oracle_dev\n")


@pytest.mark.parametrize("mode", ["phases", "all"])
def test_coarse_grid_off_the_ladder_shell_names_run_dt(tmp_path, capsys, mode):
    # nu0 is on the shell, but RK4 at dt = 0.1 lets lambda1 drift to ~2e-5
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps({
        "hamiltonian": {"f_re": {"type": "tabulated", "times": [0, 0.3], "values": [1, 2]}},
        "run": {"t_final": 0.3, "dt": 0.1}}))
    assert main([mode, "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "config error: run.dt" in err and "lambda1" in err


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
_VALUE = st.floats(-3, 3) | st.sampled_from([0.0, 1e-300, 1e150, -1e150, True, "1"])
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
        {}, optional={"format": st.sampled_from(["csv", "json"]), "path": st.none(),
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
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(argv) in (0, 1, 2)
    assert err.getvalue().count("\n") <= 1, err.getvalue()


def test_all_mode_builds_u_once_and_nu_once(monkeypatch, tmp_path):
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
    # U feeds invariants, coherence and reduce's closure; one nu solve from
    # nu0 feeds invariants and phases
    assert calls == {"evolve_unitary": 1, "integrate_nu": 1}


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
    report, _ = run(replace(parse_config(GOOD), mode="grassmann-selftest", t_final=3.142))
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


@pytest.mark.parametrize("flags", [[], ["--sweep", "8"]])
def test_unknown_output_field_rejected_before_any_scenario_runs(monkeypatch, tmp_path, capsys,
                                                                 flags):
    import ffo.cli

    def no_scenario(*args):
        raise AssertionError("a scenario ran before output.fields was checked")

    doc = json.loads(GOOD)
    doc["output"]["fields"] = ["t", "bogus"]
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(doc))
    argv = ["invariants", "--config", str(cfg_path), "--out", str(tmp_path / "s.csv"), *flags]
    with monkeypatch.context() as patch:
        patch.setattr(ffo.cli, "integrate_nu", no_scenario)
        assert main(argv) == 2
    assert "output.fields: unknown column 'bogus'" in capsys.readouterr().err
    # a JSON report has no columns to select, so the fields are not checked
    assert main([*argv, "--format", "json"]) == 0


@pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
def test_output_fields_are_checked_against_the_mode_run(tmp_path, capsys, fmt):
    # no run.mode in the document: its fields name columns of the phases table
    doc = json.loads(GOOD)
    del doc["run"]["mode"]
    doc["output"].update(path=str(tmp_path / "p.csv"), fields=["t", "phi0"])
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["phases", "--config", str(cfg_path), "--t-final", "0.5", *fmt]) == 0
    if not fmt:
        assert (tmp_path / "p.csv").read_text().splitlines()[0] == "t,phi0"


def test_main_sweep_honours_output_fields(tmp_path, capsys):
    doc = json.loads(GOOD)
    doc["output"]["fields"] = ["t", "lambda2"]
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "s.csv"
    assert main(["invariants", "--config", str(cfg_path), "--sweep", "2",
                 "--t-final", "0.5", "--out", str(out)]) == 0
    for i in range(2):
        assert (tmp_path / f"s-{i:03d}.csv").read_text().splitlines()[0] == "t,lambda2"
    doc["output"]["fields"] = ["t", "bogus"]
    cfg_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["invariants", "--config", str(cfg_path), "--sweep", "2",
                 "--t-final", "0.5", "--out", str(out)]) == 2
    assert "output.fields" in capsys.readouterr().err


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
    import ffo.grid

    def no_grid(*args):
        raise AssertionError("a grid was built for an oversized scenario")

    # every scenario grid is built by GridSamples
    monkeypatch.setattr(ffo.grid, "time_grid", no_grid)
    assert main(["invariants", "--sweep", "1", "--t-final", "1e13", "--dt", "1e-3"]) == 2
    assert "run.t_final" in capsys.readouterr().err
    cfg = parse_config(GOOD)
    with pytest.raises(ConfigError, match="run.t_final"):
        replace(cfg, t_final=MAX_GRID_POINTS * cfg.dt)
    replace(cfg, t_final=(MAX_GRID_POINTS - 1) * cfg.dt)


def test_main_evolve_matches_the_propagator(tmp_path):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(GOOD.replace('"initial": {', '"initial": {"state": [[0.6, 0], [0, 0.8]], '))
    out = tmp_path / "evolve.csv"
    assert main(["evolve", "--config", str(cfg_path), "--out", str(out)]) == 0
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    cfg = parse_config(cfg_path.read_text())
    a0, a1 = apply_unitary(evolve_unitary(GridSamples(cfg.spec, cfg.t_final, cfg.dt)).U,
                           [0.6, 0.8j])
    assert np.max(np.abs(table[:, 1] + 1j * table[:, 2] - a0)) < 1e-14
    assert np.max(np.abs(table[:, 3] + 1j * table[:, 4] - a1)) < 1e-14
    assert np.max(np.abs(table[:, 5] - 1.0)) < 1e-12


def test_main_coherence_sweep_passes():
    # free sweep specs need a fourth-order oracle to meet zeta_ratio at dt=1e-3
    assert main(["coherence", "--sweep", "8", "--seed", "0", "--t-final", "10"]) == 0


def test_flag_overrides():
    report, _ = run(replace(parse_config(GOOD), mode="coherence"))
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
    report, _ = run(parse_config(cfg_path.read_text()))
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


def _counted_spec(calls):
    from test_invariants import _Counted

    return HamiltonianSpec(
        omega=_Counted(Sinusoid(0.3, 1.0, offset=1.0), calls, "omega"),
        f=ComplexSignal(_Counted(Sinusoid(0.1, 0.7, offset=0.5), calls, "f_re"),
                        _Counted(Sinusoid(0.2, 0.5), calls, "f_im")),
        g=_Counted(Polynomial((0.2, 0.01)), calls, "g"))


def _grid_names(t_final, dt):
    times = time_grid(t_final, dt)
    return {times.tobytes(): "nodes", (times[:-1] + 0.5 * dt).tobytes(): "mids"}


def _own_nodes(monkeypatch, calls):
    """Drop from ``calls`` what the propagator samples at its own Gauss nodes."""
    import ffo.cli

    oracle = ffo.cli.evolve_unitary

    def own_nodes(*args):
        start = len(calls)
        out = oracle(*args)
        del calls[start:]
        return out

    monkeypatch.setattr(ffo.cli, "evolve_unitary", own_nodes)


def test_reduce_samples_what_integrate_epsilon_needs_once(monkeypatch):
    calls: list = []
    _own_nodes(monkeypatch, calls)
    cfg = ScenarioConfig(spec=_counted_spec(calls), mode="reduce", t_final=1.0)
    report, _ = run(cfg)
    assert report.passed
    grids = _grid_names(cfg.t_final, cfg.dt)
    got = sorted((name, method, grids.get(grid, "other")) for name, method, grid in calls)
    # integrate_epsilon reads f, f', omega and omega' on both grids; every
    # other consumer (nu(eps), lambda2(eps)) shares them; the scenario gates
    # read g on the nodes, which no reduce consumer does; the closure's oracle
    # samples H at its own Gauss nodes and is left out
    assert got == sorted([(name, method, grid) for name in ("omega", "f_re", "f_im")
                          for method in ("value", "d1") for grid in ("nodes", "mids")]
                         + [("g", "value", "nodes")])


def test_reduce_takes_abs_f_once_per_grid(monkeypatch):
    # the gates, integrate_epsilon, nu(eps) and lambda2(eps) all read Samples.abs_f
    import ffo.cli

    sample_sets, taken, real_abs = [], [], np.abs

    class Tracked(GridSamples):
        def __init__(self, *args):
            super().__init__(*args)
            sample_sets.append(self)

    def counting_abs(x, *args, **kwargs):
        taken.append(x)
        return real_abs(x, *args, **kwargs)

    monkeypatch.setattr(ffo.cli, "GridSamples", Tracked)
    monkeypatch.setattr(np, "abs", counting_abs)
    report, _ = run(ScenarioConfig(spec=random_spec(np.random.default_rng(0), f_floor=True),
                                   mode="reduce", t_final=1.0))
    assert report.passed
    (s,) = sample_sets
    assert [sum(x is f for x in taken) for f in (s.f, s.mids.f)] == [1, 1]


def test_all_mode_repeats_no_grid_evaluation_and_drops_the_samples(monkeypatch):
    import weakref

    import ffo.cli

    calls: list = []
    sample_sets = []

    class Tracked(GridSamples):
        def __init__(self, *args):
            super().__init__(*args)
            sample_sets.append(weakref.ref(self))

    # the propagator samples H at its own Gauss nodes, never the sample set
    _own_nodes(monkeypatch, calls)
    monkeypatch.setattr(ffo.cli, "GridSamples", Tracked)
    cfg = ScenarioConfig(spec=_counted_spec(calls), mode="all", t_final=1.0)
    report, tables = run(cfg)
    assert report.passed and "reduce" in tables
    grids = _grid_names(cfg.t_final, cfg.dt)
    assert len(calls) == len(set(calls))
    assert {(name, grids[grid]) for name, _, grid in calls if grid in grids} >= {
        ("omega", "nodes"), ("omega", "mids"), ("g", "nodes"), ("f_re", "mids")}
    # the mode gates read |f| on the grid nodes: no evaluation off the grid
    assert [call for call in calls if call[2] not in grids] == []
    # one sample set per scenario, gone once run() has returned
    assert len(sample_sets) == 1 and sample_sets[0]() is None


@settings(max_examples=15, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_entrywise_runner_quantities_match_their_matrix_forms(seed):
    # the runners' per-point algebra against stacked matrix products
    rng = np.random.default_rng(seed)
    nu0, eps0, state0 = (tuple(rng.normal(size=n) + 1j * rng.normal(size=n)) for n in (3, 2, 2))
    cfg = ScenarioConfig(spec=random_spec(rng, f_floor=True), t_final=0.2, dt=1e-3, nu0=nu0,
                         epsilon0=eps0, state0=state0)
    samples = GridSamples(cfg.spec, cfg.t_final, cfg.dt)
    u = evolve_unitary(samples).U
    ud = np.conj(np.swapaxes(u, 1, 2))

    def runner(mode):
        report, tables = run(replace(cfg, mode=mode))
        return {c["name"]: c["value"] for c in report.checks}, dict(zip(*tables[mode]))

    _, cols = runner("invariants")
    traj = integrate_nu(samples, nu0)
    want = np.max(np.abs(build_B_array(traj.nu) - u @ build_B_array(nu0) @ ud), axis=(1, 2))
    assert np.max(np.abs(cols["oracle_dev"] - want)) <= 1e-14

    checks, cols = runner("evolve")
    psi = u @ np.asarray(state0)
    assert np.max(np.abs(cols["re_amp0"] + 1j * cols["im_amp0"] - psi[:, 0])) <= 1e-14
    assert np.max(np.abs(cols["re_amp1"] + 1j * cols["im_amp1"] - psi[:, 1])) <= 1e-14
    assert np.max(np.abs(cols["norm"] - np.linalg.norm(psi, axis=1))) <= 1e-14
    assert abs(checks["unitarity_drift"] - np.max(np.abs(ud @ u - np.eye(2)))) <= 1e-14

    _, cols = runner("reduce")
    et = integrate_epsilon(samples, eps0)
    nus = nu_from_epsilon_arrays(samples, et.eps, et.eps_dot)
    want = np.max(np.abs(build_B_array(nus) - u @ build_B_array(nus[0]) @ ud), axis=(1, 2))
    assert np.max(np.abs(cols["closure_dev"] - want)) <= 1e-14

    want = (nu_generator(samples) @ traj.nu[:, :, None])[:, :, 0].T
    assert np.max(np.abs(np.array(_nu_dot(samples, traj.nu)) - want)) <= 1e-14


def _short_axis(a, axis=None) -> bool:
    """Whether a reduction of ``a`` over ``axis`` runs along an axis of length <= 4."""
    a = np.asarray(a)
    axes = () if axis is None else np.atleast_1d(axis)
    return a.size >= 100 and any(a.shape[i] <= 4 for i in axes)


def _refusing(func, offends):
    @functools.wraps(func)
    def guarded(*args, **kwargs):
        if offends(*args, **kwargs):
            raise AssertionError(f"numpy.{func.__name__} across the grid axis")
        return func(*args, **kwargs)
    return guarded


def _complex_einsum_outside_mul(spec, *ops, **kwargs) -> bool:
    """A complex einsum from any caller but the RK4 kernel's ``_mul`` (see ``ffo.grid``)."""
    return (any(np.iscomplexobj(op) for op in ops)
            and sys._getframe(2).f_code is not _mul.__code__)


def test_runners_keep_per_point_algebra_along_the_grid_axis(monkeypatch, tmp_path):
    """No complex einsum and no max, sum or norm over an axis of length <= 4 in any mode.

    Every mode runs on the README scenario with numpy.einsum, numpy.max,
    numpy.sum and numpy.linalg.norm wrapped to refuse such a call; the RK4
    kernel's ``_mul`` alone may call a complex einsum.  Only calls through
    those names are seen: ndarray methods (``x.max(axis=1)``), ufunc
    reductions and the ``@`` operator are not.
    """
    monkeypatch.setattr(np, "einsum", _refusing(np.einsum, _complex_einsum_outside_mul))
    for name in ("max", "sum"):
        monkeypatch.setattr(np, name, _refusing(
            getattr(np, name), lambda a, axis=None, *args, **kw: _short_axis(a, axis)))
    monkeypatch.setattr(np.linalg, "norm", _refusing(
        np.linalg.norm, lambda x, ord=None, axis=None, *args, **kw: _short_axis(x, axis)))
    with pytest.raises(AssertionError):
        np.max(np.ones((50, 3)), axis=1)
    with pytest.raises(AssertionError):
        np.linalg.norm(np.ones((50, 2)), axis=1)
    with pytest.raises(AssertionError):
        np.einsum("ij,j->i", np.eye(2), np.ones(2, dtype=complex))
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(GOOD)
    for mode in MODES:
        out = tmp_path / f"{mode}.csv"
        assert main([mode, "--config", str(cfg_path), "--t-final", "0.5", "--out", str(out)]) == 0

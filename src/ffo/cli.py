"""Scenario runner: ``ffo <mode> --config <path> [flags]``.

Modes
-----
* ``evolve``             state evolution through the propagator
* ``invariants``         coefficient system + constants + oracle comparison
* ``reduce``             epsilon route + closure against the propagator
* ``coherence``          temporal-stability measurement of the canonical CS
* ``phases``             Lewis-Riesenfeld phase trajectory
* ``grassmann-selftest`` algebra + Berezin + completeness checks
* ``all``                everything applicable to the configured spec

The configuration is a strict JSON document (unknown keys are rejected,
with the offending path in the diagnostic); command-line flags override
config fields.  CSV output is UTF-8 with a header row and full
round-trip precision; the JSON report carries ``schema: 1`` and is
byte-deterministic for a given config (wall time goes to the console
only).  Exit code 0 means every check passed, 1 means a check failed
(report still written), 2 means a config or runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import sys
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import islice

import numpy as np

from .errors import ConfigError, FfoError
from .grassmann import (ZETA, ZETA_STAR, GrassmannElement, apply_fermion_op,
                        berezin_integrate, coherent_ket, completeness_check, g_mul)
from .grid import GridSamples, abs2
# build_B_array is not called here, but perfbench/layers.py wraps it by this name
from .invariants import (F_MIN, NuTrajectory, build_B_array, integrate_nu,
                         invariance_residual_max, motion_constants)
from .propagator import UnitaryTrajectory, apply_unitary, evolve_unitary, transport
from .reduction import integrate_epsilon, lambda2_from_epsilon, nu_from_epsilon_arrays
from .signals import (ComplexSignal, Constant, HamiltonianSpec, Polynomial,
                      Signal, Sinusoid, Tabulated)
from .states import (coherence_check, lr_phases, off_ladder_shell, schrodinger_residual_max,
                     vacuum_trajectory)
from .sweeps import random_spec

# default check tolerances; overridable per run via run.tolerances
CHECK_TOLERANCES = {
    "lambda1_drift": 1e-7,
    "lambda2_drift": 1e-7,
    "oracle_deviation": 1e-6,
    "invariance_residual": 1e-5,
    "unitarity_drift": 1e-9,
    "norm_drift": 1e-8,
    "coherence_eigen": 1e-7,
    "zeta_ratio": 1e-8,
    "forcing_witness": 1e-3,
    "closure": 1e-5,
    "lambda1_epsilon": 1e-12,
    "lambda2_pair": 1e-10,
    "phase_consistency": 1e-5,
    "schrodinger": 1e-5,
    "completeness": 1e-14,
    "algebraic": 1e-12,
}

# largest grid a scenario may ask for; larger t_final/dt is a config error
# rather than an unbounded allocation
MAX_GRID_POINTS = 10**6
# largest dt * r on the grid nodes, r = sqrt(omega^2 + 4|f|^2) being nu's
# Bloch rotation rate: RK4 is stable on the imaginary axis only up to
# |z| = 2 sqrt(2), and at z = 0.1 its amplitude error is already ~z^6/144 per
# step, so a step past 1 radian is a grid no check can trust
MAX_STEP_ROTATION = 1.0
# largest real or imaginary part of an initial component (the modulus itself
# may overflow): |eps0| <= 1.5e50 keeps lambda2 =
# (|eps|^2 + |omega eps/2 - i eps'|^2 / |f|^2)^2 / 4 finite for |f| >= F_MIN
MAX_INITIAL_ABS = 1e50
# the floor on an initial vector's largest real or imaginary part: below it
# B, lambda2 ~ |eps|^4 or the norm underflows to (in effect) zero
MIN_INITIAL_ABS = 1e-50

# -- configuration ------------------------------------------------------------

_SIGNAL_KEYS = {
    "constant": {"value"},
    "sinusoid": {"amplitude", "frequency", "phase", "offset"},
    "polynomial": {"coeffs"},
    "tabulated": {"times", "values"},
}


def _finite(x, path: str) -> float:
    # float() would also take JSON's true, false and "0.01"
    if isinstance(x, (bool, str)):
        raise ConfigError(path, "expected a number")
    try:
        x = float(x)
    except OverflowError:
        raise ConfigError(path, "must be finite") from None
    except (TypeError, ValueError):
        raise ConfigError(path, "expected a number") from None
    if not math.isfinite(x):
        raise ConfigError(path, "must be finite")
    return x


def _string(x, path: str) -> str:
    if not isinstance(x, str):
        raise ConfigError(path, "expected a string")
    return x


class _Object(dict):
    repeated = None  # the first key given more than once, if any


def _object(pairs) -> _Object:
    node, seen = _Object(pairs), set()
    if len(node) < len(pairs):
        node.repeated = next(k for k, _ in pairs if k in seen or seen.add(k))
    return node


def _check_keys(node, allowed, path):
    if getattr(node, "repeated", None) is not None:
        raise ConfigError(f"{path}.{node.repeated}", "duplicate key")
    extra = set(node) - set(allowed)
    if extra:
        raise ConfigError(f"{path}.{sorted(extra)[0]}", "unknown key")


def _parse_signal(node, path: str) -> Signal:
    if not isinstance(node, dict):
        raise ConfigError(path, "signal descriptor must be an object")
    kind = node.get("type")
    if not (isinstance(kind, str) and kind in _SIGNAL_KEYS):
        raise ConfigError(f"{path}.type", f"unknown signal type {kind!r}")
    _check_keys(node, _SIGNAL_KEYS[kind] | {"type"}, path)

    def num(key, default):
        return _finite(node.get(key, default), f"{path}.{key}")

    def seq(key, default):
        values = node.get(key, default)
        if not isinstance(values, list):
            raise ConfigError(f"{path}.{key}", "expected a list of numbers")
        return tuple(_finite(x, f"{path}.{key}[{i}]") for i, x in enumerate(values))

    try:
        if kind == "constant":
            return Constant(num("value", 0.0))
        if kind == "sinusoid":
            return Sinusoid(amplitude=num("amplitude", 1.0), frequency=num("frequency", 1.0),
                            phase=num("phase", 0.0), offset=num("offset", 0.0))
        if kind == "polynomial":
            coeffs = seq("coeffs", [0.0])
            if not coeffs:
                raise ConfigError(f"{path}.coeffs", "must not be empty")
            return Polynomial(coeffs)
        return Tabulated(seq("times", []), seq("values", []))
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from None


def _parse_complex_pair(node, path: str) -> complex:
    if not (isinstance(node, (list, tuple)) and len(node) == 2):
        raise ConfigError(path, "expected [re, im]")
    return complex(_finite(node[0], f"{path}[0]"), _finite(node[1], f"{path}[1]"))


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario, valid by construction: building one (directly, through
    ``parse_config`` or through ``dataclasses.replace``) raises a ConfigError
    naming the path of the first invalid field."""

    spec: HamiltonianSpec
    mode: str = "invariants"
    t_final: float = 10.0
    dt: float = 1e-3
    tolerances: dict = field(default_factory=dict)
    nu0: tuple = (1.0 + 0j, 0j, 0j)
    epsilon0: tuple = (1.0 + 0j, 0.3j)
    state0: tuple = (1.0 + 0j, 0j)
    out_format: str = "csv"
    out_path: str | None = None
    fields: list | None = None

    def __post_init__(self):
        for path, x in (("run.dt", self.dt), ("run.t_final", self.t_final)):
            if not math.isfinite(x):
                raise ConfigError(path, "must be finite")
        if self.dt <= 0:
            raise ConfigError("run.dt", "must be positive")
        if self.t_final < 2 * self.dt:  # difference-based checks need an interior point
            raise ConfigError("run.t_final", "must be at least 2 * run.dt")
        if self.t_final / self.dt >= MAX_GRID_POINTS - 0.5:
            raise ConfigError("run.t_final",
                              f"t_final/dt gives more than {MAX_GRID_POINTS} grid points")
        steps = round(self.t_final / self.dt)
        if abs(steps * self.dt - self.t_final) > 1e-9 * max(1.0, self.t_final):
            raise ConfigError("run.t_final",
                              f"{self.t_final} is not an integer multiple of run.dt={self.dt}")
        for name, sig in (("omega", self.spec.omega), ("f_re", self.spec.f.re),
                          ("f_im", self.spec.f.im), ("g", self.spec.g)):
            if isinstance(sig, Tabulated) and not (sig.times[0] <= 0.0
                                                   and self.t_final <= sig.times[-1]):
                raise ConfigError(f"hamiltonian.{name}.times",
                                  f"must cover the grid [0, {self.t_final}]")
        if self.mode not in MODES:
            raise ConfigError("run.mode", f"unknown mode {self.mode!r}")
        if self.out_format not in ("csv", "json"):
            raise ConfigError("output.format", f"unknown format {self.out_format!r}")
        if self.out_path == "":
            raise ConfigError("output.path", "must not be empty")
        for name, tol in self.tolerances.items():
            if name not in CHECK_TOLERANCES:
                raise ConfigError(f"run.tolerances.{name}", "unknown tolerance name")
            if not (math.isfinite(tol) and tol >= 0):
                raise ConfigError(f"run.tolerances.{name}", "must be finite and non-negative")
        # a vanishing nu0, epsilon0 or state gives (in effect) the zero
        # operator B = 0 or the zero state, on which every check passes
        # vacuously; a huge one overflows the constants of motion or the norm
        for path, vec in (("initial.nu0", self.nu0), ("initial.epsilon0", self.epsilon0),
                          ("initial.state", self.state0)):
            largest = max(max(abs(z.real), abs(z.imag)) for z in vec)
            if largest < MIN_INITIAL_ABS:
                raise ConfigError(path, f"every real and imaginary part is below "
                                        f"{MIN_INITIAL_ABS:g}")
            if largest > MAX_INITIAL_ABS:
                raise ConfigError(path, f"a real or imaginary part exceeds {MAX_INITIAL_ABS:g}")
        if self.mode in ("phases", "all") and off_ladder_shell(*motion_constants(self.nu0)):
            raise ConfigError("initial.nu0", "the Lewis-Riesenfeld frame needs lambda1 = 0")


def _section(doc: dict, key: str, allowed) -> dict:
    node = doc.get(key, {})
    if not isinstance(node, dict):
        raise ConfigError(key, "must be an object")
    _check_keys(node, allowed, key)
    return node


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario document (strict JSON schema)."""
    try:
        doc = json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise ConfigError("<document>", f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("<document>", "top level must be an object")
    _check_keys(doc, {"hamiltonian", "run", "initial", "output"}, "<document>")

    ham = _section(doc, "hamiltonian", {"omega", "f_re", "f_im", "g"})
    spec = HamiltonianSpec(
        omega=_parse_signal(ham.get("omega", {"type": "constant", "value": 1.0}),
                            "hamiltonian.omega"),
        f=ComplexSignal(
            _parse_signal(ham.get("f_re", {"type": "constant", "value": 0.0}),
                          "hamiltonian.f_re"),
            _parse_signal(ham.get("f_im", {"type": "constant", "value": 0.0}),
                          "hamiltonian.f_im")),
        g=_parse_signal(ham.get("g", {"type": "constant", "value": 0.0}),
                        "hamiltonian.g"),
    )

    kwargs = {}
    run = _section(doc, "run", {"mode", "t_final", "dt", "tolerances"})
    if "mode" in run:
        kwargs["mode"] = _string(run["mode"], "run.mode")
    for key in ("t_final", "dt"):
        if key in run:
            kwargs[key] = _finite(run[key], f"run.{key}")
    tols = run.get("tolerances", {})
    if not isinstance(tols, dict):
        raise ConfigError("run.tolerances", "must be an object")
    _check_keys(tols, tols, "run.tolerances")  # the names are ScenarioConfig's to check
    kwargs["tolerances"] = {k: _finite(v, f"run.tolerances.{k}") for k, v in tols.items()}

    init = _section(doc, "initial", {"nu0", "epsilon0", "state"})
    for key, name, count in (("nu0", "nu0", 3), ("epsilon0", "epsilon0", 2),
                             ("state", "state0", 2)):
        if key in init:
            node = init[key]
            if not (isinstance(node, list) and len(node) == count):
                raise ConfigError(f"initial.{key}", f"expected {count} [re, im] pairs")
            kwargs[name] = tuple(_parse_complex_pair(p, f"initial.{key}[{i}]")
                                 for i, p in enumerate(node))

    out = _section(doc, "output", {"format", "path", "fields"})
    if "format" in out:
        kwargs["out_format"] = _string(out["format"], "output.format")
    if "path" in out:
        kwargs["out_path"] = _string(out["path"], "output.path")
    if "fields" in out:
        if not isinstance(out["fields"], list):
            raise ConfigError("output.fields", "must be a list of column names")
        kwargs["fields"] = [_string(x, f"output.fields[{i}]")
                            for i, x in enumerate(out["fields"])]

    return ScenarioConfig(spec=spec, **kwargs)


# -- reports and emission -------------------------------------------------------

@dataclass
class RunReport:
    mode: str
    grid: dict
    checks: list            # [{"name", "value", "tolerance", "passed"}]
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_json_obj(self) -> dict:
        # wall time deliberately excluded: report files are byte-deterministic
        return {"schema": 1, "mode": self.mode, "grid": self.grid,
                "drifts": {c["name"]: c["value"] for c in self.checks},
                "checks": self.checks,
                "passed": self.passed}


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _atomic_write(path: str, lines) -> None:
    """Write an iterable of str to ``path`` (UTF-8) through a temporary file
    created, as ``open(path, "w")`` creates one, with mode 0666 less the umask."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# rows handed to the file as one string: few writes, and a writer peak
# memory of one slab's text rather than the whole table's
CSV_SLAB_ROWS = 4096


def _cells(col) -> list:
    """The text of each element of ``col``, as ``_fmt`` gives it.  A float column,
    cast to float64 as ``float(x)`` casts it (a signalling NaN prints ``nan``), is
    written by orjson (imported here: runs writing no CSV never load it), and by
    ``repr`` where orjson's notation differs: nan, inf, 1e-9 <= |x| < 1e-4, |x| >= 1e16."""
    if not (isinstance(col, np.ndarray) and col.dtype.kind == "f"):
        return list(map(_fmt, col))
    import orjson
    with np.errstate(invalid="ignore"):
        wide = np.ascontiguousarray(col, dtype=np.float64)
    text = orjson.dumps(wide, option=orjson.OPT_SERIALIZE_NUMPY).decode()[1:-1].split(",")
    mag = np.abs(wide)
    for i in np.flatnonzero(~((mag < 1e-9) | ((mag >= 1e-4) & (mag < 1e16)))).tolist():
        text[i] = repr(float(wide[i]))
    return text if wide.size else []


def emit_csv(path: str, header: list, columns: list) -> None:
    """Write columns (parallel 1-d arrays) as CSV; atomic replace.

    The rows are written in slabs of ``CSV_SLAB_ROWS``, each one string.
    """

    def slabs():
        yield ",".join(header) + "\n"
        for lo in range(0, min(map(len, columns), default=0), CSV_SLAB_ROWS):
            cells = [_cells(col[lo:lo + CSV_SLAB_ROWS]) for col in columns]
            yield "\n".join(map(",".join, zip(*cells))) + "\n"

    _atomic_write(path, slabs())


def emit_json(path: str, report: RunReport) -> None:
    _atomic_write(path, [json.dumps(report.to_json_obj(), indent=2, sort_keys=True), "\n"])


def _table_select(cfg: ScenarioConfig, header: list, columns: list):
    if not cfg.fields:
        return header, columns
    missing = [f for f in cfg.fields if f not in header]
    if missing:
        raise ConfigError("output.fields", f"unknown column {missing[0]!r}")
    idx = [header.index(f) for f in cfg.fields]
    return [header[i] for i in idx], [columns[i] for i in idx]


# -- mode implementations --------------------------------------------------------

def _check(checks: list, name: str, value: float, tolerance: float, invert=False):
    passed = (value >= tolerance) if invert else (value <= tolerance)
    checks.append({"name": name, "value": float(value),
                   "tolerance": float(tolerance), "passed": bool(passed)})


# all mode's submodes, in run order; reduce runs only where min |f| on the
# grid nodes is at least ALL_REDUCE_MIN_F
ALL = ("grassmann-selftest", "invariants", "coherence", "phases", "reduce")
ALL_REDUCE_MIN_F = 0.1
# the submode whose table a CSV output of all mode holds
ALL_CSV_TABLE = "invariants"


class _Scenario:
    """A scenario's config and planned submodes, and the samples, U and nu
    trajectory the submodes share, each built once.

    nu is solved from nu0 alone, for invariants and phases.  epsilon is
    not shared: reduce alone integrates it, and its closure reads
    nu(epsilon) against the propagator, U B(nu(epsilon)(0)) U'.

    Building one checks the grid against the signals: omega and f must be
    finite on the grid nodes and resolved, dt * r <= MAX_STEP_ROTATION for
    nu's Bloch rotation rate r = sqrt(omega^2 + 4 |f|^2), and g must be
    finite on the grid nodes in every mode, also where no mode reads it,
    and so must U's running phase theta = int (g + omega/2).  A failure is
    a ConfigError naming the dominating signal, the time and the value.
    Where reduce is planned, |f| must be at least F_MIN on the grid nodes
    and the step midpoints, a ConfigError at hamiltonian.f_re otherwise.
    """

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.samples = GridSamples(cfg.spec, cfg.t_final, cfg.dt)
        # a sample that overflows is reported by the gates, with its path, time and value
        with np.errstate(over="ignore", invalid="ignore"):
            self._check_resolution()  # the first read of |f| on the grid nodes
        self.submodes = [cfg.mode]
        if cfg.mode == "all":
            self.submodes = [m for m in ALL if m != "reduce"
                             or float(np.min(self.samples.abs_f)) >= ALL_REDUCE_MIN_F]
        if "reduce" in self.submodes:  # it divides by f, which it samples on both grids
            for s in (self.samples, self.samples.mids):
                k = int(np.argmin(s.abs_f))
                if s.abs_f[k] < F_MIN:
                    raise ConfigError("hamiltonian.f_re", f"|f| = {float(s.abs_f[k])!r} at "
                                      f"t={s.times[k]}: reduce needs |f| >= {F_MIN:g}")

    def _check_resolution(self):
        s = self.samples
        rotation = s.dt * np.hypot(s.omega, 2.0 * s.abs_f)
        bad = ~(rotation <= MAX_STEP_ROTATION)  # a nan sample fails too
        if bad.any():
            k = int(np.argmax(bad))
            values = {"omega": s.omega[k], "f_re": s.f[k].real, "f_im": s.f[k].imag}
            # the signal that dominates r at t_k, a non-finite one first
            size = {n: abs(x) * (1.0 if n == "omega" else 2.0) for n, x in values.items()}
            name = max(size, key=lambda n: size[n] if math.isfinite(size[n]) else math.inf)
            value = float(values[name])
            detail = "not finite" if not math.isfinite(value) else (
                f"dt * sqrt(omega^2 + 4|f|^2) = {rotation[k]:.3g} is above "
                f"{MAX_STEP_ROTATION:g}; use a smaller run.dt")
            raise ConfigError(f"hamiltonian.{name}", f"{value!r} at t={s.times[k]}: {detail}")
        # U's phase theta = int (g + omega/2), which the propagator sums on its Gauss
        # nodes: its trapezoid bound from |g + omega/2| on the grid nodes must stay below
        # half the largest float, so the Gauss-node sum would have to be twice as large
        h, limit = (0.5 * s.dt) * np.abs(s.g + 0.5 * s.omega), 0.5 * np.finfo(float).max
        theta = np.append(0.0, np.cumsum(h[:-1] + h[1:]))
        for bad, detail in ((~np.isfinite(s.g), "not finite"),
                            (~(theta <= limit), f"theta = int (g + omega/2) passes {limit:.3g}, "
                                                "half the largest float")):
            if bad.any():
                k = int(np.argmax(bad))
                raise ConfigError("hamiltonian.g", f"{float(s.g[k])!r} at t={s.times[k]}: {detail}")

    @cached_property
    def unitary(self) -> UnitaryTrajectory:
        return evolve_unitary(self.samples)

    @cached_property
    def nu(self) -> NuTrajectory:
        return integrate_nu(self.samples, self.cfg.nu0)


def _run_evolve(sc: _Scenario, tols: dict):
    (u00, u01), (u10, u11) = np.moveaxis(sc.unitary.U, 0, -1)
    a0, a1 = apply_unitary(sc.unitary.U, sc.cfg.state0)
    # U'U - 1 entrywise: its diagonal is real and its (1, 0) entry the conjugate of (0, 1)
    unit = np.max([np.max(np.abs(abs2(u00) + abs2(u10) - 1.0)),
                   np.max(np.abs(np.conj(u00) * u01 + np.conj(u10) * u11)),
                   np.max(np.abs(abs2(u01) + abs2(u11) - 1.0))])
    norms = np.sqrt(abs2(a0) + abs2(a1))
    checks: list = []
    _check(checks, "unitarity_drift", float(unit), tols["unitarity_drift"])
    # relative to the initial norm, so the verdict does not depend on the state's scale
    _check(checks, "norm_drift", float(np.max(np.abs(norms - norms[0]))) / float(norms[0]),
           tols["norm_drift"])
    cols = [sc.unitary.times, a0.real, a0.imag, a1.real, a1.imag, norms]
    return cols, checks


def _oracle_deviation(unitary: UnitaryTrajectory, nu0, nu) -> np.ndarray:
    """max over the entries of |B(nu(t)) - U(t) B(nu0) U(t)'| per grid point ((1, 1) as (0, 0))."""
    o01, o10, o00 = transport(unitary, nu0)
    return np.maximum(np.maximum(np.abs(nu[:, 0] - o01), np.abs(nu[:, 1] - o10)),
                      np.abs(-0.5 * nu[:, 2] - o00))


def _run_invariants(sc: _Scenario, tols: dict):
    traj = sc.nu
    dev = _oracle_deviation(sc.unitary, sc.cfg.nu0, traj.nu)
    # nu0 -> c nu0 scales B by c and the constants by c^2: the checks read each
    # value relative to lambda2(0) or its root, the CSV columns the raw ones
    lam2_0 = float(traj.lambda2[0])
    checks: list = []
    for name, value, scale in (
            ("lambda1_drift", np.abs(traj.lambda1 - traj.lambda1[0]), lam2_0),
            ("lambda2_drift", np.abs(traj.lambda2 - traj.lambda2[0]), lam2_0),
            ("oracle_deviation", dev, math.sqrt(lam2_0)),
            ("invariance_residual", invariance_residual_max(traj), math.sqrt(lam2_0))):
        _check(checks, name, float(np.max(value)) / scale, tols[name])
    n = traj.nu
    cols = [traj.times, n[:, 0].real, n[:, 0].imag, n[:, 1].real, n[:, 1].imag,
            n[:, 2].real, n[:, 2].imag, np.abs(traj.lambda1), traj.lambda2, dev]
    return cols, checks


def _run_reduce(sc: _Scenario, tols: dict):
    et = integrate_epsilon(sc.samples, sc.cfg.epsilon0)
    nus = nu_from_epsilon_arrays(sc.samples, et.eps, et.eps_dot)
    lam1, lam2_nu = motion_constants(nus)
    lam1 = np.abs(lam1)
    lam2_eps = lambda2_from_epsilon(sc.samples, (et.eps, et.eps_dot))
    closure = _oracle_deviation(sc.unitary, nus[0], nus)
    # epsilon0 -> c epsilon0 scales nu by c^2 and the constants by c^4: the
    # checks read each value relative to n^2 or n, n = |eps|^2 + |eps'|^2 at
    # t = 0, the CSV columns the raw ones
    n = float(abs2(et.eps[0]) + abs2(et.eps_dot[0]))
    checks: list = []
    for name, value, scale in (
            ("lambda1_epsilon", lam1, n * n),
            ("lambda2_drift", np.abs(lam2_nu - lam2_nu[0]), n * n),
            ("lambda2_pair", np.abs(lam2_nu - lam2_eps), n * n),
            ("closure", closure, n)):
        _check(checks, name, float(np.max(value)) / scale, tols[name])
    cols = [et.times, et.eps.real, et.eps.imag, et.eps_dot.real, et.eps_dot.imag,
            nus[:, 0].real, nus[:, 0].imag, nus[:, 1].real, nus[:, 1].imag,
            nus[:, 2].real, nus[:, 2].imag, lam1, lam2_nu, closure]
    return cols, checks


def _run_coherence(sc: _Scenario, tols: dict):
    rep = coherence_check(sc.unitary)
    checks: list = []
    if float(np.max(sc.samples.abs_f)) <= F_MIN:
        _check(checks, "coherence_eigen", float(np.max(rep.eigen_residual)),
               tols["coherence_eigen"])
        ratio_dev = np.max(np.abs(rep.zeta_ratio - np.conj(rep.beta)))
        _check(checks, "zeta_ratio", float(ratio_dev), tols["zeta_ratio"])
    else:
        _check(checks, "forcing_witness", float(np.max(rep.eigen_residual)),
               tols["forcing_witness"], invert=True)
    cols = [sc.samples.times, rep.eigen_residual, rep.zeta_ratio.real, rep.zeta_ratio.imag,
            rep.beta.real, rep.beta.imag]
    return cols, checks


def _run_phases(sc: _Scenario, tols: dict):
    traj = sc.nu
    if off_ladder_shell(traj.lambda1, traj.lambda2):  # validate tests only nu0's lambda1
        raise ConfigError("run.dt", f"lambda1 drifts off the ladder shell to "
                                    f"{np.max(np.abs(traj.lambda1)):.3g}; use a smaller dt")
    ph = lr_phases(traj)
    # psi1 = exp(-i phi0) e1 = (-conj psi0_1, conj psi0_0) is psi0's SU(2)
    # partner and has the same residual, so psi0 alone is checked
    psi0, _ = vacuum_trajectory(ph)
    checks: list = []
    _check(checks, "phase_consistency", ph.consistency_residual, tols["phase_consistency"])
    _check(checks, "schrodinger", schrodinger_residual_max(sc.samples, psi0), tols["schrodinger"])
    cols = [traj.times, ph.phi0 - ph.theta, -ph.phi0 - ph.theta, ph.phi_geometric,
            ph.phi_dynamical]
    return cols, checks


def _run_grassmann(sc: _Scenario, tols: dict):
    checks: list = []
    _check(checks, "completeness", completeness_check(), tols["completeness"])
    _check(checks, "completeness_flip_detector", completeness_check(commuting=True),
           1.0, invert=True)
    ket = coherent_ket(1.0)
    eig = (apply_fermion_op("b", ket) - ZETA * ket).max_abs()
    _check(checks, "cs_eigenvalue", eig, tols["algebraic"])
    beres = abs(berezin_integrate(g_mul(ZETA, ZETA_STAR)) - 1.0)
    _check(checks, "berezin_top", beres, tols["algebraic"])
    # 16 random triples (x, y, z), each (real, imaginary) parts drawn in turn
    r = np.random.default_rng(0).normal(size=(16, 3, 2, 4))
    x, y, z = (GrassmannElement(r[:, i, 0] + 1j * r[:, i, 1]) for i in range(3))
    assoc = (g_mul(g_mul(x, y), z) - g_mul(x, g_mul(y, z))).max_abs()
    _check(checks, "associativity", assoc, tols["algebraic"])
    cols = [[c["name"] for c in checks], [c["value"] for c in checks],
            [c["tolerance"] for c in checks], [c["passed"] for c in checks]]
    return cols, checks


# mode -> (runner, the header of its CSV table, the check a bare --tol overrides);
# runner(scenario, tolerances) returns (CSV columns, checks)
_MODES = {
    "evolve": (_run_evolve, ("t", "re_amp0", "im_amp0", "re_amp1", "im_amp1", "norm"),
               "norm_drift"),
    "invariants": (_run_invariants, ("t", "re_nu_minus", "im_nu_minus", "re_nu_plus",
                                     "im_nu_plus", "re_nu_3", "im_nu_3", "abs_lambda1",
                                     "lambda2", "oracle_dev"), "oracle_deviation"),
    "reduce": (_run_reduce, ("t", "re_eps", "im_eps", "re_eps_dot", "im_eps_dot",
                             "re_nu_minus", "im_nu_minus", "re_nu_plus", "im_nu_plus",
                             "re_nu_3", "im_nu_3", "abs_lambda1", "lambda2", "closure_dev"),
               "closure"),
    "coherence": (_run_coherence, ("t", "eigen_residual", "re_zeta_ratio", "im_zeta_ratio",
                                   "re_beta", "im_beta"), "coherence_eigen"),
    "phases": (_run_phases, ("t", "phi0", "phi1", "phi_geometric", "phi_dynamical"),
               "phase_consistency"),
    "grassmann-selftest": (_run_grassmann, ("check", "value", "tolerance", "passed"),
                           "completeness"),
}
MODES = (*_MODES, "all")


def run(cfg: ScenarioConfig) -> tuple[RunReport, dict]:
    """Execute one scenario in ``cfg.mode``; returns (report, {name: (header, columns)})."""
    tols = {**CHECK_TOLERANCES, **cfg.tolerances}
    t0 = time.perf_counter()
    tables: dict = {}
    checks: list = []
    sc = _Scenario(cfg)
    for sub in sc.submodes:
        runner, header, _ = _MODES[sub]
        cols, c = runner(sc, tols)
        prefix = "" if cfg.mode != "all" else sub + "."
        tables[sub] = (header, cols)
        checks += [dict(item, name=prefix + item["name"]) for item in c]
    grid = {"t_final": cfg.t_final, "dt": cfg.dt, "points": len(sc.samples.times)}
    report = RunReport(mode=cfg.mode, grid=grid, checks=checks,
                       wall_time_s=time.perf_counter() - t0)
    return report, tables


def _output_paths(base: str | None, fmt: str, index: int | None = None):
    if base is None:
        return None
    root, ext = os.path.splitext(base)
    if not ext:
        ext = ".csv" if fmt == "csv" else ".json"
    if index is None:
        return root + ext
    return f"{root}-{index:03d}{ext}"


def _emit(cfg: ScenarioConfig, report: RunReport, tables: dict, path: str | None):
    if path is None:
        return
    if cfg.out_format == "json":
        emit_json(path, report)
        return
    header, cols = tables[ALL_CSV_TABLE if report.mode == "all" else report.mode]
    header, cols = _table_select(cfg, header, cols)
    emit_csv(path, header, cols)


# -- sweeps --------------------------------------------------------------------

def _sweep_scenarios(cfg: ScenarioConfig, count: int, seed: int):
    """The sweep's scenarios in order; every worker replays the same draws."""
    rng = np.random.default_rng(seed)
    mode = cfg.mode if cfg.mode != "all" else "invariants"
    for _ in range(count):
        yield replace(cfg, mode=mode, spec=random_spec(
            rng, f_zero=(mode == "coherence" and rng.uniform() < 0.5),
            f_floor=(mode == "reduce")))


def _sweep_child(cfg: ScenarioConfig, count: int, seed: int, worker: int, workers: int, fd: int):
    """Run the scenarios i with i % workers == worker and pickle to ``fd``, in
    order, each one's (report, CSV table or None) or its exception, then stop.
    Called in a forked child, which it ends through ``os._exit``: it never
    returns into the caller, prints, writes an output file or flushes stdio."""
    status = 1
    try:
        with open(fd, "wb") as pipe:
            for scenario in islice(_sweep_scenarios(cfg, count, seed), worker, None, workers):
                try:
                    report, tables = run(scenario)
                    csv = scenario.out_format == "csv" and scenario.out_path is not None
                    answer = (report, tables[scenario.mode] if csv else None)
                except Exception as exc:  # the parent raises it at this scenario's index
                    answer = exc
                pipe.write(pickle.dumps(answer))
                pipe.flush()
                if isinstance(answer, Exception):
                    break
        status = 0
    finally:
        os._exit(status)


class _SweepWorkers:
    """The workers of a sweep: worker w runs the scenarios i with i % count == w.

    count = min(N, the CPUs this process may run on), or 1 where the platform
    has no ``fork`` or no affinity mask.  Worker 0 is this process, the others
    forked children (``_sweep_child``); if a fork fails, the children forked
    so far are reaped and count is 1.  ``close`` kills and reaps every child.
    """

    def __init__(self, cfg: ScenarioConfig, count: int, seed: int):
        self.count, self.children = 1, {}  # worker -> (pid, read end of its pipe)
        if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
            self.count = min(count, len(os.sched_getaffinity(0)))
        try:
            for worker in range(1, self.count):
                r, w = os.pipe()
                try:
                    pid = os.fork()
                except OSError:  # no process to spare: this process runs every scenario
                    os.close(r)
                    os.close(w)
                    self.close()
                    break
                if pid == 0:
                    _sweep_child(cfg, count, seed, worker, self.count, w)
                os.close(w)
                self.children[worker] = (pid, open(r, "rb"))
        except BaseException:
            self.close()
            raise

    def answer(self, worker: int):
        """Worker ``worker``'s next (report, CSV table or None); raises its exception."""
        pid, pipe = self.children[worker]
        try:
            answer = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            del self.children[worker]
            pipe.close()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            raise FfoError(f"sweep worker {pid} ended without an answer ("
                           + (f"signal {-code})" if code < 0 else f"exit status {code})")) from None
        if isinstance(answer, Exception):
            raise answer
        return answer

    def close(self):
        from signal import SIGKILL  # no import cost where no sweep runs

        children, self.children, self.count = self.children, {}, 1
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, SIGKILL)
        for pid, _ in children.values():
            os.waitpid(pid, 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ffo",
        description="Forced fermion oscillator: invariants, states and checks.")
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", help="scenario JSON document")
    parser.add_argument("--dt", type=float, help="override run.dt")
    parser.add_argument("--t-final", type=float, help="override run.t_final")
    parser.add_argument("--tol", type=float,
                        help="override the mode's primary check tolerance")
    parser.add_argument("--sweep", type=int, metavar="N",
                        help="run N random bounded scenarios instead of the configured one")
    parser.add_argument("--seed", type=int, default=0, help="sweep seed")
    parser.add_argument("--out", help="output file (CSV table or JSON report)")
    parser.add_argument("--format", choices=("csv", "json"), dest="fmt")
    args = parser.parse_args(argv)

    try:
        if args.sweep is not None and args.sweep < 1:
            raise ConfigError("--sweep", "must be at least 1")
        if args.sweep is not None and args.seed < 0:
            raise ConfigError("--seed", "must be non-negative")
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = parse_config(fh.read())
        elif args.mode != "grassmann-selftest" and args.sweep is None:
            print("error: --config is required for this mode", file=sys.stderr)
            return 2
        else:
            cfg = parse_config("{}")
        flags = {name: value for name, value in (("dt", args.dt), ("t_final", args.t_final),
                                                 ("out_format", args.fmt), ("out_path", args.out))
                 if value is not None}
        if args.tol is not None:
            if args.mode not in _MODES:
                raise ConfigError("--tol", f"{args.mode} mode has no primary check; "
                                           "set run.tolerances")
            _, _, primary = _MODES[args.mode]
            flags["tolerances"] = {**cfg.tolerances, primary: args.tol}
        cfg = replace(cfg, mode=args.mode, **flags)
        if cfg.out_format == "csv" and cfg.out_path is not None:  # before any scenario runs
            _, header, _ = _MODES[ALL_CSV_TABLE if cfg.mode == "all" else cfg.mode]
            _table_select(cfg, header, header)

        if args.sweep is not None:
            # one scenario per worker at a time, so no scenario's samples or
            # tables outlive its output; every output is written and printed
            # here, in scenario order, so they equal a one-worker sweep's
            ok, workers = True, _SweepWorkers(cfg, args.sweep, args.seed)
            try:
                for i, scenario in enumerate(_sweep_scenarios(cfg, args.sweep, args.seed)):
                    if i % workers.count == 0:
                        rep, tables = run(scenario)
                    else:
                        rep, table = workers.answer(i % workers.count)
                        tables = {scenario.mode: table}
                    _emit(scenario, rep, tables, _output_paths(cfg.out_path, cfg.out_format, i))
                    status = "pass" if rep.passed else "FAIL"
                    print(f"scenario {i:03d}: {status} "
                          + " ".join(f"{c['name']}={c['value']:.3e}" for c in rep.checks))
                    ok = ok and rep.passed
            finally:
                workers.close()
            print(f"sweep: {args.sweep} scenarios, "
                  f"{'all passed' if ok else 'FAILURES PRESENT'}")
            return 0 if ok else 1

        report, tables = run(cfg)
        _emit(cfg, report, tables, _output_paths(cfg.out_path, cfg.out_format))
        for c in report.checks:
            status = "pass" if c["passed"] else "FAIL"
            print(f"[{status}] {c['name']}: value={c['value']:.6e} tol={c['tolerance']:.1e}")
        print(f"mode={report.mode} points={report.grid['points']} "
              f"wall={report.wall_time_s:.2f}s "
              f"=> {'PASS' if report.passed else 'FAIL'}")
        return 0 if report.passed else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # not ValueError: one from numpy or scipy means validation missed a config path
    except (FfoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

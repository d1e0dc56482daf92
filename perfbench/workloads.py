"""The benchmark's workloads and the correctness gate every request passes.

A workload turns a sweep seed into the argv of one ``ffo.cli.main`` call and
checks what that call produced: its exit code, every check verdict, the grid
size of every output, and that a repeated input gives byte-identical output.
Why each workload exists is written down in ``README.md`` next to this file.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import random
import re
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
README_SCENARIO = os.path.join(HERE, "readme_scenario.json")
DT = 0.001

# checks that pass when value >= tolerance (ffo.cli registers them with invert=True)
INVERTED_CHECKS = {"forcing_witness", "completeness_flip_detector"}

_CHECK_LINE = re.compile(r"^\[(pass|FAIL)\] (\S+): value=(\S+) tol=(\S+)$")
_SUMMARY_LINE = re.compile(r"^mode=(\S+) points=(\d+) wall=\S+ => (PASS|FAIL)$")


def derive_seeds(workload_seed: int, count: int) -> list[int]:
    """The ``--seed`` values a run sends, derived from the workload seed."""
    rng = random.Random(workload_seed)
    return [rng.randrange(2 ** 31) for _ in range(count)]


def check_margin(name: str, value: float, tolerance: float, passed: bool) -> float:
    """value/tolerance (tolerance/value for inverted checks).

    Raises ``ValueError`` when the reported verdict disagrees with the
    numbers, or when the check failed.
    """
    inverted = name.rsplit(".", 1)[-1] in INVERTED_CHECKS
    holds = value >= tolerance if inverted else value <= tolerance
    if holds != passed:
        raise ValueError(f"check {name}: verdict {passed} contradicts value={value!r} tol={tolerance!r}")
    if not passed:
        raise ValueError(f"check {name} failed: value={value!r} tol={tolerance!r}")
    return tolerance / value if inverted else value / tolerance


@dataclass
class Outcome:
    steps: int                  # sum over scenarios of (grid points - 1)
    margins: list[float]        # check_margin of every check


@dataclass
class Workload:
    """One kind of request, sent with a stream of sweep seeds."""

    name: str
    why: str
    mode: str
    t_final: float
    sweep: int = 0                      # scenarios per request; 0 = the README scenario
    reference_seeds: tuple = (0,)       # fixed inputs of the reference pass
    digests: dict = field(default_factory=dict)

    @property
    def points(self) -> int:
        return int(round(self.t_final / DT)) + 1

    def argv(self, seed: int, work: str) -> list[str]:
        if not self.sweep:
            return [self.mode, "--config", README_SCENARIO,
                    "--out", os.path.join(work, "out.csv")]
        return [self.mode, "--sweep", str(self.sweep), "--seed", str(seed),
                "--t-final", repr(self.t_final), "--dt", repr(DT),
                "--format", "json", "--out", os.path.join(work, self.name + ".json")]

    def config_text(self) -> str:
        """The scenario document of the workload's first request."""
        if not self.sweep:
            with open(README_SCENARIO, encoding="utf-8") as fh:
                return fh.read()
        return json.dumps({"run": {"mode": self.mode, "t_final": self.t_final, "dt": DT},
                           "output": {"format": "json"}})

    def verify(self, argv: list[str], rc, stdout: str, work: str) -> Outcome:
        """Check the results of request ``argv``; raises ``ValueError`` on any miss."""
        outputs = sorted(glob.glob(os.path.join(work, "*")))
        try:
            if rc != 0:
                raise ValueError(f"exit code {rc!r}")
            if self.sweep:
                outcome, blobs = self._verify_sweep(stdout, outputs)
            else:
                outcome, blobs = self._verify_readme(stdout, os.path.join(work, "out.csv"))
        finally:
            # a later request must not find this one's files
            for path in outputs:
                os.unlink(path)
        digest = hashlib.sha256(b"".join(blobs)).hexdigest()
        if self.digests.setdefault(tuple(argv), digest) != digest:
            raise ValueError("output differs from an earlier request with the same argv")
        return outcome

    def _verify_readme(self, stdout: str, csv_path: str):
        margins, prefixes, points = [], set(), None
        for line in stdout.splitlines():
            m = _CHECK_LINE.match(line)
            if m:
                status, name, value, tol = m.groups()
                margins.append(check_margin(name, float(value), float(tol), status == "pass"))
                prefixes.add(name.split(".", 1)[0])
            m = _SUMMARY_LINE.match(line)
            if m:
                if m.group(1) != self.mode or m.group(3) != "PASS":
                    raise ValueError(f"summary line {line!r}")
                points = int(m.group(2))
        expected = {"grassmann-selftest", "invariants", "coherence", "phases", "reduce"}
        if prefixes != expected:
            raise ValueError(f"checks ran for {sorted(prefixes)}, expected {sorted(expected)}")
        if points != self.points:
            raise ValueError(f"grid has {points} points, expected {self.points}")
        with open(csv_path, "rb") as fh:
            blob = fh.read()
        lines = blob.decode("utf-8").splitlines()
        if lines[0] != "t,lambda2,oracle_dev" or len(lines) - 1 != points:
            raise ValueError(f"CSV has header {lines[0]!r} and {len(lines) - 1} rows, "
                             f"expected {points} rows")
        return Outcome(points - 1, margins), [blob]

    def _verify_sweep(self, stdout: str, paths: list[str]):
        last = stdout.splitlines()[-1] if stdout else ""
        if last != f"sweep: {self.sweep} scenarios, all passed":
            raise ValueError(f"sweep summary {last!r}")
        if len(paths) != self.sweep:
            raise ValueError(f"{len(paths)} reports written, expected {self.sweep}")
        margins, blobs, steps = [], [], 0
        for path in paths:
            with open(path, "rb") as fh:
                blobs.append(fh.read())
            rep = json.loads(blobs[-1])
            if rep["mode"] != self.mode or rep["grid"]["points"] != self.points:
                raise ValueError(f"{os.path.basename(path)}: mode {rep['mode']!r}, "
                                 f"{rep['grid']['points']} points")
            if not rep["checks"] or rep["passed"] is not True:
                raise ValueError(f"{os.path.basename(path)}: passed={rep['passed']!r}")
            for c in rep["checks"]:
                margins.append(check_margin(c["name"], c["value"], c["tolerance"], c["passed"]))
            steps += rep["grid"]["points"] - 1
        return Outcome(steps, margins), blobs


def workloads() -> dict[str, Workload]:
    """Fresh workload objects (each keeps the output digests of one run)."""
    items = [
        Workload("readme-all",
                 "README scenario in all mode, one 10,001-point grid: the only "
                 "workload running states, grassmann and CSV output",
                 mode="all", t_final=10.0),
        Workload("sweep-invariants",
                 "16 random specs on 2,001-point grids through the CLI thread "
                 "pool: rk4 propagator and invariants, per-call cost weighs more",
                 mode="invariants", t_final=2.0, sweep=16, reference_seeds=(0, 1, 2, 3)),
        Workload("sweep-reduce",
                 "4 random forced specs on 10,001-point grids: the epsilon "
                 "reduction and its scalar lambda2 loop, no propagator",
                 mode="reduce", t_final=10.0, sweep=4, reference_seeds=(0, 1)),
    ]
    return {w.name: w for w in items}

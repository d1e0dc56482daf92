"""Benchmark of the ``ffo`` command-line runner.

    python3 perfbench/run.py --workload readme-all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The benchmark imports ``ffo`` from
``src/`` and drives ``ffo.cli.main(argv)`` in-process as a closed loop with
one client: each request starts when the previous one has returned and been
verified.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``README.md`` next to this file for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy
import scipy

import layers
from spans import Tracer
from workloads import Workload, derive_seeds, workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 7        # fresh interpreters per run; setup_s is their median
SEEDS_PER_RUN = 4096     # more than any run sends: every request gets its own seed
MIN_REQUESTS = 11        # the tail percentile needs 10 samples above it
MIN_TRACED = 3
MAX_EXTRA_S = 120.0      # stop waiting for MIN_REQUESTS after this long
CALIBRATION_REPEATS = 5
NOMINAL_CALIBRATION_S = 0.004  # calibrated seconds are seconds at this calibration time
NOMINAL_IMPORT_S = 0.25        # the same for set-up, against a fresh interpreter importing numpy

END_TO_END = [
    ("setup_s", "s"),
    ("request_s.p50", "s"),
    ("request_s.tail", "s"),
    ("steps_per_s", "1/s"),
    ("verified_frac", "ratio"),
    ("check_margin_max", "ratio"),
    ("peak_rss_mib", "MiB"),
]

# a fresh interpreter imports ffo.cli and parses the workload's first config;
# it prints the monotonic clock, which is shared with the parent process
_SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import ffo.cli
ffo.cli.parse_config(sys.argv[2])
print(repr(time.perf_counter()))
"""


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest integer percentile with at least 10 samples above it.

    Nearest-rank definition: percentile p is the ceil(p n / 100)-th smallest
    sample.  Returns ``(p, value)``, or ``None`` for fewer than 11 samples.
    """
    n = len(samples)
    if n < 11:
        return None
    p = 100 * (n - 10) // n
    rank = max(1, -(-p * n // 100))
    return p, sorted(samples)[rank - 1]


def measure_setup(workload: Workload) -> float:
    """Seconds from starting a fresh interpreter to its first config parsed."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, SRC, workload.config_text()],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - t0


def import_calibration_s() -> float:
    """Seconds for a fresh interpreter to import numpy and exit.

    The set-up counterpart of :func:`calibration_s`: interpreter start-up and
    imports slow down with the machine in their own way, which a loop in a
    running process does not follow, and no change to ``ffo`` can move this.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"],
                   capture_output=True, timeout=120, check=True)
    return time.perf_counter() - t0


class Terminated(BaseException):
    """Raised on SIGTERM so that the scratch directory is removed on the way out.

    It derives from BaseException because a request's own exceptions,
    ``SystemExit`` included, are caught and counted as failed requests.
    """


def _terminate(signum, frame):
    raise Terminated(signum)


class Client:
    """Sends requests one at a time and verifies each; keeps the tallies."""

    def __init__(self, workload: Workload, work: str, main):
        self.workload = workload
        self.work = work
        self.main = main
        self.attempted = 0
        self.failed = 0

    def request(self, seed: int, tracer: Tracer | None = None):
        """One verified request; returns ``(wall_s, outcome or None)``."""
        argv = self.workload.argv(seed, self.work)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    rc = self.main(argv)
                else:
                    rc = tracer.run_request(self.attempted, self.main, argv)
            except (Exception, SystemExit) as exc:   # counted as a failed request
                rc = exc
            wall = time.perf_counter() - t0
        self.attempted += 1
        try:
            return wall, self.workload.verify(argv, rc, out.getvalue(), self.work)
        except Exception as exc:   # any miss of the gate is a failed request
            self.failed += 1
            if self.failed <= 5:
                print(f"request {self.attempted - 1} ({' '.join(argv)}) failed: {exc}\n"
                      f"{err.getvalue()}", file=sys.stderr)
            return wall, None


def _calibration_loop() -> float:
    """Wall time of a fixed ~4-ms loop: scalar complex arithmetic plus numpy ufuncs."""
    t0 = time.perf_counter()
    z = 1.0 + 0.0j
    for _ in range(12000):
        z = z * (0.9999 + 0.0001j) + 0.0001
    a = numpy.linspace(0.0, 1.0, 10001)
    for _ in range(24):
        a = numpy.sin(a) * 0.5 + a * 0.5
    if not (numpy.isfinite(z) and numpy.isfinite(a[-1])):
        raise ArithmeticError("calibration loop diverged")
    return time.perf_counter() - t0


def calibration_s() -> float:
    """Median of ``CALIBRATION_REPEATS`` runs of the fixed calibration loop.

    It is the benchmark's own code, so no change to ``ffo`` can move it; it
    moves only with the speed of the machine.  The median of several short
    loops follows the machine's speed but not a single preemption.
    """
    return statistics.median(_calibration_loop() for _ in range(CALIBRATION_REPEATS))


def timed_run(client: Client, seeds: list[int], seconds: float) -> dict:
    """Requests for ``seconds`` of request time, with set-up samples spread over it.

    The speed of a shared machine drifts by tens of percent over seconds to
    minutes (see README.md), so times are reported in calibrated seconds.  A
    request's wall time is scaled by ``NOMINAL_CALIBRATION_S`` over the mean
    of the :func:`calibration_s` figures just before and after it; a set-up
    sample's by ``NOMINAL_IMPORT_S`` over the :func:`import_calibration_s`
    that follows it.  Raw wall times are kept as well.
    """
    raw = {"request": [], "setup": []}
    scaled = {"request": [], "setup": []}
    rates, spent = [], 0.0
    cal = calibration_s()
    while True:
        if len(raw["setup"]) < SETUP_REPEATS and \
                spent >= len(raw["setup"]) * seconds / SETUP_REPEATS:
            wall = measure_setup(client.workload)
            raw["setup"].append(wall)
            scaled["setup"].append(wall * NOMINAL_IMPORT_S / import_calibration_s())
        elif spent < seconds or (len(raw["request"]) < MIN_REQUESTS
                                 and spent < seconds + MAX_EXTRA_S):
            wall, outcome = client.request(seeds[len(raw["request"]) % len(seeds)])
            after = calibration_s()
            spent += wall
            steps = outcome.steps if outcome else 0
            raw["request"].append(wall)
            scaled["request"].append(wall * NOMINAL_CALIBRATION_S / (0.5 * (cal + after)))
            rates.append((steps / wall, steps / scaled["request"][-1]))
            cal = after
        else:
            break
    return {"raw": raw, "scaled": scaled,
            "steps_per_s": [statistics.median(r[i] for r in rates) for i in (0, 1)]}


def traced_run(client: Client, seeds: list[int], seconds: float) -> dict:
    """Alternate untraced and traced requests on the same seed.

    The untraced twin gives ``trace.overhead_frac``; the traced one's spans
    are reduced to per-layer metrics as soon as it has returned, so only one
    request's spans are ever held in memory.
    """
    tracer = Tracer()
    layers.instrument(tracer)
    per_request, untraced, traced = [], 0.0, 0.0
    start = time.perf_counter()
    i = 0
    while i < MIN_TRACED or time.perf_counter() - start < seconds:
        seed = seeds[i % len(seeds)]
        wall_u, _ = client.request(seed)
        wall_t, outcome = client.request(seed, tracer)
        spans = tracer.take()
        if outcome:
            per_request.append(layers.request_metrics(spans, wall_t))
        untraced += wall_u
        traced += wall_t
        i += 1
    metrics = {name: statistics.median(r[name] for r in per_request) if per_request else 0.0
               for name, _ in layers.PER_LAYER if name != "trace.overhead_frac"}
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    return {"metrics": metrics, "traced": len(per_request)}


def provenance(workload: Workload, seed: int) -> dict:
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
    sources = sorted(glob.glob(os.path.join(SRC, "ffo", "*.py")))
    digest, lines = hashlib.sha256(), 0
    for path in sources:
        with open(path, "rb") as fh:
            blob = fh.read()
        digest.update(blob)
        lines += blob.count(b"\n")
    return {"workload": workload.name, "workload_seed": seed, "nproc": os.cpu_count(),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_commit": commit, "src_sha256": digest.hexdigest(),
            "src_ffo_lines": lines}


def main(argv=None) -> int:
    table = workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(table))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = table[args.workload]
    signal.signal(signal.SIGTERM, _terminate)

    if not os.path.isfile(os.path.join(SRC, "ffo", "cli.py")):
        print(f"error: no ffo sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import ffo.cli
    if os.path.dirname(os.path.abspath(ffo.cli.__file__)) != os.path.join(SRC, "ffo"):
        print(f"error: imported ffo from {ffo.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    seeds = derive_seeds(args.seed, SEEDS_PER_RUN)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        client = Client(workload, work, ffo.cli.main)
        # reference pass: fixed inputs, so check_margin_max does not depend on
        # the workload seed; it is also the warm-up
        margins = []
        for seed in workload.reference_seeds:
            _, outcome = client.request(seed)
            margins += outcome.margins if outcome else []
        if args.trace:
            result = traced_run(client, seeds, args.seconds)
            metrics = result["metrics"]
            units = dict(layers.PER_LAYER)
            note = f"{result['traced']} traced requests, each after an untraced twin"
        else:
            result = timed_run(client, seeds, args.seconds)
            lat = result["scaled"]["request"]
            tail = tail_percentile(lat) or (100, max(lat))
            metrics = {
                "setup_s": statistics.median(result["scaled"]["setup"]),
                "request_s.p50": statistics.median(lat),
                "request_s.tail": tail[1],
                "steps_per_s": result["steps_per_s"][1],
                "verified_frac": 1.0 - client.failed / client.attempted,
                "check_margin_max": max(margins, default=0.0),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = dict(END_TO_END)
            raw_lat, raw_setup = result["raw"]["request"], result["raw"]["setup"]
            raw_tail = tail_percentile(raw_lat) or (100, max(raw_lat))
            note = (f"{len(lat)} timed requests; request_s.tail is p{tail[0]} of them; "
                    f"setup_s is the median of {SETUP_REPEATS} fresh interpreters; "
                    f"times in calibrated seconds (raw wall: setup "
                    f"{statistics.median(raw_setup):.4g} s, p50 {statistics.median(raw_lat):.4g} s, "
                    f"tail {raw_tail[1]:.4g} s, {result['steps_per_s'][0]:.6g} steps/s)")

    print(f"workload {workload.name}  seed {args.seed}  {note}")
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {units[name]}")
    print(f"  {'fail_frac':<48} {client.failed / client.attempted:>14.6g} ratio "
          f"({client.failed} of {client.attempted} requests)")
    print("provenance " + json.dumps(provenance(workload, args.seed), sort_keys=True))
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Terminated:
        sys.exit(128 + signal.SIGTERM)

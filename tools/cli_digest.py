"""Print one digest per CLI invocation, to show that a change keeps the output byte-identical.

Usage: ``python tools/cli_digest.py [CHECKOUT]``.  Runs a fixed list of
``ffo`` invocations against ``CHECKOUT/src`` (default: the checkout holding
this script), each in a fresh directory, and prints ``sha256  argv`` per
invocation.  The hash covers stdout with its ``wall=`` time removed,
stderr, the exit code and every file the run wrote.  The last invocations
run config documents that must fail with exit 2, so a changed diagnostic
shows too.  Run it on two
checkouts and ``diff`` the listings.  Standard library only; the
invocations run one at a time.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile

MODES = ("evolve", "invariants", "reduce", "coherence", "phases", "grassmann-selftest", "all")
SWEEP_MODES = ("invariants", "reduce", "coherence", "phases", "evolve")
_WALL = re.compile(rb"wall=\S+")


def error_documents() -> dict[str, str]:
    """Config documents that are rejected, by file name: g = 1e306 t^3, which overflows; an
    f_im whose first sample is inf; and a repeated key."""
    run = {"t_final": 10.0, "dt": 0.01}
    g = {"g": {"type": "polynomial", "coeffs": [0, 0, 0, 1e306]},
         "f_re": {"type": "constant", "value": 0.5}}
    f_im = {"omega": {"type": "constant", "value": 1.0},
            "f_re": {"type": "constant", "value": 0.5},
            "f_im": {"type": "sinusoid", "amplitude": 1e308, "offset": 1e308, "phase": 1.3}}
    return {"error-g.json": json.dumps({"hamiltonian": g, "run": run}),
            "error-f-im.json": json.dumps({"hamiltonian": f_im, "run": {"t_final": 1.0}}),
            "error-duplicate.json": '{"run": {"t_final": 1.0, "dt": 0.1, "dt": 0.001}}'}


def invocations() -> list[list[str]]:
    """The argv list; ``readme.json`` is the README scenario, ``readme-all-columns.json`` the
    same without ``output.fields``, and the ``error-*.json`` files are ``error_documents``."""
    out = []
    for mode in MODES:
        out.append([mode, "--config", "readme.json", "--format", "csv"])
        out.append([mode, "--config", "readme.json", "--format", "json", "--out", "out.json"])
    for mode in MODES:
        out.append([mode, "--config", "readme-all-columns.json"])
    for mode in SWEEP_MODES:
        out.append([mode, "--sweep", "3", "--seed", "3", "--t-final", "4", "--format", "json",
                    "--out", "sweep"])
        out.append([mode, "--sweep", "2", "--seed", "5", "--t-final", "2", "--out", "sweep"])
    out.append(["all", "--sweep", "2", "--seed", "1", "--t-final", "2", "--out", "sweep"])
    # sweeps wider than the worker count, to CSV: every scenario passes, every
    # scenario fails its checks, and a config error in scenario 3
    out.append(["reduce", "--sweep", "5", "--seed", "2", "--t-final", "2", "--out", "sweep"])
    out.append(["coherence", "--sweep", "5", "--seed", "4", "--t-final", "2", "--out", "sweep"])
    for dt in ("0.4", "0.6"):
        out.append(["invariants", "--sweep", "6", "--seed", "2", "--t-final", "4.8", "--dt", dt,
                    "--out", "sweep"])
    out.append(["invariants", "--config", "error-g.json"])
    for mode in ("invariants", "reduce", "phases", "all"):
        out.append([mode, "--config", "error-f-im.json"])
    out.append(["invariants", "--config", "error-duplicate.json"])
    return out


def digest(checkout: str, argv: list[str], scenario: dict) -> str:
    """sha256 of one invocation's stdout (no wall time), stderr, exit code and output files."""
    all_columns = dict(scenario, output={k: v for k, v in scenario["output"].items()
                                         if k != "fields"})
    with tempfile.TemporaryDirectory() as work:
        configs = {"readme.json": json.dumps(scenario),
                   "readme-all-columns.json": json.dumps(all_columns), **error_documents()}
        for name, text in configs.items():
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run([sys.executable, "-m", "ffo.cli", *argv], cwd=work, env=env,
                              capture_output=True, check=False)
        h = hashlib.sha256()

        def part(data: bytes) -> None:
            h.update(len(data).to_bytes(8, "little"))
            h.update(data)

        part(_WALL.sub(b"wall=", proc.stdout))
        part(proc.stderr)
        part(str(proc.returncode).encode())
        for name in sorted(set(os.listdir(work)) - set(configs)):
            part(name.encode())
            with open(os.path.join(work, name), "rb") as fh:
                part(fh.read())
    return h.hexdigest()


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    checkout = os.path.abspath(args[0]) if args else here
    with open(os.path.join(here, "perfbench", "readme_scenario.json"), encoding="utf-8") as fh:
        scenario = json.load(fh)
    for inv in invocations():
        print(f"{digest(checkout, inv, scenario)}  {' '.join(inv)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

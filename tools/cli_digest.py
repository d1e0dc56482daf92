"""Print one digest per CLI invocation, to show that a change keeps the output byte-identical.

Usage: ``python tools/cli_digest.py [CHECKOUT]``.  Runs a fixed list of
``ffo`` invocations against ``CHECKOUT/src`` (default: the checkout holding
this script), each in a fresh directory, and prints ``sha256  argv`` per
invocation.  The hash covers stdout with its ``wall=`` time removed,
stderr, the exit code and every file the run wrote.  Run it on two
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


def invocations() -> list[list[str]]:
    """The argv list; ``readme.json`` is the README scenario, ``readme-all-columns.json`` the
    same without ``output.fields``."""
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
    return out


def digest(checkout: str, argv: list[str], scenario: dict) -> str:
    """sha256 of one invocation's stdout (no wall time), stderr, exit code and output files."""
    all_columns = dict(scenario, output={k: v for k, v in scenario["output"].items()
                                         if k != "fields"})
    with tempfile.TemporaryDirectory() as work:
        configs = {"readme.json": scenario, "readme-all-columns.json": all_columns}
        for name, doc in configs.items():
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
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

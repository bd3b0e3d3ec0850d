"""Benchmark entry point (see README.md in this directory).

    python3 perfbench/run.py --workload {table2,synth,mc_tail,serve}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every session is a fresh serial
process (``session.py``) with its own empty ``REPRO_CACHE_DIR`` under
``.perfbench_tmp/``, removed afterwards.  An untraced run does one
measuring session plus extra set-up-only sessions and reports the
``end_to_end`` metrics of BENCHMARK.json; a traced run reports the
``per_layer`` metrics.  Each set-up time is scaled to the reference
host speed by the ``hostspeed.py`` loop, timed here just before the
session starts and in the session just after its set-up.  The last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from hostspeed import loop_seconds, scale

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("table2", "synth", "mc_tail", "serve")

#: Sessions whose set-up time feeds the ``setup_s`` median.
SETUP_SESSIONS = {"serve": 3}
DEFAULT_SETUP_SESSIONS = 5


def _declared_units(root: Path, traced: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    section = declared["per_layer" if traced else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}


def _environment(root: Path) -> dict:
    """A pinned environment: repo sources, serial numerics, no
    inherited ``REPRO_*`` knobs (faults, cache, workers, serve)."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env["REPRO_WORKERS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    for knob in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[knob] = "1"
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _session(root: Path, tmp: Path, spec: dict, timeout: float):
    """Run one session; returns (setup reference seconds, result)."""
    (tmp / "cache").mkdir(parents=True)
    spec = dict(spec, tmp=str(tmp))
    env = dict(_environment(root), REPRO_CACHE_DIR=str(tmp / "cache"))
    loop_before = loop_seconds()
    started = time.monotonic()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "session.py"), json.dumps(spec)],
        cwd=root, env=env, stdout=subprocess.PIPE,
        start_new_session=True)
    # The session's process group holds any server it started, so the
    # watchdog (and the final sweep) end those too.
    watchdog = threading.Timer(timeout, _kill_group, (process.pid,))
    watchdog.start()
    try:
        ready = process.stdout.readline()
        setup = time.monotonic() - started
        if ready.strip() != b"READY":
            raise RuntimeError(f"session failed during set-up "
                               f"({spec['workload']})")
        output = process.stdout.read()
        if process.wait() != 0:
            raise RuntimeError(f"session exited with {process.returncode}")
    finally:
        watchdog.cancel()
        _kill_group(process.pid)
        process.wait()
        process.stdout.close()
        shutil.rmtree(tmp, ignore_errors=True)
    result = json.loads(output.decode().strip().splitlines()[-1])
    return scale(setup, loop_before, result["setup_loop_s"]), result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from a checkout root (src/repro missing)",
              file=sys.stderr)
        return 2

    spec = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "mode": "main"}
    base = root / ".perfbench_tmp" / str(os.getpid())
    timeout = 3 * args.seconds + 90
    try:
        setup, result = _session(root, base / "s0", spec, timeout)
        setups = [setup]
        if not args.trace:
            extra = SETUP_SESSIONS.get(args.workload,
                                       DEFAULT_SETUP_SESSIONS) - 1
            for number in range(1, extra + 1):
                setups.append(_session(root, base / f"s{number}",
                                       dict(spec, mode="setup"), 60)[0])
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            base.parent.rmdir()
        except OSError:
            pass

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    units = _declared_units(root, bool(args.trace))
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    for line in result.get("report", []):
        print(line)
    for problem in result["problems"]:
        print(f"perfbench: isolation check failed: {problem}")
    print(f"perfbench: {result['passes']} pass(es), outputs sha256 "
          f"{result['digest']}")
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

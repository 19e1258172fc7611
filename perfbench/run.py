"""The repository benchmark: one command, two workloads, checked outputs.

Usage, from the repository root::

    python3 perfbench/run.py --workload offline-shenzhen --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py                   # every workload, each in a fresh process
    python3 perfbench/run.py --smoke --seconds 2   # tiny sizes, runs in seconds

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once with per-layer tracing and prints the
per-layer metrics, including the tracing overhead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a failed correctness check
exits non-zero and prints no metrics.  See ``perfbench/README.md`` for
what each metric means on each workload.
"""

import time

_STARTED = time.perf_counter()

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {
    "offline-shenzhen": "offline",
    "live-bursty": "live",
}
#: Set-up repetitions; set-up reports their median.  The imports are
#: timed in this process and in SETUP_REPS - 1 child processes.
SETUP_REPS = 3
#: A child process's imports, in reference-host seconds (as ``_run_one``
#: times its own): argv is the source directory, this directory and the
#: workload module.
IMPORT_PROBE = """
import time
started = time.perf_counter()
import importlib, statistics, sys
sys.path[:0] = sys.argv[1:3]
import common
importlib.import_module(sys.argv[3])
seconds = time.perf_counter() - started
clock = common.HostClock()
print(seconds * common.REF_S / statistics.median(clock.reference() for _ in range(3)))
"""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for a quick check")
    return p.parse_args(argv)


def _load_program() -> None:
    """Put the checkout's ``src`` first on the path and import ``repro`` from it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src}")
    # One process, at most two threads (the event loop and the serve apply
    # executor): keep numerical libraries from starting thread pools.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    # ... and one core.  The threads take turns under the interpreter lock
    # anyway; on one core the reference kernel (``common.HostClock``)
    # measures the speed of every core the workload runs on, where a
    # second core's contention would slow the two-thread workload unseen.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def _run_one(args) -> int:
    _load_program()
    import common

    module = importlib.import_module(WORKLOADS[args.workload])
    import_s = time.perf_counter() - _STARTED

    # Set-up is timed in reference-host seconds like every other timing;
    # the imports by the median of three reference runs right after them.
    # Imports, and inputs and warm-up, are each set up SETUP_REPS times
    # (imports once here, the rest in child processes, which inherit this
    # process's core); the median of each counts.
    clock = common.HostClock()
    import_s *= common.REF_S / statistics.median(clock.reference() for _ in range(3))
    probe = [sys.executable, "-c", IMPORT_PROBE,
             str(ROOT / "src"), str(Path(__file__).resolve().parent), WORKLOADS[args.workload]]
    import_s = statistics.median([import_s] + [
        float(subprocess.run(probe, stdout=subprocess.PIPE, text=True, check=True).stdout)
        for _ in range(SETUP_REPS - 1)
    ])

    def set_up():
        inputs = module.make_inputs(args.seed, args.smoke, args.seconds)
        common.warm_up()
        return inputs

    reps = [clock.time(set_up) for _ in range(SETUP_REPS)]
    inputs = reps[-1][0]
    prepare_s = statistics.median(seconds for _, seconds in reps)
    setup_s = import_s + prepare_s

    try:
        result = module.run(inputs, args.seconds, bool(args.trace), clock)
    except common.CheckFailed as exc:
        print(f"perfbench: {args.workload}: check failed: {exc}", file=sys.stderr)
        return 1
    wanted = common.PER_LAYER if args.trace else common.END_TO_END
    if not args.trace:
        result.metrics["setup_s"] = setup_s
    if set(result.metrics) != set(wanted):
        print(f"perfbench: metric set mismatch: {sorted(set(result.metrics) ^ set(wanted))}",
              file=sys.stderr)
        return 1
    for line in result.summary:
        print(line)
    print(f"set-up: import {import_s:.2f} s, inputs + warm-up {prepare_s:.2f} s "
          f"(median of {SETUP_REPS})")
    print(f"host: {len(clock.refs)} reference runs, median "
          f"{1e3 * common.REF_S / clock.scale():.2f} ms (reference {1e3 * common.REF_S:.0f} ms)")
    print(json.dumps({
        "correct": True,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {
            name: {"value": float(result.metrics[name]), "unit": unit}
            for name, unit in wanted.items()
        },
    }))
    return 0


def _run_all(args) -> int:
    """Run every workload in its own fresh process, then print a combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"perfbench: {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())

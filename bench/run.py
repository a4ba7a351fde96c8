"""Benchmark of the thompsonlab workbench.

    python3 bench/run.py --workload {folner,charts,paths} --seed N \
        --seconds S --trace {0,1}

Runs one workload in its own single-threaded worker process (worker.py),
measures the worker's set-up time and peak resident memory from outside,
prints every metric by name with its unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics. Exits non-zero, without a result line, when the worker fails or
runs past its time limit.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import threading
import time
from importlib.metadata import version
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(1)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("folner", "charts", "paths"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(TIME_LIMIT_S, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        lines = proc.stdout.read().splitlines()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
    if proc.returncode != 0:
        fail(f"worker exited with {proc.returncode}")
    if ready.strip() != "READY" or not lines:
        fail("worker printed no result")
    res = json.loads(lines[-1])
    peak_rss_mb = usage.ru_maxrss / 1024.0      # ru_maxrss is in KiB

    print(f"machine: {os.cpu_count()} cpus, {platform.machine()}, "
          f"Python {platform.python_version()}, numpy {version('numpy')}, "
          f"scipy {version('scipy')}, BLAS threads {env['OMP_NUM_THREADS']}")
    print(f"workload {args.workload}, seed {args.seed}: {res['rounds']} "
          f"rounds, {res['attempted']} operations, {res['failed']} failed")
    for stage, s in res["stage_s"].items():
        print(f"{stage}_s = {s:.4f} s  (fastest repetition of each "
              f"operation, at reference speed)")
    print(f"machine speed {res['speed']:.4f} of the reference: run_s = "
          f"{res['run_s'] / res['speed']:.4f} CPU s x {res['speed']:.4f}")
    for e in res["errors"]:
        print(f"CHECK FAILED: {e}")

    if args.trace:
        values = res["layers"]
    else:
        values = {"setup_s": setup_s, "run_s": res["run_s"],
                  "peak_rss_mb": peak_rss_mb}
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            fail(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": not res["errors"],
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()

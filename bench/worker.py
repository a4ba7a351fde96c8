"""One benchmark workload in one process: set up, run whole rounds for the
given number of seconds, check every round's outputs, and print one JSON
line with the round times, the operation counts, the check results and,
for a traced run, the per-layer metrics.

Start it through run.py, which sets the thread environment and measures
set-up time and peak memory from outside.
"""

import argparse
import json
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = Path(__file__).resolve().parent / "out"

# span name -> counters reported as <span>.<counter>
SPANS = {
    "dyadic.PLMap.images": ("calls", "points", "self_s"),
    "dyadic.Tuple_.apply": ("calls", "self_s"),
    "counting.enumerate_orbit": ("calls", "self_s"),
    "folner.build_Yln": ("self_s",),
    "folner.build_X": ("self_s",),
    "folner.kappa_set": ("self_s",),
    "folner.folner_ratio": ("self_s",),
    "folner.kappa_equivariance_check": ("self_s",),
    "folner.grid_containment_holds": ("self_s",),
    "smoothing.PsiModel.value": ("calls", "points", "self_s"),
    "smoothing.PsiModel.inverse": ("calls", "points", "self_s"),
    "smoothing.PsiModel.iterate": ("calls",),
    "smoothing.SmoothGenerator.call": ("calls", "points", "self_s"),
    "smoothing.SmoothGenerator.inverse": ("calls", "self_s"),
    "smoothing.SymbolicZ.realize": ("calls", "self_s"),
    "smoothing.SymbolicZ.sample": ("calls", "self_s"),
    "smoothing.lemma6_verify": ("self_s",),
    "smoothing.lemma7_constant": ("self_s",),
    "glue.q_glue": ("calls", "self_s"),
    "glue.L_estimator": ("calls", "self_s"),
    "wiener.a_inv": ("calls", "paths", "self_s"),
    "wiener.density": ("calls", "self_s"),
    "wiener.apply_functional": ("calls", "self_s"),
    "wiener.endpoint_derivatives": ("calls", "self_s"),
    "wiener.inv": ("calls", "points", "self_s"),
    "wiener.moment_test": ("self_s",),
    "wiener.quasi_invariance_test": ("self_s",),
    "wiener.concentration_test": ("self_s",),
    "wiener.constants": ("self_s",),
}
STAGES = ("folner_deep", "folner_wide", "chart_audits", "glue_trend",
          "moments", "quasi", "lemma2")
PATH_STAGES = ("glue_trend", "moments", "quasi", "lemma2")
MB = 2.0 ** 20
# calibration_s() on the machine of README.md when nothing else slows it;
# run_s is the round time at this speed
CALIBRATION_REF_S = 0.006


def clear_process_memos():
    """Empty the orbit memo, which lives as long as the process, so that
    every round starts cold as every CLI run does."""
    counting = sys.modules.get("thompsonlab.counting")
    if counting is not None:
        counting._orbit.cache_clear()


def calibration_s():
    """CPU time of a fixed piece of work that uses no code of the program:
    dict updates in the interpreter and small numpy array calls, the two
    kinds of work the workloads spend their time on. It makes no object
    that the garbage collector tracks, so its time does not grow with the
    program's heap."""
    import numpy as np    # here, so that it is not part of any set-up time
    x = np.linspace(0.0, 1.0, 257)
    t0 = time.process_time()
    d = {}
    for i in range(40_000):
        k = (i * 7919) & 1023
        d[k] = d.get(k, 0) + i
    acc = 0.0
    for _ in range(200):
        acc += float(np.max(np.sin(x) * x + np.abs(x - 0.5)))
    return time.process_time() - t0


def run_round(wl, tracer=None, alloc=None):
    """One round: every stage's operations in order, each timed.

    Each operation's time is the CPU time of this process while it runs
    (the worker is single-threaded, BLAS included), which leaves out time
    in which the machine ran something else. tracer records spans (one per
    stage and per wrapped call); alloc, a dict, receives each stage's
    tracemalloc peak in MB."""
    clear_process_memos()
    outputs, op_s, cal_s, attempted, failed = {}, {}, [], 0, 0
    start = time.perf_counter()
    for stage, ops in wl.stages():
        if tracer is not None:
            tracer.begin(stage)
        if alloc is not None:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        for key, op in ops:
            attempted += 1
            cal_s.append(calibration_s())
            t0 = time.process_time()
            try:
                outputs[key] = op()
            except Exception:  # a failed operation is counted, not fatal
                failed += 1
                print(f"operation {key} failed:", file=sys.stderr)
                traceback.print_exc()
            op_s[(stage, key)] = time.process_time() - t0
        if alloc is not None:
            alloc[stage] = (tracemalloc.get_traced_memory()[1] - base) / MB
        if tracer is not None:
            tracer.end()
    return {"outputs": outputs, "op_s": op_s, "cal_s": cal_s,
            "attempted": attempted, "failed": failed,
            "cpu_s": sum(op_s.values()), "wall_s": time.perf_counter() - start}


def machine_speed(rounds):
    """CALIBRATION_REF_S over the median calibration time of the rounds:
    below 1 while the machine runs slower than the reference."""
    return CALIBRATION_REF_S / statistics.median(
        c for r in rounds for c in r["cal_s"])


def stage_times(rounds, speed):
    """Each stage's time: the sum over its operations of that operation's
    fastest time over the rounds, times the machine speed of the run.

    Every round repeats the same work on the same inputs, so the
    repetitions of an operation differ only by what slowed them from
    outside (a warm-up round, a burst of load), which only ever adds time;
    the fastest repetition is the one least slowed. The speed factor
    takes out the slower speed changes of a shared machine, which last
    longer than a run and slow the calibration work alike."""
    out = {}
    for stage, key in rounds[0]["op_s"]:
        best = min(r["op_s"][(stage, key)] for r in rounds)
        out[stage] = out.get(stage, 0.0) + best * speed
    return out


def layer_metrics(traced, untraced, alloc, stage_s, speed):
    """Per-layer metrics from the traced rounds (medians over rounds),
    with the per-stage times, the two factors of run_s and the overhead
    from the untraced ones."""
    def med(values):
        return statistics.median(values) if values else 0.0

    out = {}
    for span, counters in SPANS.items():
        for c in counters:
            out[f"{span}.{c}"] = med([t.stats[span][c] if span in t.stats
                                      else 0.0 for t, _, _ in traced])
    calls = out["counting.enumerate_orbit.calls"]
    distinct = med([d for _, d, _ in traced])
    out["counting.enumerate_orbit.distinct"] = distinct
    out["counting.memo_hit_ratio"] = 1.0 - distinct / calls if calls else 0.0
    for c in ("tuples", "coords"):
        out[f"folner.{c}"] = med([t.stats["folner.build_X"][c]
                                  if "folner.build_X" in t.stats else 0.0
                                  for t, _, _ in traced])
    for stage in PATH_STAGES:
        out[f"{stage}.path_mb"] = med([t.bytes.get(stage, 0) / MB
                                       for t, _, _ in traced])
    for stage in STAGES:
        out[f"{stage}.alloc_peak_mb"] = alloc.get(stage, 0.0)
        out[f"{stage}_s"] = stage_s.get(stage, 0.0)
    out["run.cpu_s"] = sum(stage_s.values()) / speed
    out["calibration_s"] = CALIBRATION_REF_S / speed
    out["trace.overhead"] = (med([s for _, _, s in traced])
                             / med([r["cpu_s"] for r in untraced]) - 1.0)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import thompsonlab
    if not Path(thompsonlab.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"thompsonlab imported from {thompsonlab.__file__}, "
                 f"not from this checkout's src/")
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    print("READY", flush=True)
    errors = []

    def check(outputs):
        errors.extend(e for e in wl.check(outputs) if e not in errors)

    untraced, traced, alloc = [], [], {}
    measured = 0.0

    def untraced_round():
        nonlocal measured
        r = run_round(wl)
        measured += r["wall_s"]
        check(r.pop("outputs"))
        untraced.append(r)

    if not args.trace:
        while True:
            untraced_round()
            typical = statistics.median(r["wall_s"] for r in untraced)
            if measured + typical > args.seconds:
                break
        rounds = untraced
    else:
        from spans import Tracer, size
        extra, traced_wall = [], []
        # an untimed first round, so that first-call costs fall on neither
        # side of the overhead comparison
        r = run_round(wl)
        measured += r["wall_s"]
        check(r.pop("outputs"))
        extra.append(r)
        while True:
            untraced_round()
            tracer = Tracer()
            tracer.install(wl.layers)
            for g in getattr(wl, "test_maps", ()):
                tracer.patch_instance(g, "inv", "wiener.inv",
                                      counters={"points": lambda a, r: size(a[0])})
            try:
                r = run_round(wl, tracer=tracer)
            finally:
                tracer.remove()
            counting = sys.modules.get("thompsonlab.counting")
            distinct = counting._orbit.cache_info().misses if counting else 0
            measured += r["wall_s"]
            check(r.pop("outputs"))
            traced.append((tracer, distinct, r["cpu_s"]))
            traced_wall.append(r["wall_s"])
            extra.append(r)
            if not alloc:
                tracemalloc.start()
                try:
                    r = run_round(wl, alloc=alloc)
                finally:
                    tracemalloc.stop()
                measured += r["wall_s"]
                check(r.pop("outputs"))
                extra.append(r)
            pair = (statistics.median(r["wall_s"] for r in untraced)
                    + statistics.median(traced_wall))
            if measured + pair > args.seconds:
                break
        rounds = untraced + extra
        OUT.mkdir(exist_ok=True)
        traced[0][0].dump(OUT / f"trace-{args.workload}-{args.seed}.json",
                          {"workload": args.workload, "seed": args.seed,
                           "cpu_s": traced[0][2]})

    speed = machine_speed(untraced)
    stage_s = stage_times(untraced, speed)
    result = {
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "errors": errors,
        "rounds": len(untraced),
        "run_s": sum(stage_s.values()),
        "speed": speed,
        "stage_s": stage_s,
    }
    if args.trace:
        result["layers"] = layer_metrics(traced, untraced, alloc, stage_s,
                                         speed)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()

"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ./src.
The run sets up its workload SETUP_REPEATS times (setup_s is the median),
then runs ops, each a round of seeded calls, one caller and no threads,
until S seconds have passed and at least MIN_OPS ops were attempted.
Every result is checked; op time excludes input generation and the
checks.  Times are scaled by the host's speed, measured around every part
of an op (see CAL_REF_S).  With --trace 1 the
program's entry points are wrapped in spans, the spans are written to
perfbench/out/trace-<workload>-<seed>.json and the per-layer metrics are
printed instead of the end-to-end ones.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 7
# a run attempts at least this many ops; op_ms.tail and the per-layer
# totals are taken over exactly the first MIN_OPS, so the tail's percentile
# does not follow the host's speed and the call counts of a seed repeat
# exactly however many ops the time box admits
MIN_OPS = {"isom-negative": 2, "isom-witness": 100, "stairs-witness": 100,
           "cli-session": 100}

# A shared host runs slow for seconds at a time: a fixed loop timed in
# 2-second windows on the 2-core machine this benchmark was built on ranged
# from 12 to 20 ms, and whole runs moved by as much.  So a loop shaped like
# the program's inner loops (products of coefficient tuples mod p^n) is
# timed right before and right after every part of an op and every set-up,
# and each time is scaled by CAL_REF_S over the loop's mean time around it:
# times read as on that machine in a fast spell, where the loop took 0.5 ms.
CAL_REF_S = 0.0005


def _calibration_loop():
    f = (3, 0, 5, 1, 0, 7, 1)
    a = (12345, 678, 91011, 1213, 1415, 1617)
    b = (1819, 2021, 2223, 2425, 2627, 2829)
    pn = 1 << 20
    for _ in range(60):
        prod = [0] * 11
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        for d in range(10, 5, -1):
            c = prod[d] % pn
            for k in range(6):
                prod[d - 6 + k] -= c * f[k]
        a = tuple(x % pn for x in prod[:6])


def calibration():
    """Seconds the calibration loop takes now (median of three)."""
    ts = []
    for _ in range(3):
        t0 = time.perf_counter()
        _calibration_loop()
        ts.append(time.perf_counter() - t0)
    return statistics.median(ts)


def scaled(seconds, cal_before, cal_after):
    return seconds * 2 * CAL_REF_S / (cal_before + cal_after)


def percentile_tail(samples):
    """Highest percentile with at least 10 samples above it (p90 of 100
    ops); the slowest op when there are fewer than 40 and so no tail to
    speak of."""
    xs = sorted(samples)
    if len(xs) < 40:
        return xs[-1]
    return xs[len(xs) - 11]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fcrystals", "__init__.py")):
        sys.stderr.write("run.py: no src/fcrystals under the current "
                         "directory; run it from the repository root\n")
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from arith import CheckFailed
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"run.py: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}\n")
        return 2
    import_s = time.perf_counter() - t_start

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"files-{os.getpid()}")
    wl = WORKLOADS[args.workload](args.seed, workdir)
    setups = []
    cal = calibration()
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        wl.setup()
        dt = time.perf_counter() - t0
        before, cal = cal, calibration()
        setups.append(scaled(dt, before, cal))

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    op_times = []   # scaled seconds
    raw_times = []
    cals = []
    attempted = failed = 0
    correct = True
    errors = []
    snapshot = None
    t_measure = time.perf_counter()
    try:
        while (time.perf_counter() - t_measure < args.seconds
               or attempted < MIN_OPS[wl.name]):
            parts, check = wl.next_op()
            attempted += 1
            res, raw, op_s = [], 0.0, 0.0
            cals.append(calibration())
            if tracer is not None:
                tracer.op = attempted
            try:
                for part in parts:
                    t0 = time.perf_counter()
                    res.append(part())
                    dt = time.perf_counter() - t0
                    cals.append(calibration())
                    raw += dt
                    op_s += scaled(dt, cals[-2], cals[-1])
            except Exception as exc:  # noqa: BLE001 - counted, reported
                failed += 1
                errors.append(f"op {attempted}: {type(exc).__name__}: {exc}")
                continue
            finally:
                if tracer is not None:
                    tracer.op = None
            op_times.append(op_s)
            raw_times.append(raw)
            if tracer is not None and attempted == MIN_OPS[wl.name]:
                snapshot = tracer.snapshot()
            try:
                check(res)
            except CheckFailed as exc:
                correct = False
                errors.append(f"op {attempted}: check failed: {exc}")
    finally:
        if tracer is not None:
            tracer.uninstall()
        wl.close()

    for err in errors[:20]:
        sys.stderr.write(err + "\n")
    busy = sum(op_times)
    if tracer is not None:
        path = os.path.join(OUT, f"trace-{wl.name}-{args.seed}.json")
        tracer.write(path)
        calls, self_ns = snapshot or tracer.snapshot()
        metrics = {"traced.ops_per_s": {
            "value": len(op_times) / busy if busy else 0.0, "unit": "1/s"}}
        for label, n in zip(tracer.labels, calls):
            metrics[f"{label}.calls"] = {"value": n, "unit": "count"}
        for label, ms in tracer.reported_self_ms(self_ns).items():
            metrics[f"{label}.self_ms"] = {"value": ms, "unit": "ms"}
    else:
        ms = [t * 1000 for t in op_times] or [0.0]
        metrics = {
            "ops_per_s": {"value": len(op_times) / busy if busy else 0.0,
                          "unit": "1/s"},
            "op_ms.p50": {"value": statistics.median(ms), "unit": "ms"},
            "op_ms.tail": {"value": percentile_tail(ms[:MIN_OPS[wl.name]]),
                           "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024, "unit": "MB"},
        }
    sys.stderr.write(
        f"{wl.name}: {attempted} ops, {failed} failed, import "
        f"{import_s:.3f} s, scaled setups {[round(s, 4) for s in setups]}, "
        f"calibration median {statistics.median(cals) * 1000:.3f} ms\n")
    if op_times:
        sys.stderr.write(
            f"  op median {statistics.median(raw_times) * 1000:.1f} ms raw, "
            f"{statistics.median(op_times) * 1000:.1f} ms scaled\n")
    print(json.dumps({"correct": correct,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

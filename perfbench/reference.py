"""Reference figures that are not benchmark metrics.

    python3 perfbench/reference.py

Run from the repository root.  Prints, as plain text:
  0. for each trace file perfbench/out/trace-<workload>-1.json (written by
     a traced run with seed 1), calls and self time of the six entry
     points with the most self time, over the whole run;
  1. a per-module cProfile of every workload over PROFILE_SECONDS (share of own time by
     fcrystals module), which shows the Witt share that the spans cannot
     isolate; cProfile slows Python calls unevenly, so read shares, not
     times;
  2. the seconds of each check of `fcrystals verify --suite paper`;
  3. `fcrystals isom` on the check-06 pair with --jobs 1 and --jobs 2.
"""

import cProfile
import json
import os
import pstats
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
PROFILE_SECONDS = 10


def trace_summary(path):
    with open(path) as fh:
        data = json.load(fh)
    spans = data["spans"]
    child = {}
    for _, _, parent, _, start, end in spans:
        child[parent] = child.get(parent, 0) + end - start
    calls = [0] * len(data["entries"])
    self_ns = [0] * len(data["entries"])
    for _, sid, _, entry, start, end in spans:
        calls[entry] += 1
        self_ns[entry] += end - start - child.get(sid, 0)
    rows = sorted(zip(self_ns, calls, data["entries"]), reverse=True)[:6]
    return "; ".join(f"{e} {n} calls {ns / 1e6:.0f} ms" for ns, n, e in rows
                     if n)


def module_profile(name, seconds):
    from workloads import WORKLOADS
    wl = WORKLOADS[name](1, os.path.join(OUT, f"files-ref-{os.getpid()}"))
    wl.setup()
    prof = cProfile.Profile()
    t0 = time.perf_counter()
    try:
        while time.perf_counter() - t0 < seconds:
            parts, _ = wl.next_op()
            prof.enable()
            for part in parts:
                part()
            prof.disable()
    finally:
        wl.close()
    shares = {}
    for (path, _, _), row in pstats.Stats(prof).stats.items():
        tottime = row[2]
        if f"{os.sep}fcrystals{os.sep}" in path:
            key = os.path.basename(path)[:-3]
        else:
            key = "(other)"
        shares[key] = shares.get(key, 0.0) + tottime
    total = sum(shares.values())
    top = sorted(shares.items(), key=lambda kv: -kv[1])
    return ", ".join(f"{k} {v / total:.0%}" for k, v in top if v / total
                     >= 0.01)


def cli(*argv):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "fcrystals.cli", *argv],
                          capture_output=True, text=True, env=env, cwd=ROOT)
    return time.perf_counter() - t0, proc


def main():
    os.makedirs(OUT, exist_ok=True)

    from workloads import WORKLOADS
    print("self time per entry point in the seed-1 traced runs")
    for name in WORKLOADS:
        path = os.path.join(OUT, f"trace-{name}-1.json")
        if os.path.exists(path):
            print(f"  {name}: {trace_summary(path)}")

    print("per-module share of own time under cProfile")
    for name in WORKLOADS:
        print(f"  {name}: {module_profile(name, PROFILE_SECONDS)}")

    print("fcrystals verify --suite paper (seconds per check)")
    total, proc = cli("verify", "--suite", "paper")
    for line in proc.stdout.splitlines():
        res = json.loads(line)
        print(f"  {res['name']}: {res['seconds']} s, ok {res['ok']}")
    print(f"  whole command: {total:.1f} s, exit {proc.returncode}")

    print("fcrystals isom on the check-06 pair (2 cores)")
    from fcrystals import builtin_crystal, make_witt_ring
    from fcrystals.files import write_crystal
    ring = make_witt_ring(2, 6, 4)
    paths = []
    for k, alpha in enumerate((ring.one(), ring.gen())):
        paths.append(os.path.join(OUT, f"check06-{k}.json"))
        write_crystal(paths[-1], builtin_crystal(ring, "phi_alpha_4_5",
                                                 alpha=alpha))
    for jobs in (1, 2):
        secs, proc = cli("isom", *paths, "--jobs", str(jobs))
        print(f"  --jobs {jobs}: {secs:.2f} s, exit {proc.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run two sets of benchmark runs of the same code and print, for each
end-to-end metric, its spread within each set and the shift between the
two set medians, each against the bound in BENCHMARK.json.

    python3 perfbench/stability.py

Run from the repository root.  Set 1 uses seeds 1..10 and set 2 seeds
101..110; the runs of one seed visit every workload in turn, so a slow
spell of the host is shared out.  The spread is the distance between the
first and third quartiles as a share of the median, the shift the change
of the set-2 median against the set-1 median, in either direction.  Then
it makes two traced runs per workload with seed 1, checks that their call
counts agree exactly, and reports the traced ops_per_s against the
untraced median.  Raw results go to perfbench/out/stability.json.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
RUNS = 10   # per set


def run_one(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace",
                             str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def shift(first, second):
    m1, m2 = statistics.median(first), statistics.median(second)
    return (m2 - m1) / m1


def main():
    with open(SPEC) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    results = {w: [[], []] for w in names}
    for s, base in enumerate((1, 101)):
        for i in range(RUNS):
            for w in names:
                res = run_one(spec, w, base + i, seconds, 0)
                results[w][s].append(res)
                p50 = res["metrics"]["op_ms.p50"]["value"]
                print(f"set {s + 1} seed {base + i} {w}: "
                      f"{res['attempted']} ops, {res['failed']} failed, "
                      f"correct {res['correct']}, p50 {p50:.1f} ms",
                      file=sys.stderr)
    for w in names:
        results[w].append([run_one(spec, w, 1, seconds, 1)
                           for _ in range(2)])
    path = os.path.join(HERE, "out", "stability.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(results, fh)
    return report(spec, results)


def report(spec, results):
    ok = True
    print(f"{'workload':15} {'metric':12} {'median1':>11} {'spread1':>8} "
          f"{'spread2':>8} {'shift':>7} {'bound':>6}")
    for w, sets in results.items():
        for s in sets[:2]:
            if not all(r["correct"] for r in s):
                ok = False
                print(f"{w}: a run reported incorrect output")
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s)
                  for s in sets[:2]]
        if shares[0] != shares[1]:
            ok = False
            print(f"{w}: failed share differs: {shares}")
        for m in spec["end_to_end"]:
            vals = [[r["metrics"][m["name"]]["value"] for r in s]
                    for s in sets[:2]]
            sp = [spread(v) for v in vals]
            sh = shift(vals[0], vals[1])
            bad = abs(sh) > m["bound"] or max(sp) > m["bound"]
            ok = ok and not bad
            print(f"{w:15} {m['name']:12} {statistics.median(vals[0]):11.4f} "
                  f"{sp[0]:8.3f} {sp[1]:8.3f} {sh:7.3f} {m['bound']:6.2f}"
                  f"{'  OVER' if bad else ''}")
    for w, sets in results.items():
        a, b = sets[2]
        same = all(a["metrics"][k] == b["metrics"][k]
                   for k in a["metrics"] if k.endswith(".calls"))
        ok = ok and same
        untraced = statistics.median(
            r["metrics"]["ops_per_s"]["value"] for r in sets[0])
        traced = statistics.median(
            r["metrics"]["traced.ops_per_s"]["value"] for r in (a, b))
        print(f"{w}: traced ops_per_s {traced:.4f} against untraced "
              f"{untraced:.4f} ({traced / untraced - 1:+.1%}); call "
              f"counts {'repeat exactly' if same else 'DIFFER'}")
    print("stable" if ok else "NOT STABLE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Steadiness and repeatability self-check of the repository benchmark.

Run from the repository root:

    python3 perfbench/selfcheck.py spread
    python3 perfbench/selfcheck.py counts

`spread` runs every workload once per seed (seeds 1..10) in each of the A
and B sets, for BENCHMARK.json's run_seconds. Workloads and sets are
interleaved round-robin, so slow drift of the host's speed lands on every
workload and both sets alike. For each end-to-end metric it prints every
run's value, each set's median and the spread between the first and third
quartile as a share of the median (marked `(!)` above a third of the
bound), and how far B's median moved from A's, and checks both against the
metric's bound in BENCHMARK.json. A spread should stay below a third of its
bound.

`counts` runs every workload traced twice on each of seeds 1 (the default)
and 7919 (held out). Every run must be correct, and every count metric must
be identical between the two runs of a seed.

Exits non-zero when a check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

with open("BENCHMARK.json") as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SECONDS = BENCH["run_seconds"]
RUNS = 10
SETS = "AB"
COUNT_SEEDS = (1, 7919)


def run(workload, seed, trace):
    cmd = BENCH["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result\n{out.stderr}")
    return result["metrics"]


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def check_spread():
    values = {(s, w): {} for s in SETS for w in WORKLOADS}
    start = time.time()
    for i in range(RUNS):
        # Alternate which set goes first so neither always runs later.
        order = SETS if i % 2 == 0 else SETS[::-1]
        for s in order:
            for w in WORKLOADS:
                for name, m in run(w, i + 1, 0).items():
                    values[(s, w)].setdefault(name, []).append(m["value"])
        print(f"# round {i + 1}/{RUNS} done after {time.time() - start:.0f} s", flush=True)
    ok = True
    for w in WORKLOADS:
        for m in BENCH["end_to_end"]:
            name, bound = m["name"], m["bound"]
            row = [f"{w:>15} {name:<12}"]
            medians = []
            for s in SETS:
                med, iqr = spread(values[(s, w)][name])
                medians.append(med)
                steady = iqr <= bound / 3
                if iqr > bound:
                    ok = False
                row.append(f"{s}: median {med:.6g} IQR/median {iqr:.3f}{'' if steady else ' (!)'}")
                row.append("[" + " ".join(f"{v:.4g}" for v in values[(s, w)][name]) + "]")
            worse = (medians[1] - medians[0]) / medians[0]
            if m["better"] == "higher":
                worse = -worse
            if worse > bound:
                ok = False
            row.append(f"B vs A {worse:+.3f} (bound {bound})")
            print("  ".join(row))
    return ok


def check_counts():
    ok = True
    for w in WORKLOADS:
        for seed in COUNT_SEEDS:
            a, b = (run(w, seed, 1) for _ in range(2))
            differ = [
                n for n, m in a.items()
                if m["unit"] in ("count", "bytes") and m["value"] != b[n]["value"]
            ]
            ok &= not differ
            print(f"{w:>15} seed {seed}: {'counts identical' if not differ else f'counts differ: {differ}'}")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("mode", choices=("spread", "counts"))
    ok = check_spread() if p.parse_args().mode == "spread" else check_counts()
    print("PASS" if ok else "FAIL")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""End-to-end benchmark of the repository: the paper's campaign
pipeline, the evaluation service and the annealer.

Run one measurement from the root of a checkout:

    python3 perfbench/run.py --workload campaign_fig6 --seed 1 --seconds 30 --trace 0

It builds perfbench/main.exe with dune, runs it, keeps the full result
(with provenance) under .perfbench/results/, and prints as its last line
the summary {"correct", "attempted", "failed", "metrics"}. --trace 1
prints the per-layer metrics of a traced run instead.

Compare two result sets (directories of result files, or single files):

    python3 perfbench/run.py --compare OLD NEW

prints, per workload and end-to-end metric, each side's median and
quartiles and a verdict under the bounds in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
RESULTS = os.path.join(".perfbench", "results")
WORKLOADS = ("campaign_fig6", "serve_mixed", "anneal_search")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def commit():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail(f"{need} not found: run from the root of a checkout of the repository")
    proc = subprocess.run(["dune", "build", "--root", ".", "./perfbench/main.exe"],
                          stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("build failed", 3)


def measure(args):
    bench = load_benchmark()
    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    started = time.time()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {proc.returncode}", 4)
    result = json.loads(lines[-1])
    catalogue = bench["per_layer"] if args.trace else bench["end_to_end"]
    if list(result["metrics"]) != [m["name"] for m in catalogue]:
        fail("metrics do not match BENCHMARK.json", 5)
    result["provenance"] = {
        "commit": commit(),
        "nproc": os.cpu_count(),
        "ocaml": result.get("ocaml"),
        "seed": args.seed,
        "seconds": args.seconds,
        "started_unix": started,
    }
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(started * 1000)}.json"
    with open(os.path.join(RESULTS, name), "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


# ---------------------------------------------------------------------------
# Compare mode
# ---------------------------------------------------------------------------

def load_results(path):
    if os.path.isdir(path):
        files = [os.path.join(path, f) for f in sorted(os.listdir(path)) if f.endswith(".json")]
    else:
        files = [path]
    out = []
    for f in files:
        with open(f) as fh:
            doc = json.load(fh)
        out.extend(doc if isinstance(doc, list) else [doc])
    return [r for r in out if r.get("trace") == 0]


def spread(values):
    """Median, first and third quartile, as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(old, new, better, bound):
    """better / no worse / worse / unresolved, for one metric.

    A change is better when its median beats the old one by more than
    the old runs' own quartile spread and at least nine tenths of all
    (old, new) pairs favour it. It is worse when its median is worse by
    more than the bound. When either side's quartile spread exceeds the
    bound, only a complete separation of the runs decides."""
    sign = 1 if better == "higher" else -1
    om, oq1, oq3 = spread(old)
    nm, nq1, nq3 = spread(new)
    gain = sign * (nm - om) / abs(om)
    noise = max((oq3 - oq1) / abs(om), (nq3 - nq1) / abs(nm))
    pairs = [sign * (n - o) for o in old for n in new]
    wins = sum(1 for p in pairs if p > 0) / len(pairs)
    losses = sum(1 for p in pairs if p < 0) / len(pairs)
    if noise > bound:
        if wins == 1:
            return "better"
        if losses == 1:
            return "worse"
        return "unresolved"
    if gain > (oq3 - oq1) / abs(om) and wins >= 0.9:
        return "better"
    if -gain > bound:
        return "worse"
    return "no worse"


def compare(old_path, new_path):
    bench = load_benchmark()
    old, new = load_results(old_path), load_results(new_path)
    fmt = "{:<14} {:<17} {:<5} {:>30} {:>30}  {}"
    show = (lambda s: "-" if s is None else f"{s[0]:.4g} [{s[1]:.4g}, {s[2]:.4g}]")
    print(fmt.format("workload", "metric", "unit", "old median [q1, q3]",
                     "new median [q1, q3]", "verdict"))
    for wl in sorted({r["workload"] for r in old} | {r["workload"] for r in new}):
        for m in bench["end_to_end"]:
            ov = [r["metrics"][m["name"]]["value"] for r in old if r["workload"] == wl]
            nv = [r["metrics"][m["name"]]["value"] for r in new if r["workload"] == wl]
            if ov and nv:
                row = (spread(ov), spread(nv), verdict(ov, nv, m["better"], m["bound"]))
            else:
                row = (spread(ov) if ov else None, spread(nv) if nv else None, "missing")
            print(fmt.format(wl, m["name"], m["unit"], show(row[0]), show(row[1]), row[2]))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = p.parse_args()
    if args.compare:
        compare(*args.compare)
    elif args.workload:
        measure(args)
    else:
        p.error("--workload or --compare is required")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Steadiness check: runs each workload once per seed and reports, for
every end-to-end metric, its median, quartiles and spread against the
bound in BENCHMARK.json.

    python3 scalebench/steady.py [--seeds 1-10] [--seeds 11-20 ...] [--out steady.json]

Each --seeds gives one set of runs: every workload in BENCHMARK.json,
once per seed, for its run_seconds. The spread is the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a
share of the median; it is within bound when it is at most the metric's
bound. A metric is steady when its spread is below a third of its
bound; setup_s is exempt from that rule, as in the acceptance check.
With two or more sets, each later set's medians are compared with the
first set's: a metric is worse by the share its median moved in the
direction BENCHMARK.json calls worse, and within bound when that share
is at most the bound. The uncalibrated timings each run prints are
summarized beside them, without a bound. Each run goes through run.py, exactly as a single
benchmark run does. The summary (with provenance: revision, host CPUs,
seeds, config digests, schema) prints to standard output and, with
--out, is written as JSON. Exits 1 if any run fails or reports
incorrect output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCHEMA = "scalebench-steady/v3"


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t = time.monotonic()
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.monotonic() - t
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {r.returncode}")
    provenance, uncalibrated = {}, {}
    for line in lines[:-1]:
        obj = json.loads(line)
        provenance = obj.get("provenance", provenance)
        uncalibrated = obj.get("uncalibrated", uncalibrated)
    return json.loads(lines[-1]), provenance, uncalibrated, elapsed


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def summarize(values, bound, exempt):
    s = quartiles(values)
    return dict(s, bound=bound, steady=exempt or s["spread"] < bound / 3,
                within_bound=s["spread"] <= bound)


def compare(first, later, metric):
    """How much worse `later`'s median is than `first`'s, as a share of
    the first (negative when it is better)."""
    a, b = first["median"], later["median"]
    worse_by = (b - a) / a if metric["better"] == "lower" else (a - b) / a
    return {"first_median": a, "later_median": b, "worse_by": worse_by,
            "bound": metric["bound"], "within_bound": worse_by <= metric["bound"]}


def run_set(seeds, bench, report):
    """Runs one set and returns its per-workload summary and whether
    every run was correct."""
    metrics_of = {m["name"]: m for m in bench["end_to_end"]}
    ok, summary = True, {}
    for workload in (w["name"] for w in bench["workloads"]):
        per_metric, raw, digests, runs = {}, {}, {}, []
        for seed in seeds:
            result, prov, uncal, elapsed = run_once(workload, seed, bench["run_seconds"])
            ok &= bool(result["correct"]) and result["failed"] == 0
            report["git_rev"] = prov.get("git_rev")
            digests[seed] = prov.get("config_digest")
            runs.append({"seed": seed, "run_s": round(elapsed, 3),
                         "passes": prov.get("passes"),
                         "attempted": result["attempted"], "failed": result["failed"]})
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            for name, m in uncal.items():
                raw.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {elapsed:.1f}s, passes {prov.get('passes')}, "
                  f"failed {result['failed']}", file=sys.stderr)
        metrics = {name: summarize(vals, metrics_of[name]["bound"], name == "setup_s")
                   for name, vals in per_metric.items()}
        # The uncalibrated timings, for comparison; they have no bound.
        uncalibrated = {name: quartiles(vals) for name, vals in raw.items()}
        summary[workload] = {"metrics": metrics, "uncalibrated": uncalibrated,
                             "runs": runs, "config_digests": digests}
        print(f"{workload}, seeds {seeds[0]}-{seeds[-1]}: {len(seeds)} runs")
        print(f"  {'metric':<14} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} "
              f"{'bound':>6}  verdict")
        for name, s in metrics.items():
            verdict = "steady" if s["steady"] else ("within bound" if s["within_bound"]
                                                    else "TOO WIDE")
            print(f"  {name:<14} {s['median']:>14.6g} {s['q1']:>14.6g} {s['q3']:>14.6g} "
                  f"{s['spread']:>8.4f} {s['bound']:>6}  {verdict}")
        for name, s in uncalibrated.items():
            print(f"  {'raw ' + name:<14} {s['median']:>14.6g} {s['q1']:>14.6g} "
                  f"{s['q3']:>14.6g} {s['spread']:>8.4f}")
    return summary, ok


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", action="append",
                   help="one set of seeds, as in 1-10 or 1,3,5; repeat for more sets")
    p.add_argument("--out")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics_of = {m["name"]: m for m in bench["end_to_end"]}

    ok = True
    report = {"schema": SCHEMA, "seconds": bench["run_seconds"],
              "host_cpus": os.cpu_count(), "sets": []}
    for spec in args.seeds or ["1-10"]:
        seeds = parse_seeds(spec)
        summary, set_ok = run_set(seeds, bench, report)
        ok &= set_ok
        report["sets"].append({"seeds": seeds, "workloads": summary})

    first = report["sets"][0]["workloads"]
    for i, later in enumerate(report["sets"][1:], start=1):
        cmp = {w: {name: compare(first[w]["metrics"][name], s, metrics_of[name])
                   for name, s in summary["metrics"].items()}
               for w, summary in later["workloads"].items()}
        later["against_first_set"] = cmp
        print(f"set {i} against set 0 (share worse; bound)")
        for w, per in cmp.items():
            for name, c in per.items():
                verdict = "ok" if c["within_bound"] else "WORSE THAN BOUND"
                print(f"  {w:<16} {name:<14} {c['worse_by']:>+8.4f} {c['bound']:>6}  {verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Run the benchmark over many seeds and record the result.

    python3 bench/collect.py --label "seed commit" --seeds 0-9

For every workload in BENCHMARK.json this runs bench/run.py once per seed
with tracing off, one process per run, then twice with tracing on for the
first seed.  It prints, per end-to-end metric, the median, the quartiles
and the spread (third minus first quartile, over the median) next to the
metric's bound, and whether the trace counts repeated exactly between the
two traced runs.  With --record the summary is appended to results.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results.json")

# Counts that must repeat exactly between runs of the same code and seed.
EXACT_COUNTS = ("mesh_core.flips", "energy.evals", "energy.value_evals",
                "optimize.newton_its")


def run_once(workload, seed, seconds, traced):
    argv = [sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(traced)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                          timeout=600)
    if proc.returncode != 0:
        sys.exit("%s failed:\n%s" % (" ".join(argv), proc.stderr))
    lines = proc.stdout.strip().splitlines()
    env = next(ln for ln in lines if ln.startswith("workload "))
    return json.loads(lines[-1]), env.split(" env ", 1)[1]


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="0-9", help="inclusive range a-b")
    parser.add_argument("--workloads", default=None,
                        help="comma separated; default all")
    parser.add_argument("--note", default="",
                        help="remark stored with the entry")
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--record", action="store_true",
                        help="append the summary to results.json")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    first, last = map(int, args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    entry = {"label": args.label, "note": args.note, "seeds": seeds,
             "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            result, env = run_once(name, seed, spec["run_seconds"], 0)
            runs.append(result)
            print("%s seed %d: %s" % (name, seed, " ".join(
                "%s=%.4g" % (k, m["value"])
                for k, m in result["metrics"].items())), flush=True)
        summary = {"environment": env,
                   "attempted": sum(r["attempted"] for r in runs),
                   "failed": sum(r["failed"] for r in runs),
                   "end_to_end": {}}
        summary["fail_frac"] = summary["failed"] / summary["attempted"]
        for metric in bounds:
            stats = quartiles([r["metrics"][metric]["value"] for r in runs])
            stats["bound"] = bounds[metric]
            stats["values"] = [r["metrics"][metric]["value"] for r in runs]
            summary["end_to_end"][metric] = stats
            print("%s %-12s median %.4g  q1 %.4g  q3 %.4g  spread %.3f  "
                  "bound %.2f" % (name, metric, stats["median"], stats["q1"],
                                  stats["q3"], stats["spread"],
                                  bounds[metric]), flush=True)
        if not args.no_trace:
            traced = [run_once(name, seeds[0], spec["run_seconds"], 1)[0]
                      for _ in range(2)]
            layers = [{k: m["value"] for k, m in t["metrics"].items()}
                      for t in traced]
            summary["per_layer_seed"] = seeds[0]
            summary["per_layer"] = layers[0]
            summary["counts_repeat"] = all(layers[0][k] == layers[1][k]
                                           for k in EXACT_COUNTS)
            summary["traced_failed"] = sum(t["failed"] for t in traced)
            print("%s per-layer (seed %d): %s" % (name, seeds[0], json.dumps(
                layers[0])), flush=True)
            print("%s counts repeat exactly: %s" % (
                name, summary["counts_repeat"]), flush=True)
        entry["workloads"][name] = summary
        print("%s fail_frac %.4g" % (name, summary["fail_frac"]), flush=True)

    if args.record:
        results = []
        if os.path.exists(RESULTS):
            with open(RESULTS) as fh:
                results = json.load(fh)
        results.append(entry)
        with open(RESULTS, "w") as fh:
            json.dump(results, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()

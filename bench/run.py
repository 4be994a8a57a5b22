"""Benchmark of the uniformizer package, run from the root of a checkout.

    python3 bench/run.py --workload sphere --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

One run sets up the workload's inputs from the seed (several times, to
time set-up), then repeats timed passes over them for about --seconds and
checks every output.  It prints each metric by name with its unit, and as
its last line one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones below;
with --trace 1 the passes alternate between traced and untraced, and the
metrics are the per-layer ones from the traced passes, plus the tracing
overhead.  The spans of a traced run go to bench/out/.

--smoke runs every workload, delaunay_cold too, at tiny sizes, each in
its own process, and checks that every metric named in BENCHMARK.json is
printed with its unit and that no output check fails.

The workloads are described in workloads.py, the traced layers in
spans.py.  Metrics are per pass; times are medians over the passes.
"""

import os

# Pin the BLAS thread pools before numpy or scipy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
TRACE_UNITS = {"trace.wall_s": "s", "trace.overhead_s": "s",
               "surfaces.gen_s": "s", "io_cli.bytes_written": "bytes"}

# Set-up runs at least this many times, and until it has taken this long
# in total (cheap set-ups are noisy); setup_s is the median.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0


def import_package():
    """Import uniformizer from this checkout's src/, or exit with an error."""
    if not os.path.isfile(os.path.join(SRC, "uniformizer", "__init__.py")):
        sys.exit("bench: no uniformizer package under %s" % SRC)
    sys.path.insert(0, SRC)
    import uniformizer
    if not os.path.abspath(uniformizer.__file__).startswith(SRC + os.sep):
        sys.exit("bench: imported uniformizer from %s, not from %s"
                 % (uniformizer.__file__, SRC))


def environment():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def run(name, seed, seconds, traced, size_name):
    import spans as tracing
    import workloads

    references = {}
    if os.path.exists(workloads.REFERENCE_FACES):
        with open(workloads.REFERENCE_FACES) as fh:
            references = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = workloads.WORKLOADS[name](
            seed, workloads.SIZES[size_name], workdir, references)

        setup_s, gen_s = [], []
        while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SECONDS:
            t0 = time.perf_counter()
            workload.generate()
            t1 = time.perf_counter()
            workload.write()
            setup_s.append(time.perf_counter() - t0)
            gen_s.append(t1 - t0)

        tracer = tracing.Tracer() if traced else None
        wall, traced_wall, layers, failures = [], [], [], []
        attempted = 0
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            if traced:
                lo = len(tracer.spans)
                tracer.install(tracing.CALL_SITES)
                try:
                    seconds_, failed_, ops = workload.run_pass(tracer)
                finally:
                    tracer.uninstall()
                row = tracing.layer_metrics(tracer.spans, lo,
                                            len(tracer.spans))
                row["io_cli.bytes_written"] = getattr(workload,
                                                      "bytes_written", 0)
                layers.append(row)
                traced_wall.append(seconds_)
                failures += failed_
                attempted += ops
            seconds_, failed_, ops = workload.run_pass(None)
            wall.append(seconds_)
            failures += failed_
            attempted += ops
            now = time.perf_counter()
            if now - start + (now - round_start) > seconds:
                break

    median = statistics.median
    if traced:
        units = dict(tracing.LAYER_UNITS, **TRACE_UNITS)
        # Counts are the same in every pass over the same inputs.
        values = {k: layers[0][k] if units[k] == "count"
                  else median(row[k] for row in layers) for k in layers[0]}
        values["trace.wall_s"] = median(traced_wall)
        values["trace.overhead_s"] = median(traced_wall) - median(wall)
        values["surfaces.gen_s"] = median(gen_s)
    else:
        values = {"setup_s": median(setup_s), "wall_s": median(wall),
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        units = END_TO_END_UNITS
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    if traced:
        path = os.path.join(OUT, "trace-%s-seed%d.json" % (name, seed))
        with open(path, "w") as fh:
            json.dump({"workload": name, "seed": seed, "size": size_name,
                       "environment": environment(), "result": result,
                       "spans": tracer.spans}, fh)
    return result, failures


def print_result(name, seed, result, failures):
    env = environment()
    print("workload %s  seed %d  operations %d  env %s"
          % (name, seed, result["attempted"],
             " ".join("%s=%s" % kv for kv in env.items())))
    for key, m in result["metrics"].items():
        print("  %-28s %-14.6g %s" % (key, m["value"], m["unit"]))
    print("  %-28s %-14.6g %s" % ("fail_frac",
                                  result["failed"] / result["attempted"],
                                  "ratio"))
    for message in failures[:20]:
        print("FAILED %s" % message, file=sys.stderr)
    print(json.dumps(result))


def smoke(seed):
    """Run each workload at smoke size in its own process; 0 if all good."""
    import workloads
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for name in workloads.WORKLOADS:
        for traced, section in ((0, "end_to_end"), (1, "per_layer")):
            argv = [sys.executable, os.path.abspath(__file__),
                    "--workload", name, "--seed", str(seed),
                    "--seconds", "1", "--trace", str(traced),
                    "--size", "smoke"]
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=180)
            label = "%s --trace %d" % (name, traced)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append("%s: exit %d: %s" % (label, proc.returncode,
                                                     proc.stderr[-500:]))
                continue
            result = json.loads(lines[-1])
            expected = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: keys %s" % (label, sorted(result)))
            if not result["correct"] or result["failed"]:
                problems.append("%s: %d of %d operations failed: %s"
                                % (label, result["failed"],
                                   result["attempted"], proc.stderr[-500:]))
            if got != expected:
                problems.append("%s: metrics %s, expected %s"
                                % (label, got, expected))
            print("%-28s %s" % (label, "ok" if not problems else "FAILED"))
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--smoke", action="store_true",
                        help="check every workload at tiny sizes")
    args = parser.parse_args()
    import_package()
    import workloads
    if args.smoke:
        return smoke(args.seed)
    if args.workload not in workloads.WORKLOADS:
        parser.error("--workload must be one of %s"
                     % ", ".join(workloads.WORKLOADS))
    result, failures = run(args.workload, args.seed, args.seconds,
                           bool(args.trace), args.size)
    print_result(args.workload, args.seed, result, failures)
    return 0


if __name__ == "__main__":
    sys.exit(main())

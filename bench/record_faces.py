"""Record the face sets of the sphere workload's polyhedra as the reference.

    python3 bench/record_faces.py --size full --seeds 0-19

For each seed it runs the sphere workload's inputs once, checks each
polyhedron like the benchmark does, and stores a digest of its face set in
reference_faces.json under "n<vertices>" and the seed (null, and a line on
stdout, for an input that fails).  The sphere workload then requires the
same face sets for the recorded seeds.  The recorded digests come from the
commit that defined the benchmark; record again only on purpose, when a
change of the expected output is intended.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from uniformizer import optimize, realize  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--size", choices=sorted(workloads.SIZES),
                        default="full")
    parser.add_argument("--seeds", default="0-19",
                        help="inclusive range a-b")
    args = parser.parse_args()
    size = workloads.SIZES[args.size]
    first, last = map(int, args.seeds.split("-"))

    path = workloads.REFERENCE_FACES
    references = {}
    if os.path.exists(path):
        with open(path) as fh:
            references = json.load(fh)
    table = references.setdefault("n%d" % size["sphere_n"], {})
    for seed in range(first, last + 1):
        digests = []
        for i, metric in enumerate(workloads.sphere_inputs(seed, size)):
            try:
                real = realize.uniformize_sphere(metric, 0)
                kkt = optimize.kkt_check(metric, 0, real.report.u_final)
                problem = workloads.check_polyhedron(real, kkt, None)
            except Exception as exc:  # reported; nothing is recorded
                problem = "%s: %s" % (type(exc).__name__, exc)
            if problem:
                print("seed %d sphere %d FAILED: %s" % (seed, i, problem),
                      flush=True)
                digests.append(None)
            else:
                digests.append(workloads.face_digest(real.faces))
        table[str(seed)] = digests
        print("seed %d: %s" % (seed, " ".join(map(str, digests))),
              flush=True)
        with open(path, "w") as fh:
            json.dump(references, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()

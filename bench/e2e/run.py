#!/usr/bin/env python3
"""Builds bench_e2e from source and runs one workload.

    python3 bench/e2e/run.py --workload sa16 --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout; paths resolve against the
checkout root (two levels above this file). The build goes to
$CARGO_TARGET_DIR if set, else .bench_build, both relative to the root;
the first call configures and compiles (a few minutes), later calls
only re-link what changed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones (and writes a Chrome trace-event file under
<build>/traces/). The bench's own metric lines go to stdout first; the
last line is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(bdir):
    """Configures (once per source tree) and builds bench_e2e."""
    bdir.mkdir(parents=True, exist_ok=True)
    log_path = bdir / "build.log"
    cache = bdir / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}" not in \
            cache.read_text(errors="replace"):
        cache.unlink()  # configured for another checkout
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(bdir), "--target", "bench_e2e",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT).returncode
            if rc != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed ({rc}): {' '.join(cmd)}")
    return bdir / "bench_e2e"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    bdir = build_dir()
    exe = build(bdir)
    tag = f"{args.workload}-{args.seed}-t{args.trace}"
    (bdir / "results").mkdir(exist_ok=True)
    out_path = bdir / "results" / f"{tag}.json"
    out_path.unlink(missing_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", str(out_path),
           "--workdir", os.path.relpath(bdir, ROOT)]
    if args.trace:
        (bdir / "traces").mkdir(exist_ok=True)
        cmd += ["--trace", str(bdir / "traces" / f"{tag}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"bench_e2e did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode not in (0, 1) or not out_path.exists():
        fail(f"bench_e2e exited {proc.returncode} without a result")

    doc = json.loads(out_path.read_text())
    source = doc.get("per_layer" if args.trace else "metrics", {})
    metrics = {}
    for m in wanted:
        got = source.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"bench_e2e did not report {m['name']} in {m['unit']}")
        metrics[m["name"]] = got
    for line in proc.stdout.splitlines():
        if not line.startswith("{"):
            print(line)
    print(json.dumps({"correct": bool(doc["correct"]),
                      "attempted": int(doc["attempted"]),
                      "failed": int(doc["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if doc["correct"] else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Smoke test for bench_e2e (ctest bench_e2e_smoke).

    python3 bench/e2e/smoke.py <path to bench_e2e>

Runs every workload of BENCHMARK.json with --quick and a2c16 once more
with --trace, and checks that:
  - every end-to-end metric is printed as `<metric> <workload> <value>
    <unit>` with the unit BENCHMARK.json names, and error_rate is 0;
  - the traced run prints every per-layer metric, its trace file parses
    as Chrome trace-event JSON, and 0 <= search.self_pct <= 100;
  - the bench refuses to run (exit 2, naming the variable) when an
    RLMUL_* environment variable is set.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
FAILURES = []


def expect(ok, what):
    if not ok:
        FAILURES.append(what)
        print(f"FAIL: {what}", file=sys.stderr)


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("RLMUL_")}


def run(exe, workload, tmp, extra=()):
    cmd = [exe, "--workload", workload, "--seed", "1", "--quick",
           "--workdir", tmp, *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          env=clean_env())
    expect(proc.returncode == 0,
           f"{workload}: exit {proc.returncode}: {proc.stderr[-500:]}")
    printed = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[1] == workload:
            printed[parts[0]] = (float(parts[2]), parts[3])
    return printed


def check_metrics(workload, printed, wanted):
    for m in wanted:
        got = printed.get(m["name"])
        expect(got is not None and got[1] == m["unit"],
               f"{workload}: {m['name']} not printed in {m['unit']}")


def main():
    exe = sys.argv[1]
    with tempfile.TemporaryDirectory(prefix="bench_e2e_smoke.") as tmp:
        for w in SPEC["workloads"]:
            printed = run(exe, w["name"], tmp)
            check_metrics(w["name"], printed, SPEC["end_to_end"])
            expect(printed.get("error_rate", (1.0, ""))[0] == 0.0,
                   f"{w['name']}: error_rate != 0")

        trace = os.path.join(tmp, "trace.json")
        printed = run(exe, "a2c16", tmp, ["--trace", trace])
        check_metrics("a2c16 traced", printed, SPEC["per_layer"])
        self_pct = printed.get("search.self_pct", (-1.0, ""))[0]
        expect(0.0 <= self_pct <= 100.0,
               f"search.self_pct {self_pct} outside [0, 100]")
        try:
            with open(trace) as f:
                events = json.load(f)["traceEvents"]
            names = {e["name"] for e in events}
            expect({"run", "setup", "step", "synth.design"} <= names,
                   f"trace lacks spans: {sorted(names)}")
        except (OSError, ValueError, KeyError) as e:
            expect(False, f"trace does not parse: {e}")

        env = clean_env()
        env["RLMUL_BATCH_EVAL"] = "1"
        proc = subprocess.run([exe, "--workload", "sa16", "--seed", "1",
                               "--quick"], capture_output=True, text=True,
                              timeout=60, env=env)
        expect(proc.returncode == 2 and "RLMUL_BATCH_EVAL" in proc.stderr,
               f"RLMUL_BATCH_EVAL not refused (exit {proc.returncode})")

    if FAILURES:
        print(f"bench_e2e_smoke: {len(FAILURES)} failure(s)")
        return 1
    print("bench_e2e_smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

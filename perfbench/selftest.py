#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size, both modes.

Usage (from the repository root):  python3 perfbench/selftest.py

For each workload it runs `run.py ... --tiny` untraced and traced and
asserts that the run exits 0 with correct=true, that every metric
BENCHMARK.json names for the mode is printed with its declared unit,
and that the sim_digest is the same in both modes.  The traced
cli_flow run only passes when its compile and execute replays are
bit-identical to AimPipeline::compile / execute.  Exits non-zero on
the first failure.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"FAIL {workload} trace={trace}: exit "
                         f"{proc.returncode}")
    digest = re.search(r"^sim_digest: (\w+)", proc.stdout, re.M)
    return json.loads(lines[-1]), digest.group(1) if digest else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        digests = []
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, digest = run(name, trace)
            assert result["correct"] is True, (name, trace)
            assert result["attempted"] >= 1, (name, trace)
            printed = result["metrics"]
            for m in bench[key]:
                got = printed.get(m["name"])
                assert got is not None, (name, trace, m["name"])
                assert got["unit"] == m["unit"], (name, m["name"], got)
                assert isinstance(got["value"], (int, float)), m["name"]
            assert set(printed) == {m["name"] for m in bench[key]}, name
            digests.append(digest)
        assert digests[0] and digests[0] == digests[1], (name, digests)
        print(f"ok {name}: every metric printed with its unit, "
              f"sim_digest {digests[0]} in both modes")
    print("selftest passed")


if __name__ == "__main__":
    main()

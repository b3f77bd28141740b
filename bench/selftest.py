"""Self-test of the benchmark.

    python3 bench/selftest.py [--seconds S]

For every workload: two traced runs with one seed must give identical
``*.calls``, counts and input digests; a traced run with another seed must
give another input digest; the untraced and traced runs must print exactly
the end_to_end and per_layer metrics of BENCHMARK.json, each with its
unit.  A copy of the checkout holding only BENCHMARK.json and bench/ must
exit non-zero without printing a result.  Exits 1 at the first failure.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run(root, workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600)
    return proc


def parse(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])["info"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        raise AssertionError("attempted/failed must be whole numbers, attempted >= 1")
    if result["correct"] != (result["failed"] == 0):
        raise AssertionError("failed must count exactly the failures that make a run incorrect")
    return result, info


def check_metrics(result, declared, where):
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if sorted(got) != sorted(want):
        raise AssertionError(f"{where}: metrics {sorted(set(got) ^ set(want))} differ")
    for name, unit in want.items():
        value = got[name]["value"]
        if got[name]["unit"] != unit or not isinstance(value, (int, float)):
            raise AssertionError(f"{where}: {name} is {got[name]}, unit should be {unit}")


def check_missing_source(workload):
    """A directory with only BENCHMARK.json and bench/ must fail cleanly."""
    base = os.path.join(ROOT, ".bench_run")
    os.makedirs(base, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=base)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, workload, 1, 1, 0)
        if proc.returncode == 0 or proc.stdout.strip():
            raise AssertionError("a checkout without src/ must exit non-zero, printing nothing")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:  # a benchmark run still uses it
            pass
    print("ok   missing source tree: exit non-zero, no result")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seconds", type=float, default=2.0)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    try:
        check_missing_source(bench["workloads"][0]["name"])
        for w in bench["workloads"]:
            name = w["name"]
            a, info_a = parse(run(ROOT, name, 7, args.seconds, 1))
            b, info_b = parse(run(ROOT, name, 7, args.seconds, 1))
            c, info_c = parse(run(ROOT, name, 8, args.seconds, 1))
            for res, where in ((a, "trace"), (b, "trace"), (c, "trace")):
                check_metrics(res, bench["per_layer"], f"{name} {where}")
            differ = [m for m in counts
                      if a["metrics"][m]["value"] != b["metrics"][m]["value"]]
            if differ or info_a["input_sha256"] != info_b["input_sha256"]:
                raise AssertionError(f"{name}: same seed, different counts {differ} or inputs")
            if info_a["input_sha256"] == info_c["input_sha256"]:
                raise AssertionError(f"{name}: seeds 7 and 8 gave the same inputs")
            d, _ = parse(run(ROOT, name, 7, args.seconds, 0))
            check_metrics(d, bench["end_to_end"], f"{name} untraced")
            print(f"ok   {name}: counts repeat for a seed, inputs change with it, "
                  f"all {len(bench['end_to_end'])} + {len(bench['per_layer'])} metrics present")
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of mlheat: one workload per run, one closed-loop client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run times requests for S seconds and prints the
end-to-end metrics that BENCHMARK.json names.  With ``--trace 1`` it makes
an untraced, a traced and another untraced pass over the same fixed list
of requests and prints the per-layer metrics.  The last line of standard output is the
result as JSON; the line before it holds the run's details: versions,
thread settings, load, sample counts and failures by class.

The benchmark imports mlheat from ``src/`` beside ``bench/``; it exits with
status 2, printing no result, when that source tree is missing.
"""

import os
import sys

import loader

loader.pin_threads()  # before anything imports numpy

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from itertools import islice  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKDIR = ".bench_run"  # scratch files of the CLI requests, under the root
SETUP_PROBES = 5
# latency percentiles are taken per block of whole cycles of the workload's
# pattern, at least this many requests (p90 then has ten samples beyond it),
# and averaged over the blocks: the machine runs at a few discrete speeds,
# switching every 0.1-1 s, and a percentile over a whole run of near-equal
# requests jumps between them
BLOCK = 100
LOOP_LIMIT_S = 120.0  # so that a run ends within 180 s on a slow machine


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Tally:
    """Latencies, verdicts and an input digest of the requests of one pass."""

    def __init__(self):
        self.latencies = []
        self.failures = Counter()
        self.unexpected = Counter()
        self.kinds = {}
        self.max_err = None
        self._digest = hashlib.sha256()

    def add(self, req, elapsed, verdict, known):
        self.latencies.append(elapsed)
        self.kinds.setdefault(req.kind, []).append(elapsed)
        self._digest.update(json.dumps([req.kind, req.spec], sort_keys=True).encode())
        if verdict.failure is not None:
            self.failures[verdict.failure] += 1
            if not known:
                self.unexpected[verdict.failure] += 1
        if verdict.rel_err is not None:
            self.max_err = max(verdict.rel_err, self.max_err or 0.0)

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def failed(self):
        return sum(self.failures.values())

    @property
    def failed_unexpected(self):
        return sum(self.unexpected.values())

    def details(self):
        by_kind = {k: {"requests": len(v), "p50_ms": 1e3 * statistics.median(v),
                       "max_ms": 1e3 * max(v)} for k, v in sorted(self.kinds.items())}
        known = workloads.KNOWN_DEFECTS
        return {"requests": self.attempted, "by_kind": by_kind,
                "failed": self.failed, "fail_ratio": self.failed / self.attempted,
                "failures_by_class": dict(sorted(self.failures.items())),
                "known_defects": {c: known[c] for c in sorted(self.failures)
                                  if c in known and self.failures[c] > self.unexpected[c]},
                "unexpected_failures": dict(sorted(self.unexpected.items())),
                "input_sha256": self._digest.hexdigest()}


def execute(req, tracer=None, index=None):
    """(seconds, verdict) of one request; only the call itself is timed."""
    if req.prepare is not None:
        req.prepare()
    if tracer is not None:
        tracer.request = index
    start = time.perf_counter()
    try:
        out = req.call()
    except Exception as exc:  # a request that raises is a failed request
        elapsed = time.perf_counter() - start
        return elapsed, workloads.Verdict(f"raised-{type(exc).__name__}")
    finally:
        if tracer is not None:
            tracer.request = None
    elapsed = time.perf_counter() - start
    return elapsed, req.check(out)


def setup_sample(root, workload, seed, shim):
    """Seconds from ``import mlheat`` through the warm-up request, fresh process."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), workload, str(seed),
         str(int(shim))],
        cwd=root, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def _metrics(declared, values):
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def run_request(wl, tally, req, tracer=None, index=None):
    elapsed, verdict = execute(req, tracer, index)
    tally.add(req, elapsed, verdict, wl.known(req, verdict.failure))


def timed_run(wl, args, bench, root, shim, info):
    samples = [setup_sample(root, args.workload, args.seed, shim) for _ in range(SETUP_PROBES)]
    execute(wl.warmup())
    stream = wl.requests()
    cycle = len(wl.pattern)
    unit = wl.unit or cycle
    tally = Tally()
    start = time.perf_counter()
    for req in stream:
        run_request(wl, tally, req)
        elapsed = time.perf_counter() - start
        if elapsed >= LOOP_LIMIT_S or (elapsed >= args.seconds and stream.panel_covered
                                       and tally.attempted >= BLOCK
                                       and tally.attempted % unit == 0):
            break
    lat = tally.latencies
    # blocks of whole cycles, so that every block holds the same mix of slots
    cycles = len(lat) // cycle
    k = max(1, cycles // -(-BLOCK // cycle))
    bounds = [cycle * (i * cycles // k) for i in range(k)] + [len(lat)]
    blocks = [lat[a:b] for a, b in zip(bounds, bounds[1:])]
    deciles = [statistics.quantiles(b, n=10, method="inclusive") for b in blocks]
    p50 = statistics.fmean(d[4] for d in deciles)
    p90 = statistics.fmean(d[8] for d in deciles)
    values = {
        "setup_s": statistics.median(samples),
        "throughput_ops_s": tally.attempted / math.fsum(lat),
        "latency_p50_ms": 1e3 * p50,
        "latency_p90_ms": 1e3 * p90,
        "max_rel_err": max(tally.max_err or 0.0, workloads.RESOLUTION),
        "pass_ratio": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info.update(tally.details())
    info.update({"loop_seconds": time.perf_counter() - start, "latency_blocks": len(blocks),
                 "samples_beyond_p90_per_block": min(sum(x > d[8] for x in b)
                                                     for b, d in zip(blocks, deciles)),
                 "panel_covered": stream.panel_covered, "setup_samples_s": samples})
    return tally, _metrics(bench["end_to_end"], values)


def traced_run(wl, args, bench, mlheat, shim, info):
    reqs = list(islice(wl.requests(), wl.trace_size(args.seconds)))
    execute(wl.warmup())
    # untraced passes before and after the traced one, so that drift in the
    # machine's speed does not read as tracing overhead
    untraced = math.fsum(execute(req)[0] for req in reqs)
    tally = Tally()
    with tracing.installed(mlheat) as tracer:
        for i, req in enumerate(reqs):
            run_request(wl, tally, req, tracer, i)
            if req.probe is not None:
                tracer.probe("layered.boundary_values", req.probe, i)
    untraced += math.fsum(execute(req)[0] for req in reqs)
    values = tracer.layer_metrics()
    values["trace.overhead_ratio"] = 2.0 * math.fsum(tally.latencies) / untraced
    values["setup.import_needs_shim"] = int(shim)
    info.update(tally.details())
    info["layers"] = values
    return tally, _metrics(bench["per_layer"], values)


def main(argv=None):
    args = parse_args(argv)
    root = loader.repo_root()
    try:
        loader.check_source(root)
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
    except (loader.SourceMissing, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    shim = loader.plain_import_fails(root)
    mlheat = loader.load(root, shim)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "versions": loader.versions(), "nproc": os.cpu_count(),
            "cpus_available": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in loader.THREAD_VARS},
            "loadavg_start": load_start, "setup.import_needs_shim": shim,
            "clients": 1, "loop": "closed"}
    base = os.path.join(root, WORKDIR)
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, mlheat, workdir)
        if args.trace:
            tally, metrics = traced_run(wl, args, bench, mlheat, shim, info)
        else:
            tally, metrics = timed_run(wl, args, bench, root, shim, info)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:  # another run still uses it
            pass
    print(json.dumps({"info": info}))
    # the known defects are output errors of requests that complete; they
    # show in pass_ratio and in the info line, so that ``failed`` holds the
    # requests that break outside them and the same code always reports 0
    print(json.dumps({"correct": not info["unexpected_failures"],
                      "attempted": tally.attempted, "failed": tally.failed_unexpected,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

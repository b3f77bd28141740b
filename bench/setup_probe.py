"""One set-up of mlheat in a fresh process, for the setup_s metric.

    python3 bench/setup_probe.py WORKLOAD SEED SHIM

Prints the seconds from just before ``import mlheat`` to the end of the
workload's warm-up request.  run.py starts it several times per run, so
that every sample pays the import.  SHIM is 1 when numpy needs the
``np.trapz`` alias for mlheat to import.
"""

import os
import shutil
import sys
import tempfile
import time

import loader

loader.pin_threads()


def main():
    workload, seed, shim = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    root = loader.repo_root()
    workdir = tempfile.mkdtemp(prefix="setup-", dir=os.path.join(root, ".bench_run"))
    try:
        start = time.perf_counter()
        mlheat = loader.load(root, shim)
        import workloads  # imports numpy, which belongs to the timed set-up

        req = workloads.WORKLOADS[workload](seed, mlheat, workdir).warmup()
        if req.prepare is not None:
            req.prepare()
        req.call()
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(repr(elapsed))


if __name__ == "__main__":
    main()

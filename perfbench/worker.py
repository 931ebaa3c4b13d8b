"""One benchmark process: import skysim, warm up, then time rounds.

`run.py` starts this with the checkout's `src` on PYTHONPATH and the
BLAS/OpenMP pools capped. It prints one JSON line as soon as the
imports and the warm-up are done, and then, unless `--setup-only` is
given, one JSON line describing the rounds it timed.

In a traced run, odd rounds are traced and even rounds are not, so the
tracing overhead is measured in the same process on the same inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from contextlib import nullcontext
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "thread_caps": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    warm = _fresh(args.work / f"warm-up-{os.getpid()}")
    workload.warm_up(warm)
    shutil.rmtree(warm)
    print(json.dumps({"ready": True}), flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    min_rounds = 2 if tracer else 1
    rounds: list[dict] = []
    start = time.perf_counter()
    while True:
        r = len(rounds)
        inputs = workload.inputs(args.seed, r)
        traced = tracer is not None and r % 2 == 1
        root = _fresh(args.work / f"round-{r}")
        with tracer.round(r) if traced else nullcontext():
            t0 = time.perf_counter()
            out = workload.run(inputs, root)
            seconds = time.perf_counter() - t0
        data = workload.read(out)
        failed, problems = workload.check(inputs, data)
        record = {
            "round": r,
            "items": workload.items(inputs),
            "failed": failed,
            "seconds": seconds,
            "traced": traced,
            "problems": problems,
        }
        if traced:
            record["layers"] = layer_metrics(tracer, r, data)
        rounds.append(record)
        shutil.rmtree(root)
        # stop where the next round would overrun the run's time by more
        # than half a round, so runs end within half a round of it
        longest = max(x["seconds"] for x in rounds)
        if len(rounds) >= min_rounds and (
            time.perf_counter() - start + longest / 2 > args.seconds
        ):
            break
    if tracer is not None:
        tracer.write(args.work / "spans.jsonl")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(
        json.dumps(
            {"rounds": rounds, "peak_rss_mb": peak_kib / 1024, "env": environment()}
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

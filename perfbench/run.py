"""skysim benchmark: one workload, measured end to end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload static_n512 --seed 0 --seconds 30 --trace 0

`--workload all` measures every workload of BENCHMARK.json in turn.

Every measurement runs in fresh worker processes (`worker.py`) with
`src` on the path and the BLAS/OpenMP pools capped at one thread. With
`--trace 0` the run starts SETUP_SAMPLES workers one after another and
times each from its start to the end of its warm-up; the last of them
then times rounds for `--seconds`. With `--trace 1` one worker times
rounds with and without the per-layer tracer.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the metric names and units are
those of BENCHMARK.json. The line before it records the environment.
Everything the run writes goes under `.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is timed this many times per run and reported as the median;
# one more, untimed, start comes first and fills the bytecode cache.
SETUP_SAMPLES = 5
# Whole runs stay inside this many seconds; a worker still running then
# is killed and the run fails.
TIME_LIMIT = 170.0


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def _commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


class Runner:
    """Starts workers for one run and enforces the run's deadline."""

    def __init__(self, root: Path, workload: str, args, work: Path):
        self.deadline = time.monotonic() + TIME_LIMIT
        self.cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work", str(work),
        ]
        path = [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(path),
            **{v: "1" for v in THREAD_VARS},
        )
        self.root = root

    def _line(self, proc) -> dict:
        remaining = self.deadline - time.monotonic()
        ready, _, _ = select.select([proc.stdout], [], [], max(remaining, 0.0))
        line = proc.stdout.readline() if ready else ""
        if not line:
            proc.kill()
            proc.wait()
            raise BenchError(
                "worker ended or timed out without output "
                f"(exit code {proc.returncode})"
            )
        return json.loads(line)

    def start(self, setup_only: bool) -> tuple[subprocess.Popen, float]:
        """A warmed-up worker and the seconds its set-up took."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            self.cmd + (["--setup-only"] if setup_only else []),
            stdout=subprocess.PIPE, text=True, env=self.env, cwd=self.root,
        )
        self._line(proc)
        return proc, time.perf_counter() - t0

    def finish(self, proc, report: bool = True) -> dict | None:
        """Wait for a worker; read its report unless it only set up."""
        try:
            out = self._line(proc) if report else None
        finally:
            try:
                proc.wait(timeout=max(self.deadline - time.monotonic(), 0.0))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"worker exited with code {proc.returncode}")
        return out


def _rate(rounds: list[dict]) -> float:
    """Items completed per second of timed wall time over the rounds."""
    return sum(r["items"] for r in rounds) / sum(r["seconds"] for r in rounds)


def measure(runner: Runner, trace: bool) -> tuple[dict, dict]:
    """(metrics by name, worker report) of one run."""
    if trace:
        proc, _ = runner.start(setup_only=False)
        report = runner.finish(proc)
        rounds = report["rounds"]
        plain = _rate([r for r in rounds if not r["traced"]])
        traced_rounds = [r for r in rounds if r["traced"]]
        traced = _rate(traced_rounds)
        layers = [r["layers"] for r in traced_rounds]
        # median_low keeps an observed value, so counts stay whole numbers
        metrics = {k: statistics.median_low(x[k] for x in layers) for k in layers[0]}
        metrics["trace.items_per_s"] = traced
        metrics["trace.overhead_pct"] = 100.0 * (plain - traced) / plain
        return metrics, report

    proc, _ = runner.start(setup_only=True)
    runner.finish(proc, report=False)
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, seconds = runner.start(setup_only=True)
        runner.finish(proc, report=False)
        setups.append(seconds)
    proc, seconds = runner.start(setup_only=False)
    setups.append(seconds)
    report = runner.finish(proc)
    report["setup_samples"] = setups
    metrics = {
        "items_per_s": _rate(report["rounds"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    return metrics, report


def run_workload(root: Path, spec: dict, name: str, args) -> int:
    """Measure one workload and print its environment and result lines."""
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    work = root / ".perfbench" / f"{name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        metrics, report = measure(Runner(root, name, args, work), bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {name}: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: {name}: no value for {missing}", file=sys.stderr)
        return 1

    rounds = report["rounds"]
    problems = [p for r in rounds for p in r["problems"]]
    for p in problems:
        print(f"perfbench: {name}: check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r["items"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    record = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(root),
        "env": report["env"],
    }
    (work / "run.json").write_text(
        json.dumps({**record, "report": report, "result": result}, indent=1) + "\n"
    )
    print(json.dumps(record))
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all' for each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    if not (root / "src" / "skysim" / "__init__.py").is_file():
        print("perfbench: no skysim sources under src/; run from the root "
              "of a skysim checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}")
    for name in names if args.workload == "all" else [args.workload]:
        code = run_workload(root, spec, name, args)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of ``rsm``: one workload per process, timed end to end, or
traced per layer.

    python3 bench/run.py --workload paper|init|sweep|files --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``rsm`` from ``src/`` there
and writes only under ``bench/work/``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "bench" / "work"
SETUP_PROBES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper", "init", "sweep", "files"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure whole rounds until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=Path, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def probe_setup(args) -> float:
    """Wall time of a fresh interpreter that imports the program and writes
    the workload's inputs, then exits."""
    out = WORK / args.workload / f"probe-{os.getpid()}"
    start = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()),
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--setup-only", str(out)],
                   check=True, stdin=subprocess.DEVNULL)
    elapsed = time.perf_counter() - start
    shutil.rmtree(out, ignore_errors=True)
    return elapsed


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run_round(self, ops, tracer=None) -> float:
        """Run the operations back to back (a closed loop with one caller);
        returns the round's wall seconds."""
        start = time.perf_counter()
        for op in ops:
            self.attempted += 1
            try:
                if tracer is not None and op.span is not None:
                    with tracer.span(op.span):
                        op.run()
                else:
                    op.run()
            except Exception:
                self.failed += 1
                print(f"{op.label} failed:\n{traceback.format_exc()}", file=sys.stderr)
        return time.perf_counter() - start


def measure(workload, seconds: float, tally: Tally):
    """End-to-end run: whole rounds until ``seconds`` have passed.  Returns
    the metrics and every round's wall seconds."""
    ops = workload.operations()
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(tally.run_round(ops))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"run_s": statistics.median(rounds), "peak_rss_mb": peak_kib / 1024.0}, rounds


def measure_traced(workload, seconds: float, tally: Tally, spans_path: Path):
    """Traced run: one round traced for memory, which also warms up, then
    pairs of one plain and one timed traced round until ``seconds`` have
    passed.  Returns the per-layer medians over the timed rounds with the
    peaks of the memory round, and the (plain, traced) wall seconds of
    every pair."""
    from dataclasses import asdict

    from tracing import Tracer, layer_metrics, median_metrics

    ops = workload.operations()

    def traced_round(tracer: Tracer) -> tuple[list, float]:
        tracer.install()
        try:
            wall = tally.run_round(ops, tracer)
        finally:
            tracer.uninstall()
        spans = [s for s in tracer.spans if s.round == tracer.round]
        missing = set(workload.expected_spans) - {s.name for s in spans}
        if missing:
            raise SystemExit(f"traced round recorded no span for: {sorted(missing)}; "
                             f"a call site moved and bench/tracing.py must follow it")
        tracer.round += 1
        return spans, wall

    timer, memory = Tracer(memory=False), Tracer(memory=True)
    peaks = {name: value for name, value in layer_metrics(*traced_round(memory)).items()
             if name.endswith("_peak_mb")}
    plain, traced, per_round = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(tally.run_round(ops))
        spans, wall = traced_round(timer)
        traced.append(wall)
        per_round.append(layer_metrics(spans, wall))
    metrics = dict(median_metrics(per_round), **peaks)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    spans_path.write_text(json.dumps({"timed": [asdict(s) for s in timer.spans],
                                      "memory": [asdict(s) for s in memory.spans]}) + "\n",
                          encoding="utf-8")
    return metrics, list(zip(plain, traced))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "rsm" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'rsm'} not found; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    threads = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = threads
    if args.setup_only is None and not args.trace:
        setup = [probe_setup(args) for _ in range(SETUP_PROBES)]

    sys.path.insert(0, str(ROOT / "src"))
    import rsm
    from workloads import WORKLOADS

    if Path(rsm.__file__).resolve().parent != ROOT / "src" / "rsm":
        print(f"error: imported rsm from {rsm.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.setup_only is not None:
        WORKLOADS[args.workload](args.setup_only, args.seed)
        return 0

    work = WORK / args.workload / "run"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](work, args.seed)
    tally = Tally()
    if args.trace:
        metrics, rounds = measure_traced(workload, args.seconds, tally,
                                         WORK / args.workload / "spans.json")
        names = "per_layer"
    else:
        metrics, rounds = measure(workload, args.seconds, tally)
        metrics["setup_s"] = statistics.median(setup)
        names = "end_to_end"
    try:
        problems = workload.check()
    except Exception:
        problems = [f"outputs could not be read:\n{traceback.format_exc()}"]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec[names]}
    if set(units) != set(metrics):
        raise SystemExit(f"metrics {sorted(metrics)} do not match BENCHMARK.json "
                         f"{names} {sorted(units)}")
    result = {"correct": not problems, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                          for name in units}}
    record = dict(result, workload=args.workload, seed=args.seed, rounds=rounds,
                  blas_threads=threads, problems=problems, checked=workload.checked,
                  setup_probes_s=None if args.trace else setup)
    (WORK / args.workload / "result.json").write_text(json.dumps(record, indent=1) + "\n",
                                                       encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

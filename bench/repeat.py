"""Repeat bench/run.py over several seeds and summarize the spread.

    python3 bench/repeat.py --seeds 1-10 --out bench/reference/set-a.json
    python3 bench/repeat.py --workloads sweep --seeds 1-5

Runs one process per (workload, seed) with the run length of BENCHMARK.json,
one after another.  For each metric (end-to-end, or per-layer with
``--trace 1``) it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the quartile spread as a share
of the median, next to the metric's bound; it exits 1 when any run is
incorrect or the share of failed operations differs between runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(runs: list[dict], bounds: dict[str, float | None]) -> dict[str, dict]:
    out = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        if len(values) > 1:
            q1, median, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = median = q3 = values[0]
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0,
                     "bound": bound, "values": values}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"),
                        help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 runs traced and summarizes the per-layer metrics")
    parser.add_argument("--out", type=Path, default=None,
                        help="write every run and the summary here as JSON")
    args = parser.parse_args(argv)
    bounds = ({m["name"]: None for m in spec["per_layer"]} if args.trace else
              {m["name"]: m["bound"] for m in spec["end_to_end"]})

    report, ok = {}, True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, stdin=subprocess.DEVNULL)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            record = json.loads((ROOT / "bench" / "work" / workload / "result.json")
                                .read_text(encoding="utf-8"))
            runs.append(dict(json.loads(proc.stdout.splitlines()[-1]), seed=seed,
                             rounds=record["rounds"], setup_probes_s=record["setup_probes_s"],
                             checked=record["checked"]))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()),
                flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        ok = ok and correct and len(shares) == 1
        summary = summarize(runs, bounds)
        report[workload] = {"correct": correct, "failed_shares": sorted(shares),
                            "summary": summary, "runs": runs}
        for name, s in summary.items():
            print(f"  {workload:6s} {name:12s} median {s['median']:.4g} "
                  f"q1 {s['q1']:.4g} q3 {s['q3']:.4g} spread {s['spread']:.3f} "
                  f"(bound {s['bound']})", flush=True)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

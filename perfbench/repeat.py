"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workload NAME [--seeds 1-10] [--seconds 30]
                                [--trace 0|1] [--baseline]

For every metric prints the median, the quartiles and their distance as a
share of the median, the measure of spread BENCHMARK.json's bounds are
checked against.  With --baseline the summary is also stored under the
workload's name in perfbench/baseline.json, with the environment of the
last run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "runs": len(values),
            "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--baseline", action="store_true")
    args = ap.parse_args(argv)

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect run: {result}", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    summary = {name: {**summarise(vals), "unit": units[name]}
               for name, vals in values.items()}
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
        print(f"{name:<40} median {s['median']:.6g} {s['unit']}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {spread}  runs {s['runs']}")

    if args.baseline:
        base = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
        record = HERE / "out" / "results" / (
            f"{args.workload}-s{_seeds(args.seeds)[-1]}-t{args.trace}.json")
        env = json.loads(record.read_text())["env"]
        key = args.workload + ("" if args.trace == 0 else ":trace")
        base[key] = {"seeds": args.seeds, "seconds": args.seconds,
                     "metrics": summary, "env": env}
        BASELINE.write_text(json.dumps(base, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

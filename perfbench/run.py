"""stabshare benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds T]
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record

Run from the repository root (any checkout holding src/stabshare).  A run
writes the seeded inputs under perfbench/out/, starts fresh single-threaded
worker processes (perfbench/worker.py) and prints, as its last line, one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1.  A full record of the run, with the environment, per-operation
times and the input census, goes to perfbench/out/results/.

``--workload all`` runs every workload once and prints a table of the
end-to-end metrics with fail_frac.  ``--self-test`` corrupts one expected
digest and one expected check list and shows that the gate fails.
``--record`` rewrites perfbench/expected.json from the current program; run
it only at a commit whose outputs are known to be right.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
sys.path.insert(0, str(HERE))

import codegen  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 9      # fresh processes timed for setup_s, the main worker included
RUN_DEADLINE = 170.0  # seconds; a run must end within 180
BLAS_THREADS = "1"    # one worker, one thread


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment() -> dict:
    return {"git_sha": _git_sha(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "platform": sys.platform}


def _code_specs(items) -> dict:
    """Code key -> worker spec; random codes are written to files first."""
    specs = {}
    (OUT / "codes").mkdir(parents=True, exist_ok=True)
    for item in items:
        spec = item["code"]
        if "random" in spec or "literal" in spec:
            if "literal" in spec:
                text = codegen.dumps(spec["literal"])
            else:
                text = codegen.dumps(codegen.random_code(*spec["random"], spec["seed"]))
            name = hashlib.sha256(spec["seed"].encode()).hexdigest()[:16]
            path = OUT / "codes" / f"{name}.json"
            path.write_text(text, encoding="utf-8")
            key = spec["seed"]
            specs[key] = {"file": str(path),
                          "sha256": hashlib.sha256(text.encode()).hexdigest()}
        else:
            key = f"catalog:{spec['catalog']}:{spec['n']}"
            specs[key] = {"catalog": spec["catalog"], "n": spec["n"]}
        item["code_key"] = key
    return specs


def _manifest(workload, items, mode, seconds, trace, expected, tag) -> Path:
    codes = _code_specs(items)
    ops = []
    for item in items:
        op = {"id": item["id"], "kind": item["kind"], "code": item["code_key"],
              "seed": item["seed"]}
        if expected is not None:
            want = expected["items"].get(item["id"])
            if want is None:
                raise KeyError(f"no expected outputs for {item['id']}; run --record")
            sha = codes[item["code_key"]].get("sha256")
            if sha is not None and sha != want["code_sha256"]:
                raise ValueError(f"generated input for {item['id']} differs from the "
                                 "one its expected outputs were recorded for")
            op["expected"] = want["expected"]
        ops.append(op)
    manifest = {"root": str(ROOT), "workload": workload, "mode": mode,
                "seconds": seconds, "trace": trace, "codes": codes, "ops": ops,
                "spans_file": str(OUT / "results" / f"{tag}.spans.jsonl")}
    path = OUT / "manifests" / f"{tag}.{mode}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return path


def _worker(manifest: Path, timeout: float) -> dict:
    """Run one fresh worker to completion; its last stdout line is the result."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    proc = subprocess.run(
        [sys.executable, "-I", str(HERE / "worker.py"), str(manifest)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_once(workload, seed, seconds, trace, *, corrupt=False) -> dict:
    """One run; returns the contract result plus the full record."""
    started = time.monotonic()
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    items = workloads.select(workload, seed)
    tag = f"{workload}-s{seed}-t{trace}"
    if corrupt:
        expected = _corrupt(expected, items[0]["id"])
        tag += "-selftest"
    run_manifest = _manifest(workload, items, "run", seconds, trace, expected, tag)
    probes = []
    if not trace:
        probe = _manifest(workload, items, "setup", seconds, trace, None, tag)
        probes = [_worker(probe, 30.0) for _ in range(SETUP_PROBES - 1)]
    res = _worker(run_manifest, RUN_DEADLINE - (time.monotonic() - started))
    probes.append(res)
    setup_samples = [p["setup_s"] for p in probes]

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values = {
        "wall_s": sum(statistics.median(v) for v in res["op_ref_s"].values()),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    problems = []
    if trace:
        values = res["layers"]
        if res["zero_on_mapped"]:
            problems.append(f"per-layer metrics read 0 on {workload}: {res['zero_on_mapped']}")
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = res["failed"] == 0 and not problems
    out = {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
           "metrics": metrics}
    op_census = {item["id"]: expected["items"][item["id"]]["census"] for item in items}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "result": out, "fail_frac": res["failed"] / res["attempted"],
              "failures": res["failures"], "problems": problems,
              "pass_walls": res["walls"], "pass_raw_walls": res["raw_walls"],
              "traced_walls": res.get("traced_walls"),
              "setup_samples": setup_samples,
              "setup_raw_samples": [p["setup_raw_s"] for p in probes],
              "op_median_s": {k: statistics.median(v) for k, v in res["op_ref_s"].items()},
              "census": op_census, "env": {**_environment(), **res["env"]},
              "trace_info": {k: res[k] for k in ("bindings", "spans", "spans_dropped")
                             if k in res}}
    path = OUT / "results" / f"{tag}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def _corrupt(expected: dict, item_id: str) -> dict:
    bad = copy.deepcopy(expected)
    want = bad["items"][item_id]["expected"]
    if "checks" in want:
        want["checks"] = want["checks"] + ["no-such-check"]
    else:
        want["triplet"] = "0" * len(want["triplet"])
    return bad


def _print_summary(rec: dict) -> None:
    res = rec["result"]
    for line in rec["failures"] + rec["problems"]:
        print(f"FAIL {line}")
    raw = statistics.median(rec["pass_raw_walls"])
    print(f"{rec['workload']} seed {rec['seed']}: fail_frac {rec['fail_frac']:.4g} "
          f"({res['failed']} failed / {res['attempted']} attempted), "
          f"{len(rec['pass_walls'])} untraced passes, raw pass wall {raw:.3f} s; "
          f"env {json.dumps(rec['env'])}")


def report_all(seed: int, seconds: int) -> int:
    rows = []
    for workload in workloads.NAMES:
        rec = run_once(workload, seed, seconds, 0)
        m = rec["result"]["metrics"]
        rows.append((workload, m, rec))
    print(f"{'workload':<14} {'wall_s':>10} {'setup_s':>10} {'peak_rss_mb':>12} "
          f"{'fail_frac':>10}  failed/attempted")
    for workload, m, rec in rows:
        print(f"{workload:<14} {m['wall_s']['value']:>8.4f} s {m['setup_s']['value']:>8.4f} s "
              f"{m['peak_rss_mb']['value']:>8.1f} MiB {rec['fail_frac']:>8.4f} ratio  "
              f"{rec['result']['failed']}/{rec['result']['attempted']}")
    return 0 if all(rec["result"]["correct"] for _, _, rec in rows) else 1


def self_test() -> int:
    """The gate must fail when an expected output is wrong."""
    caught = []
    for workload in ("ghz-ladder", "oracle-verify"):
        rec = run_once(workload, 0, 0, 0, corrupt=True)
        caught.append(rec["fail_frac"] > 0 and not rec["result"]["correct"])
        print(f"self-test {workload}: corrupted one expected output, fail_frac "
              f"{rec['fail_frac']:.4g} ({rec['result']['failed']}/"
              f"{rec['result']['attempted']}) -> gate {'FAILED as it must' if caught[-1] else 'DID NOT FAIL'}")
    return 0 if all(caught) else 1


def record_expected() -> int:
    items_out = {}
    for workload in workloads.NAMES:
        items = [item for fam in workloads.families(workload) for item in fam]
        manifest = _manifest(workload, items, "record", 0, 0, None, f"{workload}-record")
        got = _worker(manifest, 3600.0)["items"]
        codes = json.loads(manifest.read_text(encoding="utf-8"))["codes"]
        for item in items:
            entry = got[item["id"]]
            entry["code_sha256"] = codes[item["code_key"]].get("sha256")
            items_out[item["id"]] = entry
        print(f"recorded {len(items)} items of {workload}")
    payload = {"recorded_at": _git_sha(), "items": items_out}
    EXPECTED.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "stabshare" / "__init__.py").is_file():
        return _fail(f"no package source at {ROOT / 'src' / 'stabshare'}")
    if not (ROOT / "BENCHMARK.json").is_file():
        return _fail("BENCHMARK.json missing")
    try:
        if args.record:
            return record_expected()
        if args.self_test:
            return self_test()
        if args.workload is None:
            return _fail("--workload is required")
        if args.workload == "all":
            return report_all(args.seed, args.seconds)
        rec = run_once(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, ValueError, KeyError, OSError,
            subprocess.TimeoutExpired) as exc:
        return _fail(f"{type(exc).__name__}: {exc}")
    _print_summary(rec)
    print(json.dumps(rec["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

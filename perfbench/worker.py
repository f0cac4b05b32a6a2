"""One benchmark run in a fresh, single-threaded process.

    python3 -I perfbench/worker.py MANIFEST

The manifest (written by run.py) names the package root, the workload, its
inputs and operations with their expected outputs, the mode, the run length
and whether to trace.  Modes:

  setup   import the package and build every input code, report the time;
  run     set up, then repeat passes over the operation list for the given
          seconds, checking every output; with tracing on, passes alternate
          untraced and traced;
  record  run every operation once and report its outputs, for
          expected.json.

The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from calib import Meter  # noqa: E402

ANALYSIS = ("ghz-ladder", "qudit-mix")
ORACLE = ("oracle-verify",)

# Per-layer metric -> (how it is read from one traced pass, workloads on
# which it must be non-zero so that a missed binding cannot read as 0).
PER_LAYER = {
    "primefield.mod_rref.calls": (("calls", "primefield.mod_rref"), ANALYSIS),
    "primefield.mod_rref.self_s": (("self", "primefield.mod_rref"), ANALYSIS),
    "primefield.mod_rref.cells": (("counter", "cells"), ANALYSIS),
    "infogroup.info_group.calls": (("calls", "infogroup.info_group"), ANALYSIS),
    "infogroup.info_group.self_s": (("self", "infogroup.info_group"), ANALYSIS),
    "infogroup.info_group.calls_per_subset": (("per_subset", "infogroup.info_group"), ANALYSIS),
    "infogroup.classify.total_s": (("total", "infogroup.classify"), ANALYSIS),
    "infogroup.canonical_form.self_s": (("self", "infogroup.canonical_form"), ANALYSIS),
    "twirl.twirl_plan.total_s": (("total", "twirl.twirl_plan"), ANALYSIS),
    "twirl.intermediate_group.total_s": (("total", "twirl.intermediate_group"), ANALYSIS),
    "twirl.sample_twirl.total_s": (("total", "twirl.sample_twirl"), ("qudit-mix",)),
    "pauli.power.self_s": (("self", "pauli.power"), ("qudit-mix",)),
    "pauli.multiply.calls": (("calls", "pauli.multiply"), ("qudit-mix",)),
    "classical.key_transport.total_s": (("total", "classical.key_transport"), ("qudit-mix",)),
    "classical.reconstruct.total_s": (("total", "classical.reconstruct"), ("qudit-mix",)),
    "code.loads.total_s": (("setup_total", "code.loads"), ("qudit-mix", "oracle-verify")),
    "pauli.dense_matrix.calls": (("calls", "pauli.dense_matrix"), ORACLE),
    "pauli.dense_matrix.self_s": (("self", "pauli.dense_matrix"), ORACLE),
    "pauli.dense_matrix.amplitudes": (("counter", "amplitudes"), ORACLE),
    "oracle.projector.total_s": (("total", "oracle.projector"), ORACLE),
    "oracle.info_group_bruteforce.total_s": (("total", "oracle.info_group_bruteforce"), ORACLE),
    "oracle.choi.total_s": (("total", "oracle.choi"), ORACLE),
    "oracle.verify_concealment.total_s": (("total", "oracle.verify_concealment"), ORACLE),
    "oracle.verify_absence.total_s": (("total", "oracle.verify_absence"), ORACLE),
    "oracle.expansion_consistency.total_s": (("total", "oracle.expansion_consistency"), ORACLE),
    "oracle.partial_trace.calls": (("calls", "oracle.partial_trace"), ORACLE),
    "cli.run_checks.total_s": (("total", "cli.run_checks"), ORACLE),
}


def digest(obj) -> str:
    """sha256 of canonical JSON (or of the string itself), 16 hex digits."""
    text = obj if isinstance(obj, str) else json.dumps(
        obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _argv(op, spec) -> list[str]:
    src = spec.get("file") or f"catalog:{spec['catalog']}"
    size = ["--n", str(spec["n"])] if spec.get("n") is not None else []
    return ["simulate", src, *size, "--seed", str(op["seed"]), "--check", "all",
            "--format", "structured"]


class Bench:
    def __init__(self, manifest: dict):
        self.m = manifest
        self.tracer = None
        self.meter = Meter()

    # -- set-up ------------------------------------------------------------

    def setup(self, traced: bool) -> None:
        """Import the package and build every input code."""
        self.S = importlib.import_module("stabshare")
        importlib.import_module("stabshare.cli")
        if traced:
            import tracer
            self.tracer = tracer.Tracer()
            self.tracer.install()
        self.codes = {}
        for key, spec in self.m["codes"].items():
            if "file" in spec:
                self.codes[key] = self.S.code.load(spec["file"])
            else:
                self.codes[key] = self.S.catalog(spec["catalog"], spec.get("n"))
        if traced:
            self.tracer.uninstall()
            self.setup_trace = _snapshot(self.tracer)
        src = Path(self.m["root"], "src").resolve()
        if src not in Path(self.S.__file__).resolve().parents:
            raise RuntimeError(f"imported {self.S.__file__}, not the package under {src}")
        # Caches found before any wrapping, so cache_clear reaches the real ones.
        self.caches = [obj for name in list(sys.modules)
                       if name == "stabshare" or name.startswith("stabshare.")
                       for obj in vars(sys.modules[name]).values()
                       if hasattr(obj, "cache_clear")]

    def clear_caches(self) -> None:
        for cache in self.caches:
            cache.cache_clear()

    # -- operations --------------------------------------------------------

    def execute(self, op) -> dict:
        """The program's work for one operation; this is what is timed."""
        S = self.S
        if op["kind"] == "simulate":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = S.cli.main(_argv(op, self.m["codes"][op["code"]]))
            return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}
        code = self.codes[op["code"]]
        triplet = S.classify(code)
        plan = S.twirl_plan(code, triplet)
        if plan.is_empty:
            return {"triplet": triplet, "plan": plan}
        key, operator = S.sample_twirl(plan, op["seed"])
        shares = S.key_transport(plan, triplet, op["seed"])
        recovered = S.reconstruct(shares, triplet.minimal_authorized[0])
        return {"triplet": triplet, "plan": plan, "key": key, "operator": operator,
                "shares": shares, "recovered": recovered}

    def outputs(self, op, res) -> tuple[dict, list[str]]:
        """What the gate compares, and the problems found without a reference."""
        problems = []
        if op["kind"] == "simulate":
            if res["rc"] != 0:
                return {}, [f"exit code {res['rc']}: {res['stderr'].strip()[-200:]}"]
            payload = json.loads(res["stdout"].strip().splitlines()[-1])
            if payload.get("passed") is not True:
                problems.append("simulate reported passed != true")
            return {"checks": [r["check"] for r in payload["results"]]}, problems
        got = {"triplet": digest(res["triplet"].to_dict()),
               "plan": digest(res["plan"].to_dict())}
        if "shares" in res:
            got["shares"] = digest(res["shares"].to_dict())
            got["operator"] = digest(str(res["operator"]))
            if res["recovered"] != list(res["key"]):
                problems.append("first minimal authorized set did not recover the key")
            outsider = max(res["plan"].prescription.forbidden, key=len)
            try:
                self.S.reconstruct(res["shares"], outsider)
                problems.append(f"non-authorized subset {list(outsider)} reconstructed")
            except self.S.classical.InsufficientSharesError:
                pass
        return got, problems

    def census(self, op, res) -> dict:
        """Input properties a change may depend on; recorded with expected outputs."""
        S, code = self.S, self.codes[op["code"]]
        if "triplet" not in res:
            res = {"triplet": S.classify(code)}
            res["plan"] = S.twirl_plan(code, res["triplet"])
        triplet, plan = res["triplet"], res["plan"]
        scheme = "none"
        if not plan.is_empty:
            scheme = "threshold" if plan.prescription.threshold_q else "monotone"
        return {"D": code.d, "n": code.n, "k": code.k,
                "A": len(triplet.authorized), "F": len(triplet.forbidden),
                "I": len(triplet.intermediate), "r": plan.canonical.r,
                "s": plan.canonical.s, "key_length": plan.key_length,
                "scheme": scheme}

    def check(self, op, sample: bool) -> tuple[float, float, list[str]]:
        """Run one operation; returns (raw s, reference s, problems).

        Gate work is untimed.
        """
        if op["kind"] == "simulate":
            self.clear_caches()  # each simulate stands for a fresh CLI process
        if self.tracer is not None:
            self.tracer.op = op["id"]
        res, error, raw, ref = self.meter.call(self.execute, op, sample=sample)
        if error is not None:
            return raw, ref, [f"{type(error).__name__}: {error}"]
        if self.tracer is not None:
            self.tracer.paused = True
        try:
            got, problems = self.outputs(op, res)
        except Exception as exc:
            got, problems = {}, [f"output unreadable: {type(exc).__name__}: {exc}"]
        finally:
            if self.tracer is not None:
                self.tracer.paused = False
        want = op["expected"]
        if got != want:
            diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
            problems.append(f"output differs from expected in {diff}")
        return raw, ref, problems

    # -- passes ------------------------------------------------------------

    def one_pass(self, traced: bool, log: dict) -> tuple[float, float]:
        """One pass over the operations; returns (raw, reference) seconds."""
        self.clear_caches()
        if traced:
            self.tracer.reset()
            self.tracer.install()
        raw = ref = 0.0
        try:
            for op in self.m["ops"]:
                op_raw, op_ref, problems = self.check(op, sample=not traced)
                raw += op_raw
                ref += op_ref
                log["attempted"] += 1
                if not traced:
                    log["op_ref_s"].setdefault(op["id"], []).append(op_ref)
                if problems:
                    log["failed"] += 1
                    if len(log["failures"]) < 20:
                        log["failures"].append(f"{op['id']}: {'; '.join(problems)}")
        finally:
            if traced:
                self.tracer.uninstall()
        return raw, ref

    def run(self) -> dict:
        trace = bool(self.m["trace"])
        log = {"attempted": 0, "failed": 0, "failures": [], "op_ref_s": {}}
        walls, raw_walls, traced_walls, layer_passes = [], [], [], []
        start = time.perf_counter()
        while True:
            traced = trace and len(traced_walls) < len(walls)
            raw, ref = self.one_pass(traced, log)
            if traced:
                traced_walls.append(ref)
                layer_passes.append(_snapshot(self.tracer))
                self.spans = list(self.tracer.spans)
            else:
                walls.append(ref)
                raw_walls.append(raw)
            elapsed = time.perf_counter() - start
            if trace and not traced_walls:
                continue
            if elapsed + raw > self.m["seconds"]:
                break
        result = {**log, "walls": walls, "raw_walls": raw_walls,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        if trace:
            result.update(self.layer_report(layer_passes, walls, traced_walls))
        return result

    def layer_report(self, passes, walls, traced_walls) -> dict:
        values = {}
        for metric, ((kind, name), _) in PER_LAYER.items():
            values[metric] = statistics.median(
                _read(kind, name, snap, self.setup_trace) for snap in passes)
        values["trace.overhead_s"] = (statistics.median(traced_walls)
                                      - statistics.median(walls))
        zero = sorted(metric for metric, (_, mapped) in PER_LAYER.items()
                      if self.m["workload"] in mapped and not values[metric])
        spans_file = Path(self.m["spans_file"])
        with spans_file.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        return {"layers": values, "traced_walls": traced_walls,
                "zero_on_mapped": zero, "bindings": self.tracer.bindings,
                "spans": len(self.spans), "spans_dropped": passes[-1]["dropped"]}

    def record(self) -> dict:
        items = {}
        for op in self.m["ops"]:
            self.clear_caches()
            res = self.execute(op)
            got, problems = self.outputs(op, res)
            if problems:
                raise RuntimeError(f"{op['id']}: {'; '.join(problems)}")
            items[op["id"]] = {"expected": got, "census": self.census(op, res)}
        return {"items": items}


def _snapshot(tr) -> dict:
    return {"calls": dict(tr.calls), "self": dict(tr.self_s),
            "total": dict(tr.total_s), "counters": dict(tr.counters),
            "dropped": tr.dropped}


def _read(kind, name, snap, setup):
    if kind == "calls":
        return snap["calls"][name]
    if kind == "self":
        return snap["self"][name]
    if kind == "total":
        return snap["total"][name]
    if kind == "counter":
        return snap["counters"].get(name, 0)
    if kind == "per_subset":
        subsets = snap["counters"].get("subsets", 0)
        return snap["calls"][name] / subsets if subsets else 0.0
    if kind == "setup_total":
        return setup["total"][name]
    raise ValueError(kind)


def _environment(S) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "blas": blas, "stabshare": getattr(S, "__version__", "unknown")}


def main() -> int:
    manifest = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    root = Path(manifest["root"])
    sys.path.insert(0, str(root / "src"))
    bench = Bench(manifest)
    mode = manifest["mode"]
    _, error, setup_raw, setup_ref = bench.meter.call(
        bench.setup, mode == "run" and bool(manifest["trace"]), sample=False, before=False)
    if error is not None:
        raise error
    setup = {"setup_raw_s": setup_raw, "setup_s": setup_ref}
    if mode == "setup":
        result = setup
    elif mode == "record":
        result = bench.record()
    else:
        result = {**setup, **bench.run(), "env": _environment(bench.S)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

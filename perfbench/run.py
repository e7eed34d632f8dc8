"""Cold-process benchmark of the rankinfer CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload's CSV inputs are generated
from --seed into a scratch directory of the checkout; each CLI invocation
then runs in a fresh interpreter (`perfbench/child.py`, PYTHONPATH=src),
one at a time, with RANKINFER_THREADS unset. Whole passes over the
workload's invocations repeat until --seconds have elapsed.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
and traced passes and reports per-layer self times taken from spans the
child records around the program's public functions (`spans.py`); it
also reruns the threaded commands with RANKINFER_THREADS=2.

Every output is checked (`checks.py`). The last stdout line is the result
object; the line before it is the full report: environment, input sizes,
per-command times, every layer metric, check details.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import importlib.metadata
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import spans
import workloads

DEFAULT_SEED = 1
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
CHILD = os.path.join("perfbench", "child.py")
CHILD_TIMEOUT_S = 150
# One BLAS thread per child: with two, every BLAS call waits for the other
# vCPU, and on a shared 2-vCPU host that wait alone made calls 6x slower
# for minutes at a time.
CHILD_BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# run_norm_s rescales main() times to a host on which child.calibrate()
# takes this long.
CAL_REFERENCE_S = 0.09

# Which end-to-end metric each layer metric should move, on which workload.
_LEAGUE = [["cs-ranks_s", "league"], ["cs-taubest_s", "league"], ["cs-tauworst_s", "league"]]
_PANEL = [["rank-reg_s", "panel"], ["ranks_s", "panel"]]
_CLI_IO = _PANEL + [["run_norm_s", "panel"]] + _LEAGUE
_RANKREG = [["rank-reg_s", "panel"]]
_MULTINOM = [["cs-multinom_s", "multinom"]]
_ENVELOPE = [["ranks_s", "panel"]]
SHOULD_MOVE = {
    "cli.io.parse_s": _CLI_IO,
    "cli.io.numeric_s": _CLI_IO,
    "cli.io.cells": _CLI_IO,
    "cli.envelope.to_json_s": _ENVELOPE,
    "cli.envelope.bytes": _ENVELOPE,
    "cli.main.self_s": _ENVELOPE,
    "ranking.rank_s": _PANEL,
    "ranking.calls": _PANEL,
    "numerics.cholesky_s": _LEAGUE,
    "numerics.mvn_sample_s": _LEAGUE,
    "numerics.normals": _LEAGUE,
    "numerics.qr_s": _RANKREG,
    "numerics.design_cols": _RANKREG,
    "numerics.log_binom_tail_calls": _MULTINOM,
    "rankcs.pairwise_se_s": _LEAGUE,
    "rankcs.crit_bounds_s": _LEAGUE,
    "rankcs.studentized_diffs": _LEAGUE,
    "multinomcs.pvalue_table_s": _MULTINOM,
    "multinomcs.pvalue_calls": _MULTINOM,
    "multinomcs.adjust_s": _MULTINOM,
    "multinomcs.adjust_calls": _MULTINOM,
    "multinomcs.bounds_s": _MULTINOM,
    "rankreg.model.design_s": _RANKREG,
    "rankreg.model.fit_s": _RANKREG,
    "rankreg.variance.vcov_s": _RANKREG,
    "rankreg.summary_s": _RANKREG,
    "_parallel.threads2.crit_bounds_s": [["cs-ranks_s", "league"]],
    "_parallel.threads2.vcov_s": _RANKREG,
}


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return ""


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it is one."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int) -> dict:
    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in _read("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), None)
    caches = {}
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        level = _read(os.path.join(index, "level")).strip()
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(os.path.join(index, "size")).strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "cache": caches,
        "python": sys.version.split()[0],
        **{name: importlib.metadata.version(name) for name in ("numpy", "scipy", "click")},
        "blas_threads": _blas_threads(),
        "child_blas_env": CHILD_BLAS_ENV,
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                "MKL_NUM_THREADS") if k in os.environ},
        "seed": seed,
    }


class Runner:
    """Runs child invocations one at a time and keeps their outputs."""

    def __init__(self, root: str, workdir: str):
        self.root = root
        self.workdir = workdir
        self.outputs: dict[str, dict] = {}  # output digest -> stdout and SVG bytes
        env = dict(os.environ)
        env.pop("RANKINFER_THREADS", None)
        env.update(CHILD_BLAS_ENV)
        env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"]
                                     if env.get("PYTHONPATH") else "")
        self.env = env

    def invoke(self, inv, trace: bool, threads: int | None = None) -> dict:
        record = os.path.join(self.workdir, "record.json")
        out_path = os.path.join(self.workdir, "stdout")
        err_path = os.path.join(self.workdir, "stderr")
        for path in (record, inv.params.get("svg")):
            if path and os.path.exists(os.path.join(self.root, path)):
                os.unlink(os.path.join(self.root, path))
        env = dict(self.env)
        if threads is not None:
            env["RANKINFER_THREADS"] = str(threads)
        argv = [sys.executable, CHILD, record, "1" if trace else "0", "--", *inv.argv]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            try:
                proc = subprocess.run(argv, cwd=self.root, env=env, stdout=out, stderr=err,
                                      timeout=CHILD_TIMEOUT_S)
                rc = proc.returncode
            except subprocess.TimeoutExpired:
                rc = "timeout"
        result = {"id": inv.id, "rc": rc}
        if rc == 0:
            with open(record, encoding="utf-8") as handle:
                result.update(json.load(handle))
            with open(out_path, "rb") as handle:
                stdout = handle.read()
            svg = b""
            if "svg" in inv.params:
                svg_path = os.path.join(self.root, inv.params["svg"])
                if os.path.exists(svg_path):
                    with open(svg_path, "rb") as handle:
                        svg = handle.read()
            digest = hashlib.sha256(stdout + b"\x00" + svg).hexdigest()
            if digest not in self.outputs:
                self.outputs[digest] = {"stdout": stdout, "svg": svg or None}
            result["output"] = digest
        else:
            result["stderr"] = _read(err_path)[-2000:]
        return result

    def run_pass(self, workload, trace: bool) -> dict:
        return {inv.id: self.invoke(inv, trace) for inv in workload.invocations}


def _quartiles(values: list) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _ok(result: dict) -> bool:
    return result["rc"] == 0


def end_to_end(workload, passes: list) -> dict:
    """run_s sums each invocation's median main() time over the passes;
    per-command sums the same way; setup_s is the median import time.
    run_norm_s is run_s times CAL_REFERENCE_S over the median calibration
    time of the same children, which takes out the host's speed drift."""
    ok = [r for p in passes for r in p.values() if _ok(r)]
    if not ok:
        return {}
    per_inv, samples = {}, {}
    for inv in workload.invocations:
        times = [p[inv.id]["main_s"] for p in passes if _ok(p[inv.id])]
        if times:
            per_inv[inv.id] = _quartiles(times)
            samples[inv.id] = times
    metrics = {
        "run_s": sum(q["median"] for q in per_inv.values()),
        "setup_s": statistics.median(r["import_s"] for r in ok),
        "peak_rss_mb": max(r["maxrss_kb"] for r in ok) / 1024.0,
    }
    cal = [r["cal_s"] for r in ok if "cal_s" in r]
    if cal:
        metrics["run_norm_s"] = metrics["run_s"] * CAL_REFERENCE_S / statistics.median(cal)
    for inv in workload.invocations:
        key = inv.command + "_s"
        metrics[key] = metrics.get(key, 0.0) + per_inv.get(inv.id, {"median": 0.0})["median"]
    pass_sums = [sum(r["main_s"] for r in p.values() if _ok(r)) for p in passes]
    return {"metrics": metrics, "per_invocation": per_inv, "main_s_samples": samples,
            "cal_s": _quartiles(cal) if cal else None,
            "run_s_per_pass": _quartiles(pass_sums), "pass_sums": pass_sums,
            "setup_s_samples": _quartiles([r["import_s"] for r in ok])}


def per_layer(workload, traced: list, plain: list, threaded: list) -> dict:
    """Median over traced passes of each invocation's layer metrics,
    summed over invocations; also split by input file."""
    layers = {}
    for inv in workload.invocations:
        per_pass = [spans.layer_metrics(p[inv.id]) for p in traced if _ok(p[inv.id])]
        names = sorted({name for m in per_pass for name in m})
        layers[inv.id] = {name: statistics.median(m.get(name, 0.0) for m in per_pass)
                          for name in names}
    total, by_input = {}, {}
    for inv in workload.invocations:
        bucket = by_input.setdefault("+".join(inv.inputs), {})
        for name, value in layers[inv.id].items():
            total[name] = total.get(name, 0.0) + value
            bucket[name] = bucket.get(name, 0.0) + value
    traced_run = end_to_end(workload, traced).get("metrics", {}).get("run_s")
    plain_run = end_to_end(workload, plain).get("metrics", {}).get("run_s")
    accounted = [sum(v for name, v in spans.layer_metrics(r).items() if name.endswith("_s"))
                 / r["main_s"] for p in traced for r in p.values() if _ok(r)]
    threads = {}
    for inv_id, runs in threaded.items():
        ok = [spans.layer_metrics(r) for r in runs if _ok(r)]
        for name, key in (("rankcs.crit_bounds_s", "crit_bounds_s"),
                          ("rankreg.variance.vcov_s", "vcov_s")):
            if ok and name in ok[0]:
                threads[f"_parallel.threads2.{key}"] = statistics.median(m[name] for m in ok)
                threads[f"_parallel.serial.{key}"] = layers[inv_id][name]
    missing = sorted({m for p in traced for r in p.values() for m in r.get("missing", [])})
    return {
        "metrics": total,
        "by_input": by_input,
        "per_invocation": layers,
        "threads": threads,
        "trace.run_s": traced_run,
        "trace.overhead_s": None if None in (traced_run, plain_run) else traced_run - plain_run,
        "accounted_share_of_main": _quartiles(accounted),
        "missing_spans": missing,
    }


def check_outputs(workload, runner: Runner, passes: list, seed: int) -> dict:
    """Run every check once per distinct output; cross-invocation checks
    per pass. Returns failure messages keyed by output digest."""
    checker = checks.Checker(workload)
    invs = {inv.id: inv for inv in workload.invocations}
    verdicts: dict[str, list] = {}
    envelopes: dict[str, dict] = {}
    reference = None
    if seed == DEFAULT_SEED:
        with open(os.path.join(REFERENCE_DIR, workload.name + ".json"), encoding="utf-8") as f:
            reference = json.load(f)
    for p in passes:
        for inv_id, result in p.items():
            digest = result.get("output")
            if digest is None or digest in verdicts:
                continue
            out = runner.outputs[digest]
            try:
                envelope = json.loads(out["stdout"])
            except ValueError as exc:
                verdicts[digest] = [f"{inv_id}: stdout is not JSON: {exc}"]
                continue
            envelopes[digest] = envelope
            fails = checker.check(invs[inv_id], envelope, out["svg"])
            if reference is not None:
                fails += checks.compare(reference["invocations"][inv_id],
                                        {"input_digest": envelope.get("input_digest"),
                                         "results": envelope.get("results")}, inv_id)
            verdicts[digest] = [f"{inv_id}: {msg}" for msg in fails]
    for p in passes:
        results = {inv_id: envelopes[r["output"]]["results"] for inv_id, r in p.items()
                   if r.get("output") in envelopes}
        for inv_id, message in checks.relations(results):
            digest = p[inv_id]["output"]
            if message not in verdicts[digest]:
                verdicts[digest] = verdicts[digest] + [message]
    return {"verdicts": verdicts, "knife_edge_skipped": checker.knife_edge_skipped,
            "reference_applied": reference is not None}


def record_reference(workload, runner: Runner, passes: list) -> None:
    out = {"seed": DEFAULT_SEED, "invocations": {}}
    for inv_id, result in passes[0].items():
        envelope = json.loads(runner.outputs[result["output"]]["stdout"])
        out["invocations"][inv_id] = checks.summarize(
            {"input_digest": envelope["input_digest"], "results": envelope["results"]})
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(os.path.join(REFERENCE_DIR, workload.name + ".json"), "w", encoding="utf-8") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help=f"write reference/<workload>.json (seed {DEFAULT_SEED} only)")
    args = parser.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rankinfer", "cli", "main.py")):
        print("error: run from the root of a rankinfer checkout; src/rankinfer is missing",
              file=sys.stderr)
        return 2
    if args.record_reference and args.seed != DEFAULT_SEED:
        parser.error(f"--record-reference needs --seed {DEFAULT_SEED}")
    workdir = os.path.join(root, ".perfbench", str(os.getpid()))
    os.makedirs(workdir)
    try:
        return measure(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


def load_spec(root: str) -> dict:
    """Workload reasons and metric units from BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        "why": {w["name"]: w["why"] for w in spec["workloads"]},
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def measure(args, root: str, workdir: str) -> int:
    spec = load_spec(root)
    workload = workloads.BUILDERS[args.workload](args.seed, workdir, root)
    runner = Runner(root, workdir)
    # untimed import: compiles bytecode and warms the file cache once,
    # which an installed CLI does not pay per call
    warm = runner.invoke(workloads.Invocation("warm-up", "", ["--version"], []), trace=False)
    if warm["rc"] != 0:
        print(f"error: rankinfer does not start: {warm.get('stderr', '')}", file=sys.stderr)
        return 2
    plain, traced, threaded = [], [], {inv_id: [] for inv_id in workload.threads2}
    by_id = {inv.id: inv for inv in workload.invocations}
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        plain.append(runner.run_pass(workload, trace=False))
        if args.trace:
            traced.append(runner.run_pass(workload, trace=True))
            for inv_id in workload.threads2:
                threaded[inv_id].append(runner.invoke(by_id[inv_id], trace=True, threads=2))
        now = time.perf_counter()
        # stop once another round would overrun --seconds by more than half a round
        if now - start + (now - began) / 2 >= args.seconds:
            break
    elapsed = time.perf_counter() - start
    every = plain + traced
    if args.record_reference:
        record_reference(workload, runner, plain)
    checked = check_outputs(workload, runner,
                            every + [{r["id"]: r} for rs in threaded.values() for r in rs],
                            args.seed)
    verdicts = checked["verdicts"]
    results = [r for p in every for r in p.values()] + [r for rs in threaded.values() for r in rs]
    failures = [r for r in results if r["rc"] != 0 or verdicts.get(r["output"])]
    attempted, failed = len(results), len(failures)
    for r in results:  # a failed check marks the invocation as not ok
        if r["rc"] == 0 and verdicts.get(r["output"]):
            r["rc"] = "check"
    report = {
        "workload": workload.name,
        "why": spec["why"][workload.name],
        "seed": args.seed,
        "seconds": args.seconds,
        "measured_s": elapsed,
        "trace": args.trace,
        "loop": "closed, one client: one fresh interpreter per invocation, one at a time",
        "environment": environment(args.seed),
        "inputs": {key: f.sizes() for key, f in workload.inputs.items()},
        "invocations": [{"id": inv.id, "argv": inv.argv,
                         "inputs": {k: workload.inputs[k].sizes() for k in inv.inputs}}
                        for inv in workload.invocations],
        "passes": len(plain),
        "error_rate": failed / attempted,
        "failures": sorted({msg for r in failures
                            for msg in verdicts.get(r.get("output"), [])
                            or [f"{r['id']}: exit {r['rc']}: {r.get('stderr', '')}"]})[:20],
        "knife_edge_skipped": checked["knife_edge_skipped"],
        "reference_applied": checked["reference_applied"],
        "end_to_end": end_to_end(workload, plain),
        "should_move": SHOULD_MOVE,
    }
    if args.trace:
        report["per_layer"] = per_layer(workload, traced, plain, threaded)
        values = report["per_layer"]["metrics"]
        units = spec["per_layer"]
    else:
        values = report["end_to_end"].get("metrics", {})
        units = spec["end_to_end"]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and len(metrics) == len(units),
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""polympe benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --record-reference

One invocation measures one workload for about ``--seconds`` seconds. Each
workload run is a fresh process (perfbench/rep.py), one at a time, with the
BLAS and OpenMP threads pinned to 1. The mesh seed is ``--seed`` mod 2.
Runs come in cycles (see ``measure``); a cycle starts only while it is
expected to end within the time given, and at least one runs.

--trace 0 reports the end-to-end metrics: medians over the untraced runs.
--trace 1 reports the per-layer metrics: medians over the traced runs, and
``trace.overhead_s``, the median over cycles of the traced wall time minus
the untraced wall time just before it. The last line of standard output is the JSON result; the full record,
with every run, percentiles and provenance, goes to
.bench_out/BENCH_<workload>[.trace].json.

--all runs every workload with both passes, prints every metric and
rewrites BENCHMARK.json from perfbench/spec.py. --record-reference reruns
every workload once per mesh seed and rewrites perfbench/reference.json: do
that only when the outputs are meant to change.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
from probes import ROOT_SPAN  # noqa: E402

# each workload process gets this long
REP_TIMEOUT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in spec.THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def provenance() -> dict:
    import numpy
    import scipy
    import sympy
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "sympy": sympy.__version__,
            "machine": platform.machine(), "processes": "one workload process at a time"}


def run_rep(workload: str, mesh_seed: int, trace: int, timeout: float, check=True) -> dict:
    """One workload run in a fresh process; returns its record, with
    ``ok`` false when it exited non-zero, failed its check or printed no
    record."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--mesh-seed", str(mesh_seed), "--trace", str(trace),
           "--work", str(OUT / "work" / workload)]
    if not check:
        cmd.append("--no-check")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"ok": False, "failures": [f"timed out after {timeout:.0f} s"],
                "elapsed_s": time.perf_counter() - t0, "trace": trace}
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"ok": False, "failures": [f"exit code {proc.returncode}, no record: {tail}"],
                "elapsed_s": elapsed, "trace": trace}
    if proc.returncode != 0:
        rec["failures"].append(f"exit code {proc.returncode}")
    rec["ok"] = not rec["failures"]
    rec["elapsed_s"] = elapsed
    return rec


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, int(-(-q * len(s) // 100)) - 1))]


def summarize(values) -> dict:
    return {"median": statistics.median(values), "p90": percentile(values, 90),
            "n": len(values)} if values else {"median": 0.0, "p90": 0.0, "n": 0}


def layer_values(rec: dict) -> dict:
    """Per-layer metric values of one traced record."""
    spans, counts = rec["spans"], rec["counts"]
    out = {}
    for name, _ in spec.PER_LAYER:
        if name.startswith("layer."):
            prefix = name[len("layer."):-len("_s")] + "."
            out[name] = sum(v["self_s"] for k, v in spans.items() if k.startswith(prefix))
        elif name.endswith("_calls"):
            out[name] = spans.get(name[:-len("_calls")], {}).get("calls", 0)
        elif name.endswith("_s") and not name.startswith("trace."):
            out[name] = spans.get(name[:-len("_s")], {}).get("self_s", 0.0)
        elif name in dict(spec.SIZE_COUNTS):
            out[name] = counts.get(name, 0)
    out["trace.unattributed_s"] = spans[ROOT_SPAN]["self_s"]
    out["trace.wall_s"] = rec["root_s"]
    out["trace.spans"] = rec["n_spans"]
    return out


def count_flags(recs: list) -> list:
    """Runs whose counts differ from the first run. Call counts are compared
    among traced runs only."""
    flags, first_calls = [], None
    for i, r in enumerate(recs):
        if r["counts"] != recs[0]["counts"]:
            flags.append(f"run {i}: size counts differ from run 0")
        if r["trace"] == 1:
            calls = {k: v["calls"] for k, v in r["spans"].items()}
            first_calls = first_calls or calls
            if calls != first_calls:
                flags.append(f"run {i}: call counts differ from the first traced run")
    return flags


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run whole cycles of workload processes until the next cycle is not
    expected to end within ``seconds``; at least one cycle runs. Untraced, a
    cycle is one run of mesh seed ``seed`` mod the number of mesh seeds;
    traced, it runs that mesh seed untraced and then traced."""
    mesh_seed = seed % spec.N_MESH_SEEDS
    cycle = [0, 1] if trace == 1 else [0]
    start = time.perf_counter()
    deadline = start + seconds
    recs, cycle_s = [], []
    crashed = False
    while not crashed and (not cycle_s or time.perf_counter() + statistics.median(cycle_s) <= deadline):
        t0 = time.perf_counter()
        for kind in cycle:
            rec = run_rep(workload, mesh_seed, kind, REP_TIMEOUT_S)
            rec.setdefault("mesh_seed", mesh_seed)
            recs.append(rec)
            crashed |= "wall_s" not in rec  # do not keep retrying a crash
        cycle_s.append(time.perf_counter() - t0)

    good = [r for r in recs if "wall_s" in r]
    flags = count_flags(good)
    failed = len(recs) if flags else sum(not r["ok"] for r in recs)
    untraced = [r for r in good if r["trace"] == 0]
    traced = [r for r in good if r["trace"] == 1]
    e2e = {"wall_s": summarize([r["wall_s"] for r in untraced])}
    for p in ("setup_s", "solve_s", "post_s"):
        e2e[p] = summarize([r["phases"][p] for r in untraced])
    e2e["peak_rss_mb"] = summarize([r["peak_rss_mb"] for r in untraced])
    layers = {}
    if traced:
        per_rec = [layer_values(r) for r in traced]
        layers = {k: summarize([v[k] for v in per_rec]) for k in per_rec[0]}
        # each traced run follows an untraced run of the same mesh seed
        pairs = [(b["root_s"] - a["wall_s"]) for a, b in zip(recs, recs[1:])
                 if a.get("trace") == 0 and b.get("trace") == 1 and "wall_s" in a and "root_s" in b]
        layers["trace.overhead_s"] = summarize(pairs)
    notes = []
    for r in good:
        notes.extend(x for x in r["notes"] if x not in notes)
    return {"workload": workload, "seed": seed, "mesh_seed": mesh_seed,
            "seconds": seconds, "trace": trace,
            "provenance": dict(provenance(), threads=good[0]["threads"] if good else None),
            "attempted": len(recs), "failed": failed,
            "fail_ratio": failed / max(len(recs), 1),
            "end_to_end": e2e, "per_layer": layers, "count_flags": flags,
            "failures": [f for r in recs for f in r["failures"]], "notes": notes,
            "counts": good[0]["counts"] if good else {}, "elapsed_s": time.perf_counter() - start,
            "runs": [{k: v for k, v in r.items() if k != "spans"} for r in recs]}


def report(res: dict) -> dict:
    """Print every metric of the pass by name and unit; return the JSON
    result line, which holds the metrics of BENCHMARK.json."""
    if res["trace"] == 0:
        table, gated = res["end_to_end"], [(n, u) for n, u, _ in spec.END_TO_END]
        units = dict(gated + spec.PHASE_SPLIT)
    else:
        table, gated = res["per_layer"], spec.BENCHMARK_PER_LAYER
        units = dict(spec.PER_LAYER)
    wl = res["workload"]
    print(f"# {wl}  seed {res['seed']} (mesh seed {res['mesh_seed']})  "
          f"trace {res['trace']}  runs {res['attempted']}  failed {res['failed']}  "
          f"fail_ratio {res['fail_ratio']:.3f}")
    for name in (n for n in units if n in table):
        s = table[name]
        print(f"{wl}  {name:40s} median {s['median']:.6g} {units[name]}  "
              f"p90 {s['p90']:.6g}  n {s['n']}")
    if res["trace"] == 1 and table:
        total = sum(table[f"layer.{layer}_s"]["median"] for layer in spec.LAYERS)
        print(f"{wl}  layer self times {total:.6g} s + unattributed "
              f"{table['trace.unattributed_s']['median']:.6g} s; traced wall "
              f"{table['trace.wall_s']['median']:.6g} s")
    for key, val in sorted(res["counts"].items()):
        print(f"{wl}  count {key} = {val}")
    for line in res["notes"] + res["count_flags"] + res["failures"]:
        print(f"{wl}  note: {line}")
    metrics = {name: {"value": table[name]["median"], "unit": unit}
               for name, unit in gated if name in table}
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def write_result(res: dict):
    OUT.mkdir(exist_ok=True)
    suffix = ".trace" if res["trace"] else ""
    path = OUT / f"BENCH_{res['workload']}{suffix}.json"
    path.write_text(json.dumps(res, indent=1, sort_keys=True) + "\n")


def record_reference():
    refs = {}
    for name, _ in spec.WORKLOADS:
        refs[name] = {}
        for seed in range(spec.N_MESH_SEEDS):
            rec = run_rep(name, seed, 0, REP_TIMEOUT_S, check=False)
            if not rec["ok"]:
                sys.exit(f"{name} mesh seed {seed} failed: {rec['failures']}")
            refs[name][str(seed)] = {**rec["outputs"], "counts": rec["counts"]}
            print(name, seed, rec["notes"], flush=True)
    (HERE / "reference.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def missing_sources() -> list:
    need = [ROOT / "src" / "polympe" / "__init__.py", ROOT / "configs"]
    return [str(p.relative_to(ROOT)) for p in need if not p.exists()]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[n for n, _ in spec.WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()

    missing = missing_sources()
    if missing:
        print(f"error: run from a polympe checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference()
        return 0
    if args.all:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        ok = True
        for name, _ in spec.WORKLOADS:
            for trace in (0, 1):
                res = measure(name, args.seed, args.seconds, trace)
                write_result(res)
                ok &= report(res)["correct"]
        return 0 if ok else 1
    if args.workload is None:
        ap.error("give --workload, --all or --record-reference")
    res = measure(args.workload, args.seed, args.seconds, args.trace)
    write_result(res)
    result = report(res)
    if not any(r.get("wall_s") for r in res["runs"]):
        print("error: no workload run completed", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

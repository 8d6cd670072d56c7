"""One run of one workload in a fresh process; prints one JSON record as the
last line of standard output.

    python3 perfbench/rep.py --workload NAME --mesh-seed S --trace 0|1 --work DIR

The wall clock starts after polympe is imported and stops after the outputs
are checked. Untraced, the record holds the wall time split into the setup,
solve and post phases; traced, it holds the per-span self times and call
counts, and the spans are written to DIR/spans.npz. Both hold the size
counts, the peak resident memory, the outputs and any check failures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--mesh-seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--no-check", action="store_true",
                    help="skip the reference check (used to record references)")
    args = ap.parse_args()

    t_import = time.perf_counter()
    import polympe.cli  # noqa: F401  (loads every layer module)
    import polympe.driver  # noqa: F401
    import_s = time.perf_counter() - t_import

    import probes
    from spec import THREAD_VARS
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    refs = json.loads((HERE / "reference.json").read_text())
    ref = refs.get(wl.name, {}).get(str(args.mesh_seed))

    work = Path(args.work)
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)

    tracer = probes.Tracer() if args.trace else None
    instr = probes.Instrumentation(wl.gates, tracer)
    t0 = time.perf_counter()
    instr.clock.start()
    if tracer is not None:
        tracer.open_root()
    try:
        out = wl.run(args.mesh_seed, work)
        if args.no_check:
            failures = []
        elif ref is None:
            failures = [f"no reference recorded for mesh seed {args.mesh_seed}"]
        else:
            failures = wl.check(out, ref)
    finally:
        root_s = tracer.close_root() if tracer is not None else None
        wall = time.perf_counter() - t0
        phases = instr.clock.stop()
        instr.restore()

    counts = dict(instr.counts.values)
    counts["outputs.bytes_written"] = int(out["bytes_written"])
    record = {"workload": wl.name, "mesh_seed": args.mesh_seed, "trace": args.trace,
              "wall_s": wall, "import_s": import_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "threads": {v: os.environ.get(v) for v in THREAD_VARS},
              "counts": counts, "outputs": out, "failures": failures,
              "notes": wl.notes(out, args.mesh_seed)}
    if tracer is None:
        record["phases"] = {f"{p}_s": v for p, v in phases.items()}
    else:
        record["root_s"] = root_s
        record["spans"] = tracer.summary()
        record["n_spans"] = len(tracer.spans)
        tracer.save(work / "spans.npz")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""What the benchmark measures: workloads, metrics and their bounds. This is
the single source of BENCHMARK.json (``python3 perfbench/run.py --all``
rewrites it from here)."""

from __future__ import annotations

from probes import LAYERS

COMMAND = ["python3", "perfbench/run.py"]
# pinned to 1 in every workload process
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PATHS = ["perfbench"]
RUN_SECONDS = 60
# mesh seed = --seed mod N_MESH_SEEDS: seed 0 and the held-out seed 1, each
# with reference outputs
N_MESH_SEEDS = 2

WORKLOADS = [
    ("unsteady-verify",
     "criterion-3 verification sweep: many elements at m=2, about half its time in "
     "error norms and exact-field calls, a short time loop"),
    ("spectral-steady",
     "few elements with large local blocks (m=1..5): assembly and factorization of the "
     "steady operator; never steps, so it bypasses the stepping layer"),
    ("pulsatile-march",
     "three heartbeats of the brain demo (300 steps, 320 polygons, m=2): per-step loads, "
     "triangular solves and snapshot writers; never runs norms"),
    ("agglomerate-brain",
     "agglomeration of a 4.6k-triangle mesh to (910, 101) polygons: mesh layers only, "
     "every DG layer bypassed"),
]
# The workloads in BENCHMARK.json. spectral-steady and agglomerate-brain run
# with --workload and --all but are left out: a benchmark round allows
# 3420 s for 4 + 22 runs per workload, so four workloads leave about 30 s
# per run, one unit of the heavy workloads, and their spread across runs
# reached the largest allowed bound (IQR/median 0.22-0.26). unsteady-verify
# and pulsatile-march together still call every layer module.
BENCHMARK_WORKLOADS = ("unsteady-verify", "pulsatile-march")

# Time bounds are the largest allowed: on the shared 2-vCPU machine the
# benchmark was tuned on, the speed of a plain Python loop varies by +-17 %
# between 15 s windows, with nothing else of ours running, and wall_s spread
# over 10 seeds by IQR/median 0.11-0.23.
END_TO_END = [
    ("wall_s", "s", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.1),
]
# The rest of the phase split: printed and stored with the end-to-end
# metrics, but not in BENCHMARK.json, because over 10 seeds their spread
# reached 0.21 (solve_s) and 0.27 (post_s) on pulsatile-march, at or over
# the largest allowed bound.
PHASE_SPLIT = [("solve_s", "s"), ("post_s", "s")]

_SPAN_TIMES = [
    "norms.energy_norm", "norms.broken_norms", "manufactured.exact",
    "forms.assemble_elastic", "forms.assemble_pressure", "forms.assemble_fluid",
    "forms.assemble_interface", "forms.assemble_loads",
    "system.build_system", "system.build_steady",
    "spaces.build_space", "spaces.l2_project",
    "stepping.advance", "stepping.build_stepping_matrices", "stepping.initial_state",
    "solvers.solve", "solvers.factorize",
    "families.triangulated_two_domain", "agglomerate.agglomerate",
    "agglomerate.partition_assignment", "agglomerate.validate_partition",
    "mesh.build_faces", "mesh.quality_report", "mesh.save_mesh",
    "outputs.write_snapshot_csv", "outputs.write_snapshot_vtk",
    "outputs.write_rate_table", "outputs.write_manifest",
]
_SPAN_CALLS = ["norms.broken_norms", "manufactured.exact", "forms.assemble_loads",
               "solvers.solve"]
SIZE_COUNTS = [
    ("spaces.n_dofs", "count"), ("system.operator_nnz", "count"),
    ("stepping.a1_rows", "count"), ("stepping.a1_nnz", "count"),
    ("solvers.lu_nnz", "count"), ("mesh.n_elements", "count"), ("mesh.n_faces", "count"),
    ("outputs.bytes_written", "B"),
]

# Spans that only the steady path (spectral-steady) or `polympe agglomerate`
# (agglomerate-brain) calls: 0 on every BENCHMARK_WORKLOADS run, so they are
# printed but left out of BENCHMARK.json and of the JSON result line.
UNREACHED_BY_BENCHMARK = {
    "system.build_steady_s", "outputs.write_rate_table_s",
    "agglomerate.partition_assignment_s", "agglomerate.validate_partition_s",
    "mesh.quality_report_s", "mesh.save_mesh_s",
}

PER_LAYER = ([(f"{s}_s", "s") for s in _SPAN_TIMES]
             + [(f"{s}_calls", "count") for s in _SPAN_CALLS]
             + SIZE_COUNTS
             + [(f"layer.{layer}_s", "s") for layer in LAYERS]
             + [("trace.unattributed_s", "s"), ("trace.wall_s", "s"),
                ("trace.overhead_s", "s"), ("trace.spans", "count")])
BENCHMARK_PER_LAYER = [(n, u) for n, u in PER_LAYER if n not in UNREACHED_BY_BENCHMARK]


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS
                      if n in BENCHMARK_WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": "lower", "bound": b}
                       for n, u, b in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "lower"}
                      for n, u in BENCHMARK_PER_LAYER],
    }

"""The four benchmark workloads: inputs from a mesh seed, one run through
polympe's public entry points (``polympe.cli.main`` and ``polympe.driver``),
and the correctness check of the outputs.

Each workload is a class with ``gates`` (span name -> phase for the untraced
pass), ``run(seed, work)`` returning the outputs the check needs,
``check(out, ref)`` returning a list of failure messages (empty when the
outputs are correct; ``ref`` is the recorded reference for the mesh seed),
and ``notes(out, seed)`` returning the lines reported but never gated.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# Acceptance criterion 3 window for the m = 2 energy rate. Reported, never
# gated: only some mesh seeds fall inside it.
RATE_WINDOW = (1.8, 2.3)
VTK_KEYWORDS = ("VECTORS", "SCALARS", "LOOKUP_TABLE")

# entering one of these switches the untraced pass's current phase. Setup
# ends at the first factorization: stepping.initial_state's projections and
# loads, which come before its factorize(M_el), stay in setup, and
# stepping.build_stepping_matrices, which comes after, falls in solve.
PHASE_GATES = {
    "families.triangulated_two_domain": "setup",
    "agglomerate.agglomerate": "setup",
    "manufactured.steady_case": "setup",
    "manufactured.unsteady_case": "setup",
    "mesh.build_faces": "setup",
    "spaces.build_space": "setup",
    "system.build_system": "setup",
    "system.build_steady": "setup",
    "solvers.factorize": "solve",
    "norms.energy_norm": "post",
    "norms.broken_norms": "post",
    "outputs.write_rate_table": "post",
    "outputs.write_snapshot_csv": "post",
    "outputs.write_snapshot_vtk": "post",
    "outputs.write_manifest": "post",
    "mesh.quality_report": "post",
    "mesh.save_mesh": "post",
}


def _rel(a, b) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _strictly_decreasing(errs) -> bool:
    return all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))


def _cli(cmd, cfg, work: Path) -> int:
    from polympe import cli
    path = work / "config.json"
    path.write_text(json.dumps(cfg))
    return cli.main([cmd, "--config", str(path), "--out", str(work / "out")])


def _bytes_written(work: Path) -> int:
    # the manifest records elapsed time, so its length varies between runs
    return sum(p.stat().st_size for p in (work / "out").iterdir()
               if p.is_file() and p.name != "manifest.json")


class UnsteadyVerify:
    """driver.convergence_table("unsteady") at m = 2 on the 20/80/320-polygon
    agglomerated family of configs/verification_unsteady.json."""

    name = "unsteady-verify"
    gates = PHASE_GATES

    def run(self, seed: int, work: Path) -> dict:
        from polympe import cli, driver, stepping
        cfg = json.loads((CONFIGS / "verification_unsteady.json").read_text())
        meshes = [cli.resolve_mesh(dict(spec, seed=seed)) for spec in cfg["convergence"]["meshes"]]
        scheme = stepping.SchemeParams(**cfg["scheme"])
        rows = driver.convergence_table("unsteady", meshes, [2], scheme=scheme,
                                        n_steps=int(cfg["convergence"]["n_steps"]))
        return {"err_energy": [r["err_energy"] for r in rows],
                "rate_energy": rows[-1]["rate_energy"], "bytes_written": 0}

    def check(self, out: dict, ref: dict) -> list:
        bad = []
        if not _strictly_decreasing(out["err_energy"]):
            bad.append(f"energy errors not strictly decreasing: {out['err_energy']}")
        for got, want in zip(out["err_energy"], ref["err_energy"]):
            if not _rel(got, want) <= 1e-9:
                bad.append(f"err_energy {got!r} differs from reference {want!r}")
        if len(out["err_energy"]) != len(ref["err_energy"]):
            bad.append("wrong number of error rows")
        return bad

    def notes(self, out: dict, seed: int) -> list:
        r = out["rate_energy"]
        inside = RATE_WINDOW[0] <= r <= RATE_WINDOW[1]
        return [f"observed finest-pair m=2 energy rate at mesh seed {seed}: {r:.4f} "
                f"({'inside' if inside else 'OUTSIDE'} the criterion-3 window "
                f"[{RATE_WINDOW[0]}, {RATE_WINDOW[1]}]; reported, not gated)"]


class SpectralSteady:
    """configs/spectral.json through `polympe convergence`: the steady case
    on the fixed 80-polygon mesh, m = 1..5."""

    name = "spectral-steady"
    gates = PHASE_GATES

    def run(self, seed: int, work: Path) -> dict:
        cfg = json.loads((CONFIGS / "spectral.json").read_text())
        cfg["convergence"]["meshes"] = [dict(s, seed=seed) for s in cfg["convergence"]["meshes"]]
        rc = _cli("convergence", cfg, work)
        if rc != 0:
            return {"exit_code": rc, "bytes_written": 0}
        with open(work / "out" / "rates.csv") as fh:
            errs = [float(row["err_energy"]) for row in csv.DictReader(fh)]
        return {"exit_code": rc, "err_energy": errs, "bytes_written": _bytes_written(work)}

    def check(self, out: dict, ref: dict) -> list:
        if out["exit_code"] != 0:
            return [f"exit code {out['exit_code']}"]
        errs, bad = out["err_energy"], []
        if len(errs) != len(ref["err_energy"]):
            bad.append(f"expected {len(ref['err_energy'])} rows, got {len(errs)}")
        if not _strictly_decreasing(errs):
            bad.append(f"energy errors not strictly decreasing: {errs}")
        if not (errs and errs[0] / errs[-1] >= 1e3):
            bad.append(f"energy error falls by less than 1e3: {errs}")
        return bad

    def notes(self, out: dict, seed: int) -> list:
        if out["exit_code"] != 0:
            return []
        e = out["err_energy"]
        return [f"spectral error drop m=1 -> m={len(e)}: {e[0] / e[-1]:.4g}"]


class PulsatileMarch:
    """configs/demo.json physics through `polympe solve` on the 320-polygon
    mesh at m = 2: 300 steps of dt = 0.01 (three heartbeats), a snapshot
    every 10 steps."""

    name = "pulsatile-march"
    gates = PHASE_GATES
    n_steps = 300
    steps_per_beat = 100

    def run(self, seed: int, work: Path) -> dict:
        cfg = json.loads((CONFIGS / "demo.json").read_text())
        cfg["mesh"].update(targets=[160, 160], fine_ny=48, seed=seed)
        cfg["scheme"]["n_steps"] = self.n_steps
        rc = _cli("solve", cfg, work)
        if rc != 0:
            return {"exit_code": rc, "bytes_written": 0}
        stride = int(cfg["snapshot_stride"])
        out_dir = work / "out"
        csvs = sorted(out_dir.glob("snapshot_*.csv"))
        vtks = sorted(out_dir.glob("snapshot_*.vtk"))
        finite = True
        checksum, beat_norms = [], []
        for path in csvs:
            with open(path) as fh:
                ncols = len(fh.readline().split(","))
            # columns: element, domain, cx, cy, then the field cell means
            vals = np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(4, ncols), ndmin=2)
            finite &= bool(np.isfinite(vals).all())
            checksum = [float(np.sqrt((c * c).sum())) for c in vals.T]
            beat_norms.append(float(np.linalg.norm(vals[:, :2])))
        for path in vtks:
            lines = path.read_text().split("CELL_DATA", 1)[1].splitlines()[1:]
            tokens = [tok for line in lines if line.split()[0] not in VTK_KEYWORDS
                      for tok in line.split()]
            finite &= bool(np.isfinite(np.array(tokens, dtype=float)).all())
        return {"exit_code": rc, "snapshots_csv": len(csvs), "snapshots_vtk": len(vtks),
                "expected_snapshots": self.n_steps // stride, "finite": finite,
                "checksum": checksum, "bytes_written": _bytes_written(work),
                "beat_growth": beat_norms[-1] / beat_norms[-1 - self.steps_per_beat // stride]}

    def check(self, out: dict, ref: dict) -> list:
        if out["exit_code"] != 0:
            return [f"exit code {out['exit_code']}"]
        bad = []
        n = out["expected_snapshots"]
        if out["snapshots_csv"] != n or out["snapshots_vtk"] != n:
            bad.append(f"expected {n} snapshots, got {out['snapshots_csv']} csv "
                       f"and {out['snapshots_vtk']} vtk")
        if not out["finite"]:
            bad.append("non-finite value in a written field")
        if len(out["checksum"]) != len(ref["checksum"]):
            bad.append("final-state checksum has the wrong length")
        for got, want in zip(out["checksum"], ref["checksum"]):
            if not _rel(got, want) <= 1e-9:
                bad.append(f"final-state checksum {got!r} differs from reference {want!r}")
        return bad

    def notes(self, out: dict, seed: int) -> list:
        if out["exit_code"] != 0:
            return []
        return [f"final-state column norms: {[f'{c:.6e}' for c in out['checksum']]}",
                f"displacement growth over the last heartbeat: x{out['beat_growth']:.4g} "
                "(a bounded pulsatile response stays near 1; reported, not gated)"]


class AgglomerateBrain:
    """configs/agglomerate_brain_scale.json through `polympe agglomerate`:
    the 48-row fine triangulation agglomerated to (910, 101) polygons."""

    name = "agglomerate-brain"
    gates = dict(PHASE_GATES, **{"agglomerate.partition_assignment": "solve",
                                 "agglomerate.validate_partition": "solve",
                                 "agglomerate.agglomerate": "solve"})

    def run(self, seed: int, work: Path) -> dict:
        cfg = json.loads((CONFIGS / "agglomerate_brain_scale.json").read_text())
        agg = cfg["agglomeration"]
        agg["seed"] = seed
        agg["fine"]["seed"] = seed
        rc = _cli("agglomerate", cfg, work)
        if rc != 0:
            return {"exit_code": rc, "targets": agg["targets"], "bytes_written": 0}
        out_dir = work / "out"
        manifest = json.loads((out_dir / "manifest.json").read_text())
        mesh = json.loads((out_dir / agg["output"]).read_text())
        verts = np.asarray(mesh["vertices"], dtype=float)
        counts = {"elastic": 0, "fluid": 0}
        area, crossing = 0.0, 0
        edge_domains = {}
        for el in mesh["elements"]:
            dom, vs = el["domain"], el["v"]
            counts[dom] += 1
            x, y = verts[vs, 0], verts[vs, 1]
            area += 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))
            if (dom == "elastic" and x.max() > 0.0) or (dom == "fluid" and x.min() < 0.0):
                crossing += 1
            for a, b in zip(vs, vs[1:] + vs[:1]):
                edge_domains.setdefault((min(a, b), max(a, b)), set()).add(dom)
        iface = [e for e, doms in edge_domains.items() if len(doms) == 2]
        on_line = all(verts[a, 0] == 0.0 and verts[b, 0] == 0.0 for a, b in iface)
        iface_len = sum(abs(verts[a, 1] - verts[b, 1]) for a, b in iface)
        return {"exit_code": rc, "targets": agg["targets"],
                "n_elastic": counts["elastic"], "n_fluid": counts["fluid"],
                "partition_valid": bool(manifest["partition_valid"]),
                "area_error": float(manifest["area_error"]),
                "polygon_area_error": abs(area - 2.0) / 2.0,
                "crossing_elements": crossing, "interface_on_line": on_line,
                "interface_edges": len(iface), "interface_length": iface_len,
                "expected_interface_edges": int(agg["fine"]["fine_ny"]),
                "bytes_written": _bytes_written(work)}

    def check(self, out: dict, ref: dict) -> list:
        if out["exit_code"] != 0:
            return [f"exit code {out['exit_code']}"]
        bad = []
        if [out["n_elastic"], out["n_fluid"]] != list(out["targets"]):
            bad.append(f"got ({out['n_elastic']}, {out['n_fluid']}) elements, "
                       f"expected {tuple(out['targets'])}")
        if not out["partition_valid"]:
            bad.append("partition reported invalid")
        if not (out["area_error"] < 1e-10 and out["polygon_area_error"] < 1e-10):
            bad.append(f"area error {out['area_error']:.3e} / {out['polygon_area_error']:.3e}")
        if (out["crossing_elements"] or not out["interface_on_line"]
                or out["interface_edges"] != out["expected_interface_edges"]
                or not math.isclose(out["interface_length"], 1.0, rel_tol=1e-12)):
            bad.append("interface not preserved: "
                       f"{out['interface_edges']} edges of total length {out['interface_length']!r}, "
                       f"{out['crossing_elements']} elements crossing x = 0")
        return bad

    def notes(self, out: dict, seed: int) -> list:
        if out["exit_code"] != 0:
            return []
        return [f"agglomerated to ({out['n_elastic']}, {out['n_fluid']}); "
                f"area error {out['area_error']:.3e}; {out['interface_edges']} interface edges"]


WORKLOADS = {w.name: w for w in (UnsteadyVerify(), SpectralSteady(), PulsatileMarch(),
                                 AgglomerateBrain())}

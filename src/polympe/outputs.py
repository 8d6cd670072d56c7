"""Output writers: rate tables (CSV), field snapshots (CSV and legacy ASCII
VTK POLYDATA with per-cell data), and JSON run manifests."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

def write_rate_table(rows: list, path) -> None:
    """The rows of :func:`polympe.driver.convergence_table` as CSV, in the
    columns of the first row; a row with no rate has an empty rate cell."""
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows({k: ("" if np.isnan(v) else f"{v:.6f}") if k == "rate_energy"
                     else f"{v:.16e}" if isinstance(v, float) else v for k, v in row.items()}
                    for row in rows)


def cell_means(space, state: dict) -> dict:
    """Per-element mean values of every field (vectors component-wise);
    fields of the other subdomain are zero on an element."""
    out = {}
    for field in space.fields:
        weights = space.volume_table(space.field_domain(field)).mean_weights
        vals = np.zeros((space.mesh.n_elements, space.components(field)))
        vals[space.field_elements(field)] = np.einsum(
            "ei,eci->ec", weights, space.coeffs(field, state[field]))
        out[field] = vals
    return out


def write_snapshot_csv(space, means: dict, path) -> None:
    """A snapshot of ``means``, the :func:`cell_means` of a state."""
    mesh = space.mesh
    cols = ["element", "domain", "cx", "cy"]
    for field in space.fields:
        base = field.replace(":", "_")
        cols += [f"{base}_x", f"{base}_y"] if space.components(field) == 2 else [base]
    values = np.hstack([mesh.centroids] + [means[field] for field in space.fields])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        w.writerows([k, domain] + [f"{v:.16e}" for v in row]
                    for k, (domain, row) in enumerate(zip(mesh.element_domain, values.tolist())))


def vtk_geometry(mesh) -> str:
    """Header, points and polygons of a legacy ASCII VTK snapshot of
    ``mesh``: the part of every snapshot that the fields do not change,
    formatted once per run for :func:`write_snapshot_vtk`."""
    lines = ["# vtk DataFile Version 3.0", "polympe snapshot", "ASCII", "DATASET POLYDATA",
             f"POINTS {len(mesh.vertices)} double"]
    lines += [f"{x:.16e} {y:.16e} 0.0" for x, y in mesh.vertices.tolist()]
    total = sum(len(e) + 1 for e in mesh.elements)
    lines.append(f"POLYGONS {mesh.n_elements} {total}")
    lines += [" ".join(map(str, [len(e)] + e.tolist())) for e in mesh.elements]
    return "\n".join(lines) + "\n"


def write_snapshot_vtk(space, means: dict, path, geometry: str) -> None:
    """A snapshot of ``means``, the :func:`cell_means` of a state, after
    ``geometry``, the :func:`vtk_geometry` of ``space.mesh``."""
    lines = [f"CELL_DATA {space.mesh.n_elements}"]
    for field in space.fields:
        base = field.replace(":", "_")
        vals = means[field].tolist()
        if space.components(field) == 2:
            lines.append(f"VECTORS {base} double")
            lines += [f"{x:.16e} {y:.16e} 0.0" for x, y in vals]
        else:
            lines.append(f"SCALARS {base} double 1")
            lines.append("LOOKUP_TABLE default")
            lines += [f"{v:.16e}" for v, in vals]
    Path(path).write_text(geometry + "\n".join(lines) + "\n")


def write_manifest(path, config: dict, extra: dict) -> None:
    doc = {"config": config, **extra}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=str)

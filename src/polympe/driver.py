"""High-level runs shared by the CLI and the verification tests: steady and
unsteady manufactured solves, error tables, and convergence sweeps."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import forms, norms, stepping
from .families import VERIFICATION_DIRICHLET
from .manufactured import ManufacturedCase, steady_case, unsteady_case
from .mesh import PolyMesh, build_faces
from .solvers import NumericalError, factorize
from .spaces import build_space, l2_project
from .system import build_steady, build_system, split


@dataclass
class RunArtifacts:
    mesh: PolyMesh
    space: object
    faces: object
    sys: object


def setup(mesh: PolyMesh, m: int, params, dirichlet_map) -> RunArtifacts:
    faces = build_faces(mesh, dirichlet_map)
    space = build_space(mesh, m, params.compartments)
    sysm = build_system(space, params, faces)
    return RunArtifacts(mesh=mesh, space=space, faces=faces, sys=sysm)


def solve_steady(case: ManufacturedCase, mesh: PolyMesh, m: int,
                 dirichlet_map=VERIFICATION_DIRICHLET):
    """Solve the steady reduction for a manufactured case; returns the state
    dict and the run artifacts."""
    art = setup(mesh, m, case.params, dirichlet_map)
    loads = forms.assemble_loads(art.space, case.params, art.faces, case, 0.0)
    steady = build_steady(art.sys, loads)
    x = factorize(steady.matrix).solve(steady.rhs)
    resid = np.linalg.norm(steady.matrix @ x - steady.rhs) / max(np.linalg.norm(steady.rhs), 1e-300)
    if resid > 1e-8:
        raise NumericalError(f"steady solve residual {resid:.3e}")
    return split(x, art.space.sizes), art


def projected_values(space, case: ManufacturedCase) -> dict:
    """The L2 projections of a case's exact fields at t = 0, with the
    Newmark velocity ``z`` projected from the time derivative of ``d``: the
    initial values of a manufactured march from t = 0."""
    vals = {"d": l2_project(space, "d", partial(case.exact, "d"), t=0.0),
            "z": l2_project(space, "d", partial(case.exact_dt, "d"), t=0.0)}
    for f in space.fields[1:]:
        vals[f] = l2_project(space, f, partial(case.exact, f), t=0.0)
    return vals


def solve_unsteady(case: ManufacturedCase, mesh: PolyMesh, m: int,
                   scheme: stepping.SchemeParams, n_steps: int,
                   dirichlet_map=VERIFICATION_DIRICHLET):
    """March a manufactured case from projected initial data; returns the
    recorded states/times and the run artifacts."""
    art = setup(mesh, m, case.params, dirichlet_map)
    states, times = stepping.simulate(art.sys, art.faces, scheme, case, n_steps,
                                      projected_values(art.space, case))
    return states, times, art


def steady_error_row(case: ManufacturedCase, mesh: PolyMesh, m: int) -> dict:
    state, art = solve_steady(case, mesh, m)
    eb = norms.energy_norm([state], [0.0], art.space, art.faces, case.params, exact=case)
    return _row(mesh, m, eb, art)


def unsteady_error_row(case: ManufacturedCase, mesh: PolyMesh, m: int,
                       scheme: stepping.SchemeParams, n_steps: int) -> dict:
    states, times, art = solve_unsteady(case, mesh, m, scheme, n_steps)
    eb = norms.energy_norm(states, times, art.space, art.faces, case.params, exact=case)
    return _row(mesh, m, eb, art)


def _row(mesh, m, eb, art) -> dict:
    bn = eb.final
    return {
        "m": m,
        "h": float(mesh.diameters.max()),
        "n_elements_el": len(art.space.el_ids),
        "n_elements_f": len(art.space.f_ids),
        "err_energy": eb.total,
        "err_d": float(np.sqrt(bn["d"])),
        "err_pE": float(np.sqrt(bn["p:E"])),
        "err_u": float(np.sqrt(bn["u"])),
        "err_p": float(np.sqrt(bn["p"])),
    }


def convergence_table(case_id: str, meshes: list, m_values, scheme=None, n_steps=5) -> list:
    """Error rows plus observed energy rates for a mesh sequence; ``case_id``
    is ``"steady"`` or ``"unsteady"``."""
    case = steady_case() if case_id == "steady" else unsteady_case()
    rows = []
    for m in m_values:
        errs, hs = [], []
        for mesh in meshes:
            if case_id == "steady":
                row = steady_error_row(case, mesh, m)
            else:
                row = unsteady_error_row(case, mesh, m, scheme, n_steps)
            row["rate_energy"] = float("nan")
            rows.append(row)
            errs.append(row["err_energy"])
            hs.append(row["h"])
        if len(meshes) >= 2:
            rates = norms.convergence_rates(errs, hs)
            for i, row in enumerate(rows[-len(meshes):]):
                if i > 0 and rates[i - 1] is not None:
                    row["rate_energy"] = rates[i - 1]
    return rows

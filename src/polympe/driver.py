"""High-level runs shared by the CLI and the verification tests: the steady
solve, the one time march, error tables, and convergence sweeps."""

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
from .system import build_global, build_system, split


@dataclass
class RunArtifacts:
    space: object
    faces: object
    sys: object


def setup(mesh: PolyMesh, m: int, params, dirichlet_map) -> RunArtifacts:
    faces = build_faces(mesh, dirichlet_map)
    space = build_space(mesh, m, params.compartments)
    sysm = build_system(space, params, faces)
    return RunArtifacts(space=space, faces=faces, sys=sysm)


def solve_steady(case: ManufacturedCase, mesh: PolyMesh, m: int,
                 dirichlet_map=VERIFICATION_DIRICHLET):
    """Solve the steady reduction, the stacked operator with every
    time-derivative slot dropped, against the loads of ``case`` at t = 0;
    returns the state dict and the run artifacts."""
    art = setup(mesh, m, case.params, dirichlet_map)
    loads = forms.assemble_loads(art.space, case.params, art.faces, case, 0.0)
    matrix = build_global(art.sys)
    x = factorize(matrix).solve(loads)
    resid = np.linalg.norm(matrix @ x - loads) / max(np.linalg.norm(loads), 1e-300)
    if resid > 1e-8:
        raise NumericalError(f"steady solve residual {resid:.3e}")
    return split(x, art.space.sizes), art


def projected_values(space, case: ManufacturedCase) -> dict:
    """The L2 projections of a case's exact fields at t = 0, with the
    Newmark velocity ``z`` projected from the time derivative of ``d``: the
    initial values of a manufactured march from t = 0."""
    vals = {"d": l2_project(space, "d", partial(case.exact, "d")),
            "z": l2_project(space, "d", partial(case.exact, "d,t"))}
    for f in space.fields[1:]:
        vals[f] = l2_project(space, f, partial(case.exact, f))
    return vals


def solve_unsteady(data, params, mesh: PolyMesh, m: int, scheme: stepping.SchemeParams,
                   n_steps: int, dirichlet_map=VERIFICATION_DIRICHLET, stride: int = 1):
    """March ``n_steps`` steps under the loads of ``data`` from t = 0: a
    :class:`~polympe.manufactured.ManufacturedCase` from its
    :func:`projected_values`, any other data from rest. Returns the states
    and times recorded every ``stride`` steps (see
    :func:`polympe.stepping.simulate`) and the run artifacts."""
    art = setup(mesh, m, params, dirichlet_map)
    values = projected_values(art.space, data) if isinstance(data, ManufacturedCase) else None
    states, times = stepping.simulate(art.sys, art.faces, scheme, data, n_steps, values,
                                      stride=stride)
    return states, times, art


def error_row(case: ManufacturedCase, states, times, art: RunArtifacts) -> dict:
    """The energy error of a solve of ``case`` over its recorded states, and
    the broken errors of each field at the last one."""
    eb = norms.energy_norm(states, times, art.space, art.faces, case.params, exact=case)
    bn = eb.final
    return {
        "m": art.space.m,
        "h": float(art.space.mesh.diameters.max()),
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

    def solve(mesh, m):
        # called inside error_row's arguments, so that one mesh's states and
        # system are freed before the next mesh is solved
        if case_id == "steady":
            state, art = solve_steady(case, mesh, m)
            return [state], [0.0], art
        return solve_unsteady(case, case.params, mesh, m, scheme, n_steps)

    rows = []
    for m in m_values:
        errs, hs = [], []
        for mesh in meshes:
            row = error_row(case, *solve(mesh, m))
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

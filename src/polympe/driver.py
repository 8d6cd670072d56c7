"""High-level runs shared by the CLI and the verification tests: the steady
solve, the one time march, error tables, and convergence sweeps."""

from __future__ import annotations

from functools import partial

import numpy as np

from . import forms, norms, stepping
from .families import VERIFICATION_DIRICHLET
from .manufactured import ManufacturedCase, steady_case, unsteady_case
from .mesh import PolyMesh
from .solvers import NumericalError, factorize
from .spaces import l2_project
from .system import SystemMatrices, build_global, build_system, split


def solve_steady(case: ManufacturedCase, mesh: PolyMesh, m: int,
                 dirichlet_map=VERIFICATION_DIRICHLET):
    """Solve the steady reduction, the stacked operator with every
    time-derivative slot dropped, against the loads of ``case`` at t = 0;
    returns the state dict and the system."""
    sys = build_system(mesh, m, case.params, dirichlet_map)
    loads = forms.assemble_loads(sys.space, case.params, sys.faces, case, 0.0)
    matrix = build_global(sys)
    x = factorize(matrix).solve(loads)
    resid = np.linalg.norm(matrix @ x - loads) / max(np.linalg.norm(loads), 1e-300)
    if resid > 1e-8:
        raise NumericalError(f"steady solve residual {resid:.3e}")
    return split(x, sys.space.sizes), sys


def projected_values(space, data) -> dict:
    """The L2 projections of the fields of ``data`` at t = 0, with the
    Newmark velocity ``z`` projected from the time derivative of ``d``: the
    initial values of every march from t = 0. Zero data projects to rest."""
    vals = {"d": l2_project(space, "d", partial(data.exact, "d")),
            "z": l2_project(space, "d", partial(data.exact, "d,t"))}
    for f in space.fields[1:]:
        vals[f] = l2_project(space, f, partial(data.exact, f))
    return vals


def solve_unsteady(data, params, mesh: PolyMesh, m: int, scheme: stepping.SchemeParams,
                   n_steps: int, dirichlet_map=VERIFICATION_DIRICHLET, stride: int = 1):
    """March ``n_steps`` steps under the loads of ``data`` from its
    :func:`projected_values` at t = 0, so that zero data starts from rest.
    Returns the states and times recorded every ``stride`` steps (see
    :func:`polympe.stepping.simulate`) and the system."""
    sys = build_system(mesh, m, params, dirichlet_map)
    states, times = stepping.simulate(sys, scheme, data, n_steps,
                                      projected_values(sys.space, data), stride=stride)
    return states, times, sys


def error_row(case: ManufacturedCase, states, times, sys: SystemMatrices) -> dict:
    """The energy error of a solve of ``case`` over its recorded states, and
    the broken error ``err_<field>`` of each field at the last one (``p:E``
    gives ``err_pE``)."""
    space = sys.space
    eb = norms.energy_norm(states, times, space, sys.faces, case.params, exact=case)
    return {"m": space.m, "h": float(space.mesh.diameters.max()),
            "n_elements_el": len(space.el_ids), "n_elements_f": len(space.f_ids),
            "err_energy": eb.total,
            **{f"err_{f.replace(':', '')}": float(np.sqrt(eb.final[f])) for f in space.fields}}


def convergence_table(case_id: str, meshes: list, m_values, scheme=None, n_steps=5) -> list:
    """Error rows plus observed energy rates ``rate_energy`` (NaN on the
    coarsest mesh of each degree and on saturated pairs) for a mesh
    sequence; ``case_id`` is ``"steady"`` or ``"unsteady"``."""
    # meshes that do not refine (by error_row's h) are rejected before any solve
    norms.check_refining([float(mesh.diameters.max()) for mesh in meshes])
    case = steady_case() if case_id == "steady" else unsteady_case()

    def solve(mesh, m):
        # called inside error_row's arguments, so that one mesh's states and
        # system are freed before the next mesh is solved
        if case_id == "steady":
            state, sys = solve_steady(case, mesh, m)
            return [state], [0.0], sys
        return solve_unsteady(case, case.params, mesh, m, scheme, n_steps)

    rows = []
    for m in m_values:
        block = [error_row(case, *solve(mesh, m)) for mesh in meshes]
        rates = norms.convergence_rates([r["err_energy"] for r in block],
                                        [r["h"] for r in block]) if len(block) >= 2 else []
        for row, rate in zip(block, [None] + rates):
            row["rate_energy"] = float("nan") if rate is None else rate
        rows += block
    return rows

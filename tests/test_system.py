import json
from pathlib import Path

import numpy as np
import pytest

from polympe import forms
from polympe.cli import resolve_params
from polympe.driver import setup, solve_steady
from polympe.families import DEMO_DIRICHLET, VERIFICATION_DIRICHLET, cartesian_two_domain
from polympe.mesh import build_faces
from polympe.params import PhysicalParams
from polympe.solvers import factorize
from polympe.spaces import build_space
from polympe.system import build_global, build_system, structural_checks

from conftest import unit_square_mesh


def test_layout_sizes_J_E(mesh80, unit_params):
    art = setup(mesh80, 2, unit_params, VERIFICATION_DIRICHLET)
    s = art.space.sizes
    assert s["d"] == 2 * 40 * 6
    assert s["p:E"] == 40 * 6
    assert s["u"] == 2 * 40 * 6
    assert s["p"] == 40 * 6
    assert art.space.n_dofs == sum(s.values())


def test_elastic_only_system_solvable():
    mesh = unit_square_mesh("elastic")
    faces = build_faces(mesh, {"nat": {"d", "p:E"}})
    params = PhysicalParams.unit()
    space = build_space(mesh, 2)
    sysm = build_system(space, params, faces)
    assert sysm.M_f.shape == (0, 0) and sysm.A_f.shape == (0, 0)
    assert sysm.J_el.shape == (space.sizes["p:E"], space.sizes["d"])
    assert sysm.J_el.nnz == 0  # no interface faces

    class Data(forms.ZeroData):
        def exact(self, key, pts, t=0.0):
            if key == "f_el":
                return np.stack([np.ones(len(pts)), np.zeros(len(pts))], axis=1)
            return super().exact(key, pts, t)

    loads = forms.assemble_loads(space, params, faces, Data(), 0.0)
    matrix = build_global(sysm)
    x = factorize(matrix).solve(loads)
    r = np.linalg.norm(matrix @ x - loads) / np.linalg.norm(loads)
    assert r < 1e-10


def test_four_compartments_layout():
    J = ("A", "C", "V", "E")
    mesh = cartesian_two_domain(2)
    faces = build_faces(mesh, {"el": {"d"} | {f"p:{j}" for j in J},
                               "wall": {"u"}, "out": set()})
    params = PhysicalParams.unit(compartments=J)
    space = build_space(mesh, 1, compartments=J)
    sysm = build_system(space, params, faces)
    assert set(sysm.A_j) == set(J)
    for j in J:
        assert set(sysm.C[j]) == set(J)
        for k in J:
            assert sysm.C[j][k].shape == (space.sizes[f"p:{j}"], space.sizes[f"p:{k}"])
    # only the exchange compartment couples to the interface
    assert sysm.J_el is not None and sysm.J_el.nnz > 0
    G = build_global(sysm, s=1.0)
    assert G.shape == (space.n_dofs, space.n_dofs)


def test_structural_checks_pass(cart4_setup, unit_params):
    _, faces, space = cart4_setup
    sysm = build_system(space, unit_params, faces)
    rep = structural_checks(sysm)
    assert rep.passed, rep.summary()
    assert all(v < 1e-12 for v in rep.symmetry.values())
    assert all(v >= -1e-10 for v in rep.psd_min.values())
    assert all(v < 1e-12 for v in rep.pairing.values())
    assert rep.interface_energy < 1e-12


def test_psd_min_is_the_exact_smallest_eigenvalue(cart4_setup, unit_params):
    _, faces, space = cart4_setup
    sysm = build_system(space, unit_params, faces)
    rep = structural_checks(sysm)
    stiff = {"A_el": sysm.A_el, "A_E": sysm.A_j["E"], "A_f": sysm.A_f, "S": sysm.S}
    assert set(rep.psd_min) == set(stiff)
    for name, mat in stiff.items():
        ev = np.linalg.eigvalsh(mat.toarray())
        assert rep.psd_min[name] == ev[0] / np.abs(ev).max()


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_structural_checks_pass_brain_preset_demo_mesh(mesh80):
    # mesh80 is the configs/demo.json mesh; the brain-preset Darcy stiffness
    # A_E is indefinite there until its penalty scales with k_j / mu_j
    cfg = json.loads((Path(__file__).parents[1] / "configs" / "demo.json").read_text())
    art = setup(mesh80, 2, resolve_params(cfg), DEMO_DIRICHLET)
    rep = structural_checks(art.sys)
    assert rep.passed, rep.summary()


def test_structural_checks_flag_corrupted_sign(cart4_setup, unit_params):
    _, faces, space = cart4_setup
    sysm = build_system(space, unit_params, faces)
    G = build_global(sysm, s=1.0).tolil()
    sl_e, sl_u = space.field_slice("p:E"), space.field_slice("u")
    G[sl_e, sl_u] = -G[sl_e, sl_u]
    rep = structural_checks(sysm, global_matrix=G.tocsr())
    assert rep.pairing["J_f"] > 0.5
    assert not rep.passed


def test_block_consistency(cart4_setup, unit_params):
    _, faces, space = cart4_setup
    sysm = build_system(space, unit_params, faces)
    s = 3.7
    G = build_global(sysm, s=s)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(space.n_dofs)
    y = G @ x

    def seg(f):
        return x[space.field_slice(f)]

    d, pE, u, p = seg("d"), seg("p:E"), seg("u"), seg("p")
    rows = {
        "d": (s * s * sysm.M_el + sysm.A_el) @ d + sysm.B_j["E"].T @ pE + sysm.J_el.T @ pE,
        "p:E": -s * ((sysm.B_j["E"] + sysm.J_el) @ d)
               + (s * sysm.M_j["E"] + sysm.A_j["E"] + sysm.C["E"]["E"]) @ pE
               - sysm.J_f @ u,
        "u": sysm.J_f.T @ pE + (s * sysm.M_f + sysm.A_f) @ u + sysm.B_f.T @ p,
        "p": -sysm.B_f @ u + sysm.S @ p,
    }
    for f, expected in rows.items():
        assert np.allclose(y[space.field_slice(f)], expected, atol=1e-12 * max(1, abs(expected).max()))


def test_no_interface_decouples():
    # single-domain meshes: interface blocks identically zero
    mesh = unit_square_mesh("fluid")
    faces = build_faces(mesh, {"nat": {"u"}})
    params = PhysicalParams.unit()
    space = build_space(mesh, 1)
    sysm = build_system(space, params, faces)
    assert sysm.J_el.nnz == 0 and sysm.J_f.nnz == 0


def test_steady_zero_loads_zero_solution(cart4_setup, unit_params):
    _, faces, space = cart4_setup
    sysm = build_system(space, unit_params, faces)
    loads = forms.assemble_loads(space, unit_params, faces, forms.ZeroData(), 0.0)
    x = factorize(build_global(sysm)).solve(loads)
    assert np.abs(x).max() < 1e-12


def test_steady_split_fields(steady, cart4_setup):
    mesh, _, _ = cart4_setup
    state, art = solve_steady(steady, mesh, 1)
    assert set(state) == {"d", "p:E", "u", "p"}
    assert state["d"].shape == (art.space.sizes["d"],)


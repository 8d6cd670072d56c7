import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from polympe import forms, system
from polympe.cli import resolve_params
from polympe.driver import solve_steady
from polympe.families import DEMO_DIRICHLET, VERIFICATION_DIRICHLET, cartesian_two_domain
from polympe.params import PhysicalParams
from polympe.solvers import factorize
from polympe.spaces import build_space
from polympe.system import build_global, build_system, coupling_blocks, structural_checks

from conftest import ACVE, pin_mesh, unit_square_mesh


@pytest.fixture(scope="module")
def cart4_sys(cart4_setup, unit_params):
    return build_system(cart4_setup[0], 2, unit_params, VERIFICATION_DIRICHLET)


def test_layout_sizes_J_E(mesh80, unit_params):
    sysm = build_system(mesh80, 2, unit_params, VERIFICATION_DIRICHLET)
    s = sysm.space.sizes
    assert s["d"] == 2 * 40 * 6
    assert s["p:E"] == 40 * 6
    assert s["u"] == 2 * 40 * 6
    assert s["p"] == 40 * 6
    assert sysm.space.n_dofs == sum(s.values())


def test_elastic_only_system_solvable():
    params = PhysicalParams.unit()
    sysm = build_system(unit_square_mesh("elastic"), 2, params, {"nat": {"d", "p:E"}})
    space, faces = sysm.space, sysm.faces
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
    sysm = build_system(cartesian_two_domain(2), 1, PhysicalParams.unit(compartments=J),
                        {"el": {"d"} | {f"p:{j}" for j in J}, "wall": {"u"}, "out": set()})
    space = sysm.space
    assert set(sysm.A_j) == set(J)
    # one mass serves every storage and transfer block
    blocks = coupling_blocks(sysm, 1.0, 1.0, 1.0)
    for j in J:
        for k in J:
            assert blocks[f"p:{j}", f"p:{k}"].shape == (space.sizes[f"p:{j}"],
                                                        space.sizes[f"p:{k}"])
    # only the exchange compartment couples to the interface
    assert sysm.J_el is not None and sysm.J_el.nnz > 0
    G = build_global(sysm, s=1.0)
    assert G.shape == (space.n_dofs, space.n_dofs)


@pytest.mark.parametrize("field", ["pE", "p:A", "p"])
def test_unknown_dirichlet_field_is_rejected(unit_params, field):
    # a Dirichlet field is d, u or p:<j> of the compartments of the params
    # (here E); any other would be left out of the faces without a word
    dirichlet = dict(VERIFICATION_DIRICHLET, el={"d", "p:E", field})
    message = re.escape(f"dirichlet 'el' lists unknown field(s) ['{field}']")
    with pytest.raises(ValueError, match=message):
        build_system(cartesian_two_domain(2), 1, unit_params, dirichlet)


def test_repeated_compartment_is_rejected():
    # a repeated compartment would list its pressure, and add its source, twice
    with pytest.raises(ValueError, match="compartments must be distinct"):
        PhysicalParams.unit(("E", "E"))
    with pytest.raises(ValueError, match="compartments must be distinct"):
        build_space(cartesian_two_domain(2), 1, ("E", "E"))


def test_structural_checks_pass(cart4_sys):
    rep = structural_checks(cart4_sys)
    assert rep.passed, rep.summary()
    assert all(v < 1e-12 for v in rep.symmetry.values())
    assert all(v >= -1e-10 for v in rep.psd_min.values())
    assert all(v < 1e-12 for v in rep.pairing.values())
    assert rep.interface_energy < 1e-12


def test_psd_min_is_the_exact_smallest_eigenvalue(cart4_sys):
    sysm = cart4_sys
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
    sysm = build_system(mesh80, 2, resolve_params(cfg), DEMO_DIRICHLET)
    rep = structural_checks(sysm)
    assert rep.passed, rep.summary()


def physiological_params(J, rng):
    """Coefficients drawn log-uniform over physiological ranges (SI units),
    the Biot-Willis alphas uniform over [0.1, 0.9]."""
    def draw(lo, hi):
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    return PhysicalParams(
        compartments=J, rho_el=draw(5e2, 2e3), rho_f=draw(5e2, 2e3), mu_el=draw(1e2, 1e4),
        lam=draw(1e2, 1e5), mu_f=draw(7e-4, 4e-3), mu_j={j: draw(1e-3, 1e-2) for j in J},
        alpha_j={j: rng.uniform(0.1, 0.9) for j in J}, c_j={j: draw(1e-8, 1e-4) for j in J},
        k_j={j: draw(1e-14, 1e-9) for j in J},
        beta={j: {k: draw(1e-9, 1e-3) for k in J} for j in J},
        beta_ext={j: draw(1e-9, 1e-3) for j in J})


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_structural_checks_pass_random_physiological_coefficients(mesh80):
    # ROADMAP item 10: coercivity must hold for any physiological
    # coefficients, not only for unit ones; one seeded draw per case, on
    # cartesian_two_domain(4) and the 80-polygon mesh, at m = 1 and 2, for
    # J = {E} and {A, C, V, E}
    failed = []
    cases = itertools.product(("cart4", "mesh80"), (1, 2), (("E",), ACVE))
    for seed, (name, m, J) in enumerate(cases):
        mesh, dirichlet = pin_mesh(name, mesh80, J)
        params = physiological_params(J, np.random.default_rng(seed))
        rep = structural_checks(build_system(mesh, m, params, dirichlet))
        if not rep.passed:
            failed.append((name, m, "".join(J), rep.summary()))
    assert not failed, failed


def test_structural_checks_flag_corrupted_sign(cart4_sys, monkeypatch):
    sysm, space = cart4_sys, cart4_sys.space
    G = build_global(sysm, s=1.0).tolil()
    sl_e, sl_u = space.field_slice("p:E"), space.field_slice("u")
    G[sl_e, sl_u] = -G[sl_e, sl_u]
    corrupted = G.tocsr()

    def build_corrupted(sys, s=0.0):
        # the unit-slot operator with J_f placed with the wrong sign
        return corrupted if s == 1.0 else build_global(sys, s)

    monkeypatch.setattr(system, "build_global", build_corrupted)
    rep = structural_checks(sysm)
    assert rep.pairing["J_f"] > 0.5
    assert not rep.passed


def test_block_consistency(cart4_sys, unit_params):
    sysm, space = cart4_sys, cart4_sys.space
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
               + (s * unit_params.c_j["E"] * sysm.M_comp + sysm.A_j["E"]
                  + unit_params.beta_ext["E"] * sysm.M_comp) @ pE
               - sysm.J_f @ u,
        "u": sysm.J_f.T @ pE + (s * sysm.M_f + sysm.A_f) @ u + sysm.B_f.T @ p,
        "p": -sysm.B_f @ u + sysm.S @ p,
    }
    for f, expected in rows.items():
        assert np.allclose(y[space.field_slice(f)], expected, atol=1e-12 * max(1, abs(expected).max()))


def test_no_interface_decouples():
    # single-domain meshes: interface blocks identically zero
    sysm = build_system(unit_square_mesh("fluid"), 1, PhysicalParams.unit(), {"nat": {"u"}})
    assert sysm.J_el.nnz == 0 and sysm.J_f.nnz == 0


def test_steady_zero_loads_zero_solution(cart4_sys, unit_params):
    loads = forms.assemble_loads(cart4_sys.space, unit_params, cart4_sys.faces,
                                 forms.ZeroData(), 0.0)
    x = factorize(build_global(cart4_sys)).solve(loads)
    assert np.abs(x).max() < 1e-12


def test_steady_split_fields(steady, cart4_setup):
    mesh, _, _ = cart4_setup
    state, sysm = solve_steady(steady, mesh, 1)
    assert set(state) == {"d", "p:E", "u", "p"}
    assert state["d"].shape == (sysm.space.sizes["d"],)


import numpy as np
import pytest

from polympe import norms
from polympe.mesh import build_faces
from polympe.params import PhysicalParams
from polympe.spaces import build_space, l2_project

from conftest import unit_square_mesh


def natural_setup(domain, m=2):
    mesh = unit_square_mesh(domain)
    faces = build_faces(mesh, {"nat": set()})
    return mesh, faces, build_space(mesh, m)


def zero_state(space):
    return {f: np.zeros(space.sizes[f]) for f in space.fields}


def test_zero_state_zero_norms(cart4_setup, unit_params):
    _, faces, space = cart4_setup
    bn = norms.broken_norms(space, faces, unit_params, zero_state(space))
    assert all(v == 0.0 for v in bn.values())


def test_displacement_norm_linear_field():
    _, faces, space = natural_setup("elastic")
    params = PhysicalParams.unit()
    st = zero_state(space)
    st["d"] = l2_project(space, "d", lambda p: np.stack([p[:, 0], p[:, 1]], axis=1))
    bn = norms.broken_norms(space, faces, params, st)
    assert bn["d"] == pytest.approx(8.0, rel=1e-12)


def test_pressure_norm_constant():
    _, faces, space = natural_setup("fluid")
    params = PhysicalParams.unit()
    st = zero_state(space)
    st["p"] = l2_project(space, "p", lambda p: np.ones(len(p)))
    bn = norms.broken_norms(space, faces, params, st)
    assert bn["p"] == pytest.approx(1.0, rel=1e-12)  # area, no jumps


def test_norm_homogeneity(cart4_setup, unit_params):
    _, faces, space = cart4_setup
    rng = np.random.default_rng(0)
    st = {f: rng.standard_normal(space.sizes[f]) for f in space.fields}
    bn1 = norms.broken_norms(space, faces, unit_params, st)
    s = -3.7
    st2 = {f: s * v for f, v in st.items()}
    bn2 = norms.broken_norms(space, faces, unit_params, st2)
    for f in bn1:
        assert np.sqrt(bn2[f]) == pytest.approx(abs(s) * np.sqrt(bn1[f]), rel=1e-12)


def test_triangle_inequality_sampled(cart4_setup, unit_params):
    _, faces, space = cart4_setup
    rng = np.random.default_rng(1)
    for _ in range(5):
        a = {f: rng.standard_normal(space.sizes[f]) for f in space.fields}
        b = {f: rng.standard_normal(space.sizes[f]) for f in space.fields}
        ab = {f: a[f] + b[f] for f in space.fields}
        na = norms.broken_norms(space, faces, unit_params, a)
        nb = norms.broken_norms(space, faces, unit_params, b)
        nab = norms.broken_norms(space, faces, unit_params, ab)
        for f in na:
            assert np.sqrt(nab[f]) <= np.sqrt(na[f]) + np.sqrt(nb[f]) + 1e-12


def test_continuous_interpolant_has_no_jumps(cart4_setup, unit_params):
    _, faces, space = cart4_setup
    st = zero_state(space)
    st["d"] = l2_project(space, "d", lambda p: np.stack([p[:, 0] * p[:, 1], p[:, 1] ** 2], axis=1))
    from polympe.forms import penalty_coefficients
    jump = norms.jump_sq(space, faces, faces.interior_el, "d", st["d"],
                         lambda h: penalty_coefficients(h, unit_params, space.m).eta)
    assert jump < 1e-10


def test_error_norms_pinned_short_unsteady_run(unsteady):
    # values of the per-element evaluation these norms replaced; the run
    # starts from zero data so that only the norms, not a projection, differ
    from polympe import driver, stepping
    from polympe.families import VERIFICATION_DIRICHLET, cartesian_two_domain
    art = driver.setup(cartesian_two_domain(2), 2, unsteady.params, VERIFICATION_DIRICHLET)
    states, times = stepping.simulate(art.sys, art.faces, stepping.SchemeParams(dt=1e-3),
                                      unsteady, 3)
    eb = norms.energy_norm(states, times, art.space, art.faces,
                           unsteady.params, exact=unsteady)
    assert eb.total == pytest.approx(175.2123409075619, rel=1e-12)
    expected = {"d": 1253.4717419066662, "p:E": 2872.921110641361,
                "u": 620.0273976394446, "p": 12279597.881257724}
    bn = norms.broken_norms(art.space, art.faces, unsteady.params, states[-1],
                            exact=unsteady, t=times[-1])
    assert bn.keys() == expected.keys()
    for key, value in expected.items():
        assert bn[key] == pytest.approx(value, rel=1e-12)
        assert eb.final[key] == bn[key]


def test_energy_norm_zero_trajectory(cart4_setup, unit_params):
    _, faces, space = cart4_setup
    st = zero_state(space)
    st["z"] = np.zeros(space.sizes["d"])
    eb = norms.energy_norm([st], [0.0], space, faces, unit_params)
    assert eb.total == 0.0


def test_energy_norm_steady_convention(cart4_setup, unit_params):
    _, faces, space = cart4_setup
    rng = np.random.default_rng(2)
    st = {f: rng.standard_normal(space.sizes[f]) for f in space.fields}
    eb = norms.energy_norm([st], [0.0], space, faces, unit_params)
    bn = norms.broken_norms(space, faces, unit_params, st)
    expected_integrand = bn["u"] + bn["p"] + bn["p:E"] \
        + norms.weighted_l2sq(space, "p:E", st["p:E"], unit_params.beta_ext["E"])
    assert eb.integral == pytest.approx(expected_integrand, rel=1e-12)


def test_energy_norm_requires_states(cart4_setup, unit_params):
    _, faces, space = cart4_setup
    with pytest.raises(ValueError):
        norms.energy_norm([], [], space, faces, unit_params)


def test_convergence_rates_power_law():
    rates = norms.convergence_rates([1.0, 0.25], [1.0, 0.5])
    assert rates == [pytest.approx(2.0)]


def test_convergence_rates_saturated_flagged():
    rates = norms.convergence_rates([1e-12, 1e-14, 1e-14], [1.0, 0.5, 0.25])
    assert rates[-1] is None


def test_convergence_rates_validation():
    with pytest.raises(ValueError):
        norms.convergence_rates([1.0], [1.0])
    with pytest.raises(ValueError):
        norms.convergence_rates([1.0, 0.5], [0.5, 1.0])

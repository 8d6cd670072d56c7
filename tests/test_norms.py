import numpy as np
import pytest

from polympe import forms, norms
from polympe.mesh import build_faces
from polympe.params import PhysicalParams
from polympe.spaces import build_space, l2_project
from polympe.system import build_system

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
    jump = norms.jump_sq(space, faces.interior_el, "d", st["d"], unit_params)
    assert jump < 1e-10


def test_error_norms_pinned_short_unsteady_run(unsteady):
    # values of the per-element evaluation these norms replaced; the run
    # starts from zero data so that only the norms, not a projection, differ
    from polympe import stepping
    from polympe.families import VERIFICATION_DIRICHLET, cartesian_two_domain
    sysm = build_system(cartesian_two_domain(2), 2, unsteady.params, VERIFICATION_DIRICHLET)
    states, times = stepping.simulate(sysm, stepping.SchemeParams(dt=1e-3), unsteady, 3)
    eb = norms.energy_norm(states, times, sysm.space, sysm.faces,
                           unsteady.params, exact=unsteady)
    assert eb.total == pytest.approx(175.2123409075619, rel=1e-12)
    expected = {"d": 1253.4717419066662, "p:E": 2872.921110641361,
                "u": 620.0273976394446, "p": 12279597.881257724}
    bn = norms.broken_norms(sysm.space, sysm.faces, unsteady.params, states[-1],
                            exact=unsteady, t=times[-1])
    assert bn.keys() == expected.keys()
    for key, value in expected.items():
        assert bn[key] == pytest.approx(value, rel=1e-12)
        assert eb.final[key] == bn[key]


def test_component_sums_match_numpy_reductions():
    # the norms add squares component by component in the order numpy's sum
    # over the trailing axes adds them, so a single state keeps its bits
    rng = np.random.default_rng(6)
    g = rng.standard_normal((3, 500, 2, 2)) * 10.0 ** rng.integers(-4, 4, (3, 500, 2, 2))
    eps = 0.5 * (g + g.swapaxes(-1, -2))
    ee, tr = norms._strain_sq(g)
    assert np.array_equal(ee, (eps * eps).sum(axis=(-2, -1)))
    assert np.array_equal(tr, eps[..., 0, 0] + eps[..., 1, 1])
    for v, axes in ((g, 2), (g[..., 0], 1), (g[..., :1, :], 2), (g[..., 0, :1], 1)):
        v = np.ascontiguousarray(v)
        assert np.array_equal(norms._sum_sq(v, axes), (v * v).sum(axis=tuple(range(-axes, 0))))


def per_state_energy(states, times, space, faces, params, exact):
    """The energy norm's instantaneous terms and integrand as per-state
    broken norms define them, one state at a time."""
    integrand = []
    for state, t in zip(states, times):
        bn = norms.broken_norms(space, faces, params, state, exact, t)
        l2 = {j: norms.weighted_l2sq(space, f"p:{j}", state[f"p:{j}"], 1.0, exact, t=t)
              for j in params.compartments}
        integrand.append(bn["u"] + bn["p"] + sum(bn[f"p:{j}"] + params.beta_ext[j] * l2[j]
                                                 for j in params.compartments))
    last, t = states[-1], times[-1]
    inst = {"d": bn["d"], "u": norms.weighted_l2sq(space, "u", last["u"], params.rho_f, exact, t=t),
            **{f"p:{j}": params.c_j[j] * l2[j] for j in params.compartments}}
    if "z" in last:
        inst["z"] = norms.weighted_l2sq(space, "d", last["z"], params.rho_el, exact,
                                        exact_name="d,t", t=t)
    return inst, integrand


@pytest.mark.parametrize("mesh", ["cart2", "mesh80"])
def test_one_pass_energy_norm_matches_per_state_norms(unsteady, mesh80, mesh):
    from polympe import driver, stepping
    from polympe.families import VERIFICATION_DIRICHLET, cartesian_two_domain
    msh = cartesian_two_domain(2) if mesh == "cart2" else mesh80
    sysm = build_system(msh, 2, unsteady.params, VERIFICATION_DIRICHLET)
    states, times = stepping.simulate(sysm, stepping.SchemeParams(dt=1e-3), unsteady, 4,
                                      driver.projected_values(sysm.space, unsteady))
    args = (sysm.space, sysm.faces, unsteady.params)
    eb = norms.energy_norm(states, times, *args, exact=unsteady)
    inst, integrand = per_state_energy(states, times, *args, unsteady)
    assert eb.instantaneous.keys() == inst.keys() and len(eb.integrand) == len(states)
    for key, value in inst.items():
        assert eb.instantaneous[key] == pytest.approx(value, rel=1e-13), key
    assert eb.integrand == pytest.approx(integrand, rel=1e-13)
    total = np.sqrt(sum(inst.values()) + np.trapezoid(integrand, times))
    assert eb.total == pytest.approx(total, rel=1e-13)
    assert eb.final == norms.broken_norms(*args, states[-1], unsteady, times[-1])


def test_one_pass_energy_norm_of_several_compartments(cart4_setup):
    # discrete norms of random states, non-unit coefficients
    from polympe.spaces import build_space
    _, faces, space1 = cart4_setup
    J = ("A", "C", "V", "E")
    params = PhysicalParams.unit(J)
    for i, j in enumerate(J):
        params.k_j[j], params.c_j[j], params.beta_ext[j] = 1.0 + i, 0.5 + i, 0.25 * i
    space = build_space(space1.mesh, 2, J)
    rng = np.random.default_rng(5)
    states = [{f: rng.standard_normal(n) for f, n in space.sizes.items()} for _ in range(3)]
    times = [0.0, 0.1, 0.3]
    eb = norms.energy_norm(states, times, space, faces, params)
    inst, integrand = per_state_energy(states, times, space, faces, params,
                                      forms.ZeroData())
    assert eb.instantaneous == pytest.approx(inst, rel=1e-13)
    assert eb.integrand == pytest.approx(integrand, rel=1e-13)


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
    st = zero_state(space)
    with pytest.raises(ValueError, match="as many times"):
        norms.energy_norm([st, st], [0.0], space, faces, unit_params)


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

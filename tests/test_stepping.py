import numpy as np
import pytest

from polympe import forms, stepping
from polympe.driver import setup, solve_steady, solve_unsteady
from polympe.families import VERIFICATION_DIRICHLET, cartesian_two_domain
from polympe.solvers import NumericalError
from polympe.spaces import l2_project


@pytest.fixture(scope="module")
def small_sys(unit_params):
    art = setup(cartesian_two_domain(2), 1, unit_params, VERIFICATION_DIRICHLET)
    return art


def test_scheme_params_validation():
    with pytest.raises(ValueError):
        stepping.SchemeParams(dt=0.0)
    with pytest.raises(ValueError):
        stepping.SchemeParams(dt=0.1, beta=0.6)
    with pytest.raises(ValueError):
        stepping.SchemeParams(dt=0.1, gamma=0.4)
    with pytest.raises(ValueError):
        stepping.SchemeParams(dt=0.1, theta=0.2)
    stepping.SchemeParams(dt=0.1)  # defaults valid


def extract(mat, sys, rname, cname):
    off, _ = stepping._aux_layout(sys)
    return mat[off[rname], :][:, off[cname]].toarray()


def test_newmark_velocity_row(small_sys):
    sys = small_sys.sys
    sp = stepping.SchemeParams(dt=0.1, beta=0.25, gamma=0.5)
    mats = stepping.build_stepping_matrices(sys, sp)
    n_d = sys.space.sizes["d"]
    I = np.eye(n_d)
    assert np.allclose(extract(mats["A1"], sys, "Z", "Z"), I)
    assert np.allclose(extract(mats["A1"], sys, "Z", "A"), -0.5 * 0.1 * I)
    assert np.allclose(extract(mats["A1"], sys, "Z", "D"), 0.0)
    assert np.allclose(extract(mats["A1"], sys, "Z", "P:E"), 0.0)
    assert np.allclose(extract(mats["A2"], sys, "Z", "A"), 0.5 * 0.1 * I)


def test_acceleration_row_coefficient(small_sys):
    # (2 beta - 1) / (2 beta) = -1 at beta = 1/4
    sys = small_sys.sys
    sp = stepping.SchemeParams(dt=0.05, beta=0.25, gamma=0.5)
    mats = stepping.build_stepping_matrices(sys, sp)
    n_d = sys.space.sizes["d"]
    assert np.allclose(extract(mats["A2"], sys, "A", "A"), -np.eye(n_d))
    assert np.allclose(extract(mats["A1"], sys, "A", "D"),
                       -np.eye(n_d) / (0.25 * 0.05 ** 2))


def test_implicit_euler_limit(small_sys):
    sys = small_sys.sys
    sp = stepping.SchemeParams(dt=0.1, theta=1.0)
    mats = stepping.build_stepping_matrices(sys, sp)
    # all (1 - theta) blocks of the pressure/fluid rows vanish
    assert np.allclose(extract(mats["A2"], sys, "U", "P:E"), 0.0)
    assert np.allclose(extract(mats["A2"], sys, "U", "P"), 0.0)
    assert np.allclose(extract(mats["A2"], sys, "P", "U"), 0.0)
    assert np.allclose(extract(mats["A2"], sys, "P", "P"), 0.0)
    MfdT = extract(mats["A2"], sys, "U", "U")
    assert np.allclose(MfdT, sys.M_f.toarray() / 0.1)


def test_load_blending_arithmetic_mean(small_sys):
    sys = small_sys.sys
    sp = stepping.SchemeParams(dt=0.1, theta=0.5)
    rng = np.random.default_rng(0)

    def fake_loads():
        return {"el": rng.standard_normal(sys.space.sizes["d"]),
                "j": {"E": rng.standard_normal(sys.space.sizes["p:E"])},
                "f": rng.standard_normal(sys.space.sizes["u"]),
                "p": rng.standard_normal(sys.space.sizes["p"])}

    ln, lnp1 = fake_loads(), fake_loads()
    F = stepping.blend_loads(sys, sp, ln, lnp1)
    off, _ = stepping._aux_layout(sys)
    assert np.array_equal(F[off["D"]], lnp1["el"])
    assert np.array_equal(F[off["Z"]], np.zeros(sys.space.sizes["d"]))
    assert np.allclose(F[off["P:E"]], 0.5 * (ln["j"]["E"] + lnp1["j"]["E"]), rtol=0, atol=0)
    assert np.allclose(F[off["U"]], 0.5 * (ln["f"] + lnp1["f"]), rtol=0, atol=0)


def test_zero_initial_state(small_sys):
    st = stepping.initial_state(small_sys.sys, small_sys.faces)
    assert st.t == 0.0
    for v in (st.d, st.z, st.a, st.u, st.p, st.p_j["E"]):
        assert np.all(v == 0.0)


def test_initial_state_projections(small_sys, unsteady):
    art = setup(cartesian_two_domain(2), 1, unsteady.params, VERIFICATION_DIRICHLET)
    st = stepping.initial_state(art.sys, art.faces, case=unsteady)
    d_ref = l2_project(art.space, "d", lambda p, t: unsteady.exact("d", p, t), t=0.0)
    assert np.allclose(st.d, d_ref)
    z_ref = l2_project(art.space, "d", lambda p, t: unsteady.exact_dt("d", p, t), t=0.0)
    assert np.allclose(st.z, z_ref)


def test_initial_acceleration_vanishes_on_discrete_steady(steady, cart4_setup):
    mesh, _, _ = cart4_setup
    state, art = solve_steady(steady, mesh, 2)
    vals = dict(state)
    st = stepping.initial_state(art.sys, art.faces, dof_values=vals, data=steady)
    # the discrete steady solution satisfies the momentum row exactly
    scale = np.abs(state["d"]).max()
    assert np.abs(st.a).max() < 1e-9 * max(scale, 1.0)


def test_zero_loads_zero_state_stays_zero(small_sys):
    sp = stepping.SchemeParams(dt=0.01)
    st0 = stepping.initial_state(small_sys.sys, small_sys.faces)
    states, times = stepping.simulate(small_sys.sys, small_sys.faces, sp,
                                      forms.ZeroData(), 3, st0)
    assert np.abs(states[-1].d).max() == 0.0
    assert np.abs(states[-1].p).max() == 0.0


class _SourceInfiniteFrom(forms.ZeroData):
    """Exchange-compartment source that is infinite from time ``t_bad`` on."""

    def __init__(self, t_bad):
        self.t_bad = t_bad

    def g_j(self, j, pts, t):
        return np.full(len(pts), np.inf if t >= self.t_bad else 0.0)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_non_finite_state_names_its_step(small_sys):
    sp = stepping.SchemeParams(dt=0.1)
    st0 = stepping.initial_state(small_sys.sys, small_sys.faces)
    with pytest.raises(NumericalError, match="non-finite state at step 3 "):
        stepping.simulate(small_sys.sys, small_sys.faces, sp, _SourceInfiniteFrom(0.25), 5, st0)


def test_simulate_final_time_and_stride(small_sys):
    sp = stepping.SchemeParams(dt=0.25)
    st0 = stepping.initial_state(small_sys.sys, small_sys.faces)
    states, times = stepping.simulate(small_sys.sys, small_sys.faces, sp,
                                      forms.ZeroData(), 8, st0, stride=3)
    assert times[-1] == pytest.approx(8 * 0.25)
    # initial + steps 3, 6 + final 8
    assert len(states) == 4


def test_trajectory_deterministic(unsteady):
    results = []
    for _ in range(2):
        states, times, _ = solve_unsteady(unsteady, cartesian_two_domain(2), 1,
                                          stepping.SchemeParams(dt=1e-3), 3)
        results.append(states[-1])
    a, b = results
    assert np.array_equal(a.d, b.d) and np.array_equal(a.p, b.p)
    assert np.array_equal(a.z, b.z) and np.array_equal(a.u, b.u)


def test_newmark_velocity_second_order_in_dt(unsteady):
    """Richardson check: halving dt shrinks the Z self-difference ~4x."""
    mesh = cartesian_two_domain(2)
    T = 0.032
    z = {}
    for dt in (T / 4, T / 8, T / 16):
        states, times, art = solve_unsteady(unsteady, mesh, 2,
                                            stepping.SchemeParams(dt=dt), int(round(T / dt)))
        z[dt] = states[-1].z
    e1 = np.linalg.norm(z[T / 4] - z[T / 8])
    e2 = np.linalg.norm(z[T / 8] - z[T / 16])
    assert e1 / e2 == pytest.approx(4.0, rel=0.35)


def test_dissipativity_short(small_sys):
    rng = np.random.default_rng(11)
    space = small_sys.space
    vals = {f: rng.standard_normal(space.sizes[f]) for f in ("d", "u", "p")}
    vals["z"] = rng.standard_normal(space.sizes["d"])
    vals["p:E"] = rng.standard_normal(space.sizes["p:E"])
    st0 = stepping.initial_state(small_sys.sys, small_sys.faces, dof_values=vals)
    sp = stepping.SchemeParams(dt=1e-2)
    states, _ = stepping.simulate(small_sys.sys, small_sys.faces, sp, forms.ZeroData(), 20, st0)
    E = [stepping.discrete_energy(small_sys.sys, s) for s in states]
    for a, b in zip(E, E[1:]):
        assert b <= a * (1 + 1e-10)


def test_dissipativity_four_compartments():
    # the inter-compartment transfer terms are energy-dissipative too
    from polympe.families import cartesian_two_domain
    from polympe.params import PhysicalParams

    J = ("A", "C", "V", "E")
    params = PhysicalParams.unit(compartments=J)
    mesh = cartesian_two_domain(2)
    dirichlet = {"el": {"d"} | {f"p:{j}" for j in J}, "wall": {"u"}, "out": set()}
    art = setup(mesh, 1, params, dirichlet)
    rng = np.random.default_rng(3)
    vals = {f: rng.standard_normal(art.space.sizes[f]) for f in art.space.fields}
    vals["z"] = rng.standard_normal(art.space.sizes["d"])
    st0 = stepping.initial_state(art.sys, art.faces, dof_values=vals)
    sp = stepping.SchemeParams(dt=1e-2)
    states, _ = stepping.simulate(art.sys, art.faces, sp, forms.ZeroData(), 15, st0)
    E = [stepping.discrete_energy(art.sys, s) for s in states]
    for a, b in zip(E, E[1:]):
        assert b <= a * (1 + 1e-10)

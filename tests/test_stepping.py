import json
from pathlib import Path

import numpy as np
import pytest

from polympe import forms, stepping
from polympe.cli import DemoData
from polympe.driver import projected_values, setup, solve_steady, solve_unsteady
from polympe.families import VERIFICATION_DIRICHLET, cartesian_two_domain
from polympe.solvers import NumericalError
from polympe.spaces import field_slices, l2_project
from polympe.system import build_global, build_system

from conftest import ACVE, pin_params, pin_setup


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
    sl = field_slices(stepping.layout(sys.space))
    return mat[sl[rname], :][:, sl[cname]].toarray()


def test_newmark_velocity_row(small_sys):
    sys = small_sys.sys
    sp = stepping.SchemeParams(dt=0.1, beta=0.25, gamma=0.5)
    mats = stepping.build_stepping_matrices(sys, sp)
    n_d = sys.space.sizes["d"]
    I = np.eye(n_d)
    assert np.allclose(extract(mats["A1"], sys, "z", "z"), I)
    assert np.allclose(extract(mats["A1"], sys, "z", "a"), -0.5 * 0.1 * I)
    assert np.allclose(extract(mats["A1"], sys, "z", "d"), 0.0)
    assert np.allclose(extract(mats["A1"], sys, "z", "p:E"), 0.0)
    assert np.allclose(extract(mats["A2"], sys, "z", "a"), 0.5 * 0.1 * I)


def test_acceleration_row_coefficient(small_sys):
    # (2 beta - 1) / (2 beta) = -1 at beta = 1/4
    sys = small_sys.sys
    sp = stepping.SchemeParams(dt=0.05, beta=0.25, gamma=0.5)
    mats = stepping.build_stepping_matrices(sys, sp)
    n_d = sys.space.sizes["d"]
    assert np.allclose(extract(mats["A2"], sys, "a", "a"), -np.eye(n_d))
    assert np.allclose(extract(mats["A1"], sys, "a", "d"),
                       -np.eye(n_d) / (0.25 * 0.05 ** 2))


def test_implicit_euler_limit(small_sys):
    sys = small_sys.sys
    sp = stepping.SchemeParams(dt=0.1, theta=1.0)
    mats = stepping.build_stepping_matrices(sys, sp)
    # all (1 - theta) blocks of the pressure/fluid rows vanish
    assert np.allclose(extract(mats["A2"], sys, "u", "p:E"), 0.0)
    assert np.allclose(extract(mats["A2"], sys, "u", "p"), 0.0)
    assert np.allclose(extract(mats["A2"], sys, "p", "u"), 0.0)
    assert np.allclose(extract(mats["A2"], sys, "p", "p"), 0.0)
    MfdT = extract(mats["A2"], sys, "u", "u")
    assert np.allclose(MfdT, sys.M_f.toarray() / 0.1)


def test_load_blending_arithmetic_mean(small_sys):
    sys = small_sys.sys
    sp = stepping.SchemeParams(dt=0.1, theta=0.5)
    rng = np.random.default_rng(0)

    ln, lnp1 = (rng.standard_normal(sys.space.n_dofs) for _ in range(2))
    F = stepping.blend_loads(sys, sp, ln, lnp1)
    off, sl = field_slices(stepping.layout(sys.space)), sys.space.field_slice
    assert np.array_equal(F[off["d"]], lnp1[sl("d")])
    assert np.array_equal(F[off["z"]], np.zeros(sys.space.sizes["d"]))
    assert np.allclose(F[off["p:E"]], 0.5 * (ln[sl("p:E")] + lnp1[sl("p:E")]), rtol=0, atol=0)
    assert np.allclose(F[off["u"]], 0.5 * (ln[sl("u")] + lnp1[sl("u")]), rtol=0, atol=0)


def test_zero_initial_state(small_sys):
    states, times = stepping.simulate(small_sys.sys, small_sys.faces,
                                      stepping.SchemeParams(dt=0.1), forms.ZeroData(), 0)
    assert times == [0.0]
    st = states[0]
    assert list(st) == list(stepping.layout(small_sys.space))
    for v in (st["d"], st["z"], st["a"], st["u"], st["p"], st["p:E"]):
        assert np.all(v == 0.0)


def test_initial_state_projections(small_sys, unsteady):
    art = setup(cartesian_two_domain(2), 1, unsteady.params, VERIFICATION_DIRICHLET)
    st = stepping.initial_state(art.sys, art.faces, unsteady, projected_values(art.space, unsteady))
    d_ref = l2_project(art.space, "d", lambda p, t: unsteady.exact("d", p, t), t=0.0)
    assert np.allclose(st["d"], d_ref)
    z_ref = l2_project(art.space, "d", lambda p, t: unsteady.exact_dt("d", p, t), t=0.0)
    assert np.allclose(st["z"], z_ref)


def test_initial_acceleration_vanishes_on_discrete_steady(steady, cart4_setup):
    mesh, _, _ = cart4_setup
    state, art = solve_steady(steady, mesh, 2)
    vals = dict(state)
    st = stepping.initial_state(art.sys, art.faces, steady, vals)
    # the discrete steady solution satisfies the momentum row exactly
    scale = np.abs(state["d"]).max()
    assert np.abs(st["a"]).max() < 1e-9 * max(scale, 1.0)


def test_zero_loads_zero_state_stays_zero(small_sys):
    sp = stepping.SchemeParams(dt=0.01)
    states, times = stepping.simulate(small_sys.sys, small_sys.faces, sp,
                                      forms.ZeroData(), 3)
    assert np.abs(states[-1]["d"]).max() == 0.0
    assert np.abs(states[-1]["p"]).max() == 0.0


class _SourceInfiniteFrom(forms.ZeroData):
    """Exchange-compartment source that is infinite from time ``t_bad`` on."""

    def __init__(self, t_bad):
        self.t_bad = t_bad

    def g_j(self, j, pts, t):
        return np.full(len(pts), np.inf if t >= self.t_bad else 0.0)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_non_finite_state_names_its_step(small_sys):
    sp = stepping.SchemeParams(dt=0.1)
    with pytest.raises(NumericalError, match="non-finite state at step 3 "):
        stepping.simulate(small_sys.sys, small_sys.faces, sp, _SourceInfiniteFrom(0.25), 5)


def test_simulate_final_time_and_stride(small_sys):
    sp = stepping.SchemeParams(dt=0.25)
    states, times = stepping.simulate(small_sys.sys, small_sys.faces, sp,
                                      forms.ZeroData(), 8, t0=0.1, stride=3)
    # initial + steps 3, 6 + final 8, each at the time its loads use
    assert len(states) == 4
    assert times == [0.1 + n * 0.25 for n in (0, 3, 6, 8)]
    # 300 steps of 0.01 end at 3.0, not at the sum of 300 increments
    states, times = stepping.simulate(small_sys.sys, small_sys.faces,
                                      stepping.SchemeParams(dt=0.01), forms.ZeroData(), 300,
                                      stride=300)
    assert len(states) == 2 and times[-1] == 3.0


def test_trajectory_deterministic(unsteady):
    results = []
    for _ in range(2):
        states, times, _ = solve_unsteady(unsteady, cartesian_two_domain(2), 1,
                                          stepping.SchemeParams(dt=1e-3), 3)
        results.append(states[-1])
    a, b = results
    assert np.array_equal(a["d"], b["d"]) and np.array_equal(a["p"], b["p"])
    assert np.array_equal(a["z"], b["z"]) and np.array_equal(a["u"], b["u"])


def test_newmark_velocity_second_order_in_dt(unsteady):
    """Richardson check: halving dt shrinks the Z self-difference ~4x."""
    mesh = cartesian_two_domain(2)
    T = 0.032
    z = {}
    for dt in (T / 4, T / 8, T / 16):
        states, times, art = solve_unsteady(unsteady, mesh, 2,
                                            stepping.SchemeParams(dt=dt), int(round(T / dt)))
        z[dt] = states[-1]["z"]
    e1 = np.linalg.norm(z[T / 4] - z[T / 8])
    e2 = np.linalg.norm(z[T / 8] - z[T / 16])
    assert e1 / e2 == pytest.approx(4.0, rel=0.35)


def test_dissipativity_short(small_sys):
    rng = np.random.default_rng(11)
    space = small_sys.space
    vals = {f: rng.standard_normal(space.sizes[f]) for f in ("d", "u", "p")}
    vals["z"] = rng.standard_normal(space.sizes["d"])
    vals["p:E"] = rng.standard_normal(space.sizes["p:E"])
    sp = stepping.SchemeParams(dt=1e-2)
    states, _ = stepping.simulate(small_sys.sys, small_sys.faces, sp, forms.ZeroData(), 20, vals)
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
    sp = stepping.SchemeParams(dt=1e-2)
    states, _ = stepping.simulate(art.sys, art.faces, sp, forms.ZeroData(), 15, vals)
    E = [stepping.discrete_energy(art.sys, s) for s in states]
    for a, b in zip(E, E[1:]):
        assert b <= a * (1 + 1e-10)


# -- pinned values of the operators ----------------------------------------
# operator_pins.json holds x^T A y over the rows of each field, for A1 and A2
# under four scheme sets and for the steady operator G(0), recorded when
# stepping and system wrote the coupling pattern each on its own; record
# them again only when the operators are meant to change. The B_j blocks of
# A2 in the z and a columns vanish at the default beta and gamma, so two
# scheme sets move them off it (only the last keeps the a column).

OPERATOR_PINS = json.loads(Path(__file__).with_name("operator_pins.json").read_text())
PIN_SCHEMES = {"dt0.01": dict(dt=0.01),
               "dt0.001-theta1-beta0.3-gamma0.6": dict(dt=1e-3, theta=1.0, beta=0.3, gamma=0.6),
               "dt0.05-theta0.7": dict(dt=0.05, theta=0.7),
               "dt0.02-theta0.6-beta0.4-gamma0.7": dict(dt=0.02, theta=0.6, beta=0.4, gamma=0.7)}


def _row_pins(mat, slices):
    """x^T A y over the rows of each field, x and y random and fixed by the
    shape of A."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal(mat.shape[0])
    Ay = mat @ rng.standard_normal(mat.shape[1])
    return {f: float(x[s] @ Ay[s]) for f, s in slices.items()}


@pytest.mark.parametrize("name", ["cart4", "mesh80"])
@pytest.mark.parametrize("J", [("E",), ACVE], ids=["E", "ACVE"])
def test_operators_pinned(mesh80, name, J):
    faces, space = pin_setup(name, mesh80, J)
    sysm = build_system(space, pin_params(J), faces)
    key = f"{name}/{''.join(J)}"
    got = {f"{key}/G0": _row_pins(build_global(sysm, 0.0), field_slices(space.sizes))}
    for sid, kw in PIN_SCHEMES.items():
        mats = stepping.build_stepping_matrices(sysm, stepping.SchemeParams(**kw))
        for m in ("A1", "A2"):
            got[f"{key}/{sid}/{m}"] = _row_pins(mats[m], field_slices(stepping.layout(space)))
    want = {k: v for k, v in OPERATOR_PINS.items() if k.startswith(key + "/")}
    assert sorted(got) == sorted(want)
    for k, rows in want.items():
        assert list(got[k]) == list(rows), k
        for f, val in rows.items():
            assert abs(got[k][f] - val) <= 1e-13 * abs(val), (k, f, got[k][f], val)


# -- pinned values of a trajectory -----------------------------------------
# trajectory_pins.json holds probe . state[f] for every field of the states
# at steps 0, 5 and 10 of a forced march from seeded random initial values,
# recorded when a state was a TimeState packed into the stepping vector;
# record them again only when the stepping arithmetic is meant to change.

TRAJECTORY_PINS = json.loads(Path(__file__).with_name("trajectory_pins.json").read_text())


@pytest.mark.parametrize("name", ["cart4", "mesh80"])
@pytest.mark.parametrize("J", [("E",), ACVE], ids=["E", "ACVE"])
def test_trajectory_pinned(mesh80, name, J):
    faces, space = pin_setup(name, mesh80, J)
    sysm = build_system(space, pin_params(J), faces)
    sizes = stepping.layout(space)
    rng = np.random.default_rng(0)
    values = {f: rng.standard_normal(n) for f, n in sizes.items() if f != "a"}
    probe = {f: rng.standard_normal(n) for f, n in sizes.items()}
    states, _ = stepping.simulate(sysm, faces, stepping.SchemeParams(dt=0.01), DemoData(),
                                      10, values, stride=5)
    want = TRAJECTORY_PINS[f"{name}/{''.join(J)}"]
    assert len(states) == len(want) == 3
    for (step, pins), st in zip(want.items(), states):
        assert list(st) == list(pins) == list(sizes)
        for f, val in pins.items():
            got = float(probe[f] @ st[f])
            assert abs(got - val) <= 1e-13 * abs(val), (step, f, got, val)

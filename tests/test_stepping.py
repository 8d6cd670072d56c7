import hashlib
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from polympe import forms, stepping
from polympe.cli import DemoData, resolve_params
from polympe.driver import projected_values, solve_steady, solve_unsteady
from polympe.families import DEMO_DIRICHLET, VERIFICATION_DIRICHLET, cartesian_two_domain
from polympe.params import PhysicalParams
from polympe.solvers import NumericalError
from polympe.spaces import field_slices, l2_project
from polympe.system import build_global, build_system

from conftest import ACVE, OnePointData, pin_mesh, pin_system, sha256_hex
from test_system import physiological_params


@pytest.fixture(scope="module")
def small_sys(unit_params):
    return build_system(cartesian_two_domain(2), 1, unit_params, VERIFICATION_DIRICHLET)


def test_scheme_params_validation():
    with pytest.raises(ValueError):
        stepping.SchemeParams(dt=0.0)
    with pytest.raises(ValueError):
        stepping.SchemeParams(dt=0.1, beta=0.6)
    with pytest.raises(ValueError):
        stepping.SchemeParams(dt=0.1, gamma=0.4)
    with pytest.raises(ValueError):
        stepping.SchemeParams(dt=0.1, theta=0.2)
    # 1 / (beta dt^2) is finite here, but 1 / (beta dt) overflows
    with pytest.raises(ValueError, match="Newmark coefficients"):
        stepping.SchemeParams(dt=1e6, beta=1e-320)
    stepping.SchemeParams(dt=0.1)  # defaults valid


def extract(mat, sys, rname, cname):
    sl = field_slices(stepping.layout(sys.space))
    return mat[sl[rname], :][:, sl[cname]].toarray()


def test_newmark_velocity_row(small_sys):
    sys = small_sys
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
    sys = small_sys
    sp = stepping.SchemeParams(dt=0.05, beta=0.25, gamma=0.5)
    mats = stepping.build_stepping_matrices(sys, sp)
    n_d = sys.space.sizes["d"]
    assert np.allclose(extract(mats["A2"], sys, "a", "a"), -np.eye(n_d))
    assert np.allclose(extract(mats["A1"], sys, "a", "d"),
                       -np.eye(n_d) / (0.25 * 0.05 ** 2))


def test_implicit_euler_limit(small_sys):
    sys = small_sys
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
    sys = small_sys
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
    states, times = stepping.simulate(small_sys, stepping.SchemeParams(dt=0.1),
                                      forms.ZeroData(), 0)
    assert times == [0.0]
    st = states[0]
    assert list(st) == list(stepping.layout(small_sys.space))
    for v in (st["d"], st["z"], st["a"], st["u"], st["p"], st["p:E"]):
        assert np.all(v == 0.0)


def test_initial_state_projections(small_sys, unsteady):
    sysm = build_system(cartesian_two_domain(2), 1, unsteady.params, VERIFICATION_DIRICHLET)
    loads = forms.assemble_loads(sysm.space, sysm.params, sysm.faces, unsteady, 0.0)
    st = stepping.initial_state(sysm, loads, projected_values(sysm.space, unsteady))
    d_ref = l2_project(sysm.space, "d", lambda p: unsteady.exact("d", p, 0.0))
    assert np.allclose(st["d"], d_ref)
    z_ref = l2_project(sysm.space, "d", lambda p: unsteady.exact("d,t", p, 0.0))
    assert np.allclose(st["z"], z_ref)


class ExactLoads(forms.ZeroData):
    """The data of a manufactured case under a type that is not one."""

    def __init__(self, case):
        self.case = case

    def exact(self, key, pts, t=0.0):
        return self.case.exact(key, pts, t)


@pytest.mark.parametrize("kind", ["manufactured", "zero", "exact_loads"])
def test_solve_unsteady_initial_values(unsteady, kind):
    # every datum starts from its projection, and zero data projects to rest
    data = {"manufactured": unsteady, "zero": forms.ZeroData(),
            "exact_loads": ExactLoads(unsteady)}[kind]
    states, times, sysm = solve_unsteady(data, unsteady.params, cartesian_two_domain(2), 1,
                                        stepping.SchemeParams(dt=0.01), 0)
    assert times == [0.0]
    want = {} if kind == "zero" else projected_values(sysm.space, unsteady)
    assert set(want) <= set(states[0]) - {"a"}
    for f, v in states[0].items():
        if f != "a":
            assert np.array_equal(v, want.get(f, np.zeros_like(v))), f


@pytest.mark.parametrize("case_id", ["steady", "unsteady"])
def test_convergence_table_frees_each_solve_before_the_next(monkeypatch, case_id):
    # a mesh's system and states must not stay alive through the next
    # mesh's solve, or the sweep's peak memory holds two meshes at once
    import weakref
    from polympe import driver
    made, real_build = [], driver.build_system

    def tracked_build(*args):
        assert all(ref() is None for ref in made), "an earlier solve is still alive"
        sysm = real_build(*args)
        made.append(weakref.ref(sysm))
        return sysm

    monkeypatch.setattr(driver, "build_system", tracked_build)
    meshes = [cartesian_two_domain(n) for n in (2, 3, 4)]
    driver.convergence_table(case_id, meshes, [1], scheme=stepping.SchemeParams(dt=1e-3),
                             n_steps=1)
    assert len(made) == 3


@pytest.mark.parametrize("J", [("E",), ACVE], ids=["E", "ACVE"])
def test_error_row_has_one_column_per_field(monkeypatch, unsteady, J):
    # err_<field without ':'> is the square root of the field's broken
    # error at the last state, in field order; the manufactured cases have
    # one compartment, so with four the norms are replaced by fixed values
    from polympe import driver, norms
    sysm = build_system(cartesian_two_domain(2), 1, PhysicalParams.unit(J), VERIFICATION_DIRICHLET)
    finals = {}

    def recorded_energy_norm(*args, **kwargs):
        eb = real_energy_norm(*args, **kwargs) if J == ("E",) else norms.EnergyBreakdown(
            {}, [0.0], [0.0], {f: 1.0 + i for i, f in enumerate(sysm.space.fields)})
        finals.update(eb.final)
        return eb

    real_energy_norm = norms.energy_norm
    monkeypatch.setattr(driver.norms, "energy_norm", recorded_energy_norm)
    data = unsteady if J == ("E",) else forms.ZeroData()
    states, times = stepping.simulate(sysm, stepping.SchemeParams(dt=0.01), data, 2)
    row = driver.error_row(unsteady, states, times, sysm)
    errs = {k: v for k, v in row.items() if k.startswith("err_") and k != "err_energy"}
    assert list(finals) == list(sysm.space.fields)
    assert list(errs) == [f"err_{f.replace(':', '')}" for f in finals]
    assert list(errs.values()) == [float(np.sqrt(v)) for v in finals.values()]
    if J == ("E",):
        assert list(errs) == ["err_d", "err_pE", "err_u", "err_p"]


def test_initial_acceleration_vanishes_on_discrete_steady(steady, cart4_setup):
    mesh, _, _ = cart4_setup
    state, sysm = solve_steady(steady, mesh, 2)
    vals = dict(state)
    loads = forms.assemble_loads(sysm.space, sysm.params, sysm.faces, steady, 0.0)
    st = stepping.initial_state(sysm, loads, vals)
    # the discrete steady solution satisfies the momentum row exactly
    scale = np.abs(state["d"]).max()
    assert np.abs(st["a"]).max() < 1e-9 * max(scale, 1.0)


@pytest.mark.parametrize("field", ["pE", "a"])
def test_initial_state_rejects_unknown_and_derived_values(small_sys, field):
    loads = np.zeros(small_sys.space.n_dofs)
    with pytest.raises(ValueError, match=re.escape(f"['{field}']")):
        stepping.initial_state(small_sys, loads, {field: np.zeros(small_sys.space.sizes["d"])})


def test_zero_loads_zero_state_stays_zero(small_sys):
    sp = stepping.SchemeParams(dt=0.01)
    states, times = stepping.simulate(small_sys, sp, forms.ZeroData(), 3)
    assert np.abs(states[-1]["d"]).max() == 0.0
    assert np.abs(states[-1]["p"]).max() == 0.0


class _SourceInfiniteFrom(forms.ZeroData):
    """Exchange-compartment source that is infinite from time ``t_bad`` on."""

    def __init__(self, t_bad):
        self.t_bad = t_bad

    def exact(self, key, pts, t=0.0):
        if key == "g:E":
            return np.full(len(pts), np.inf if t >= self.t_bad else 0.0)
        return super().exact(key, pts, t)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_non_finite_state_names_its_step(small_sys):
    sp = stepping.SchemeParams(dt=0.1)
    with pytest.raises(NumericalError, match="non-finite state at step 3 "):
        stepping.simulate(small_sys, sp, _SourceInfiniteFrom(0.25), 5)


@pytest.mark.parametrize("key", ["f_el", "g:E", "p_out", "d", "p:E", "d,t", "u"])
def test_nan_datum_at_one_point_is_numerical_error(small_sys, key):
    # NaN is not zero: the term that reads it is assembled and the march fails
    sp = stepping.SchemeParams(dt=0.1)
    with pytest.raises(NumericalError, match="non-finite state at step 1 "):
        stepping.simulate(small_sys, sp, OnePointData(key, np.nan), 3)


@pytest.mark.parametrize("n_steps, stride", [(-4, 1), (3, 0), (3, -2)])
def test_simulate_rejects_bad_step_counts(small_sys, n_steps, stride):
    with pytest.raises(ValueError, match="n_steps >= 0 and stride >= 1"):
        stepping.simulate(small_sys, stepping.SchemeParams(dt=0.1),
                          forms.ZeroData(), n_steps, stride=stride)


def test_simulate_final_time_and_stride(small_sys):
    sp = stepping.SchemeParams(dt=0.25)
    states, times = stepping.simulate(small_sys, sp, forms.ZeroData(), 8, stride=3)
    # initial + steps 3, 6 + final 8, each at the time its loads use
    assert len(states) == 4
    assert times == [n * 0.25 for n in (0, 3, 6, 8)]
    # 300 steps of 0.01 end at 3.0, not at the sum of 300 increments
    states, times = stepping.simulate(small_sys, stepping.SchemeParams(dt=0.01),
                                      forms.ZeroData(), 300, stride=300)
    assert len(states) == 2 and times[-1] == 3.0


def test_trajectory_deterministic(unsteady):
    results = []
    for _ in range(2):
        states, times, _ = solve_unsteady(unsteady, unsteady.params, cartesian_two_domain(2),
                                          1, stepping.SchemeParams(dt=1e-3), 3)
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
        states, times, sysm = solve_unsteady(unsteady, unsteady.params, mesh, 2,
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
    states, _ = stepping.simulate(small_sys, sp, forms.ZeroData(), 20, vals)
    E = [stepping.discrete_energy(small_sys, s) for s in states]
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
    sysm = build_system(mesh, 1, params, dirichlet)
    rng = np.random.default_rng(3)
    vals = {f: rng.standard_normal(sysm.space.sizes[f]) for f in sysm.space.fields}
    vals["z"] = rng.standard_normal(sysm.space.sizes["d"])
    sp = stepping.SchemeParams(dt=1e-2)
    states, _ = stepping.simulate(sysm, sp, forms.ZeroData(), 15, vals)
    E = [stepping.discrete_energy(sysm, s) for s in states]
    for a, b in zip(E, E[1:]):
        assert b <= a * (1 + 1e-10)


def _decay(sysm, n_steps=200):
    """The discrete energy at each step of a march of ``n_steps`` steps of
    dt = 0.01 with zero loads, from a seeded random state."""
    rng = np.random.default_rng(0)
    values = {f: rng.standard_normal(n) for f, n in stepping.layout(sysm.space).items() if f != "a"}
    states, _ = stepping.simulate(sysm, stepping.SchemeParams(dt=0.01), forms.ZeroData(), n_steps,
                                  values)
    return np.array([stepping.discrete_energy(sysm, st) for st in states])


def _assert_never_rises(energy, case):
    # a rise of round-off size is allowed; a growing mode rises by far more
    rise = np.diff(energy).max() / energy[0]
    assert rise <= 1e-12, f"{case}: a step raises the energy by {rise:.3g} E0"


@pytest.mark.parametrize("name, m", [("cart4", 1), ("mesh80", 2)])
def test_free_decay_never_raises_the_energy(mesh80, unit_params, name, m):
    # ROADMAP item 20: with no loads the scheme is dissipative, so no step
    # may raise the discrete energy, whatever the state
    mesh, dirichlet = pin_mesh(name, mesh80, ("E",))
    _assert_never_rises(_decay(build_system(mesh, m, unit_params, dirichlet)), name)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_free_decay_never_raises_the_energy_physiological(mesh80):
    # the demo's brain preset, then item 10's physiological draws with a
    # symmetric beta (the energy estimate assumes one); at the brain preset
    # the p:E penalty is not coercive until it scales with k_j / mu_j
    cfg = json.loads((Path(__file__).parents[1] / "configs" / "demo.json").read_text())
    _assert_never_rises(_decay(build_system(mesh80, 2, resolve_params(cfg), DEMO_DIRICHLET)),
                        "brain preset")
    cases = itertools.product(("cart4", "mesh80"), (1, 2), (("E",), ACVE))
    for seed, (name, m, J) in enumerate(cases):
        mesh, dirichlet = pin_mesh(name, mesh80, J)
        params = physiological_params(J, np.random.default_rng(seed))
        params.beta = {j: {k: params.beta[min(j, k)][max(j, k)] for k in J} for j in J}
        params.validate()
        _assert_never_rises(_decay(build_system(mesh, m, params, dirichlet), 100),
                            f"draw {seed}: {name}, m = {m}, J = {''.join(J)}")


# -- pinned values of the operators ----------------------------------------
# operator_pins.json holds x^T A y over the rows of each field, for A1 and A2
# under four scheme sets and for the steady operator G(0), recorded when
# stepping and system wrote the coupling pattern each on its own; record
# them again only when the operators are meant to change. The B_j + J_el
# blocks of A2 in the z and a columns vanish at the default beta and gamma,
# so two scheme sets move them off it (only the last keeps the a column);
# the A2 p:E rows of the three non-default sets were recorded again when
# J_el joined B_E there.

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
    sysm = pin_system(name, mesh80, J)
    space = sysm.space
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
    sysm = pin_system(name, mesh80, J)
    sizes = stepping.layout(sysm.space)
    rng = np.random.default_rng(0)
    values = {f: rng.standard_normal(n) for f, n in sizes.items() if f != "a"}
    probe = {f: rng.standard_normal(n) for f, n in sizes.items()}
    states, _ = stepping.simulate(sysm, stepping.SchemeParams(dt=0.01), DemoData(),
                                      10, values, stride=5)
    want = TRAJECTORY_PINS[f"{name}/{''.join(J)}"]
    assert len(states) == len(want) == 3
    for (step, pins), st in zip(want.items(), states):
        assert list(st) == list(pins) == list(sizes)
        for f, val in pins.items():
            got = float(probe[f] @ st[f])
            assert abs(got - val) <= 1e-13 * abs(val), (step, f, got, val)


# -- exact stepping arithmetic ---------------------------------------------
# sha256 of A2 @ probe and A1's stored-entry count at dt0.01 on the
# 80-polygon pin setups, recorded when A2 still stored the zero Newmark
# coefficients: dropping them must leave every bit of the matvec, and A1
# keeps its pattern, which sets the LU column ordering.

A2_PROBE_SHA256 = {
    "E": "daf7c84e0228f49a9f902ba7639407faafde138bbc9e486fc1e837fa7b37479f",
    "ACVE": "d7a71100012ffd4d39d83c8c08a9324d48272df7cda635b9330f78862016d210",
}
A1_NNZ = {"E": 147308, "ACVE": 286646}


@pytest.mark.parametrize("J", [("E",), ACVE], ids=["E", "ACVE"])
def test_stepping_matrices_bytes_pinned(mesh80, J):
    sysm = pin_system("mesh80", mesh80, J)
    mats = stepping.build_stepping_matrices(sysm, stepping.SchemeParams(**PIN_SCHEMES["dt0.01"]))
    probe = np.random.default_rng(0).standard_normal(mats["A2"].shape[1])
    assert sha256_hex(mats["A2"] @ probe) == A2_PROBE_SHA256["".join(J)]
    assert mats["A1"].nnz == A1_NNZ["".join(J)]


@pytest.mark.parametrize("sid", list(PIN_SCHEMES))
def test_a2_stores_no_zeros(small_sys, sid):
    A2 = stepping.build_stepping_matrices(small_sys, stepping.SchemeParams(**PIN_SCHEMES[sid]))
    assert A2["A2"].data.all()



# -- exact operator bytes --------------------------------------------------
# sha256 of the data, indices and indptr of A1 and A2 at dt0.01 and of the
# steady operator G(0), on the 80-polygon pin setups and on the brain-preset
# system of configs/demo.json, recorded when each compartment stored its own
# storage mass and transfer blocks: forming them all from one shared mass
# must leave every bit.

OPERATOR_SHA256 = {
    "E": {"A1": "6aeefcf1bbd37bc0121ed1275959bf4138628a77f59151b0ad9024e9b716378c",
          "A2": "38235fea6a534c5384192c21882ea63803fbe6306caf4ffcdab616da5cf150e0",
          "G0": "61826415ca43a42eac49e95724aeda74086fa9aa263a92c47e9b94839f169fca"},
    "ACVE": {"A1": "316ca31be0c07bbfcc8da0295516cd4a28a757ff983755d9eb2033098cfef17c",
             "A2": "c06dd23d6f0272e138496d36c83622f767958cffc6f033d3ff12f3ed11b8fcb7",
             "G0": "304e3234f772bb985019a263ed4a6f254a51a0691eb759c089dae33cdc17003f"},
    "demo": {"A1": "e6c8c4f907e7beddc1fe51c96a986fb1d9e640bebb1dcb801ba668d26ce9959d",
             "A2": "fc194a02024b5f1d73699566b6140a1b7b7a4607abf8e769fe4a2198c84ff000",
             "G0": "2cd40a468138c66db09303244010964bd374d043c4424d9f50521b41546360a3"},
}


def _csr_sha256(mat) -> str:
    h = hashlib.sha256()
    for a in (mat.data, mat.indices, mat.indptr):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("key", ["E", "ACVE", "demo"])
def test_operator_bytes_pinned(mesh80, key):
    if key == "demo":
        cfg = json.loads((Path(__file__).parents[1] / "configs" / "demo.json").read_text())
        sysm = build_system(mesh80, 2, resolve_params(cfg), DEMO_DIRICHLET)
    else:
        sysm = pin_system("mesh80", mesh80, ACVE if key == "ACVE" else ("E",))
    mats = stepping.build_stepping_matrices(sysm, stepping.SchemeParams(**PIN_SCHEMES["dt0.01"]))
    got = {"A1": _csr_sha256(mats["A1"]), "A2": _csr_sha256(mats["A2"]),
           "G0": _csr_sha256(build_global(sysm, 0.0))}
    assert got == OPERATOR_SHA256[key]

# -- consistency of the theta-method ---------------------------------------

@pytest.mark.parametrize("theta", [0.7, 1.0])
def test_theta_scheme_first_order_against_trapezoid(theta):
    # for theta > 1/2 the scheme is first order, so its gap to the
    # second-order theta = 1/2 march halves with dt; a coupling block left
    # out of the blended velocity makes it converge to another solution
    sysm = build_system(cartesian_two_domain(2), 1, PhysicalParams.unit(), DEMO_DIRICHLET)
    T = 0.2

    def final(th, dt):
        n = int(round(T / dt))
        states, _ = stepping.simulate(sysm, stepping.SchemeParams(dt=dt, theta=th),
                                      DemoData(1.0), n, stride=n)
        return np.concatenate(list(states[-1].values()))

    gaps = []
    for dt in (0.01, 0.005, 0.0025):
        ref = final(0.5, dt)
        gaps.append(np.linalg.norm(final(theta, dt) - ref) / np.linalg.norm(ref))
    for coarse, fine in zip(gaps, gaps[1:]):
        assert coarse / fine == pytest.approx(2.0, abs=0.15), gaps

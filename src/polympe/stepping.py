"""Fully discrete scheme: Newmark for the elastic momentum row, theta-method
for the pressure and fluid rows.

The stacked unknown per step is X = (D, Z, A, P_A..P_E, U, P) with Z and A
the Newmark velocity and acceleration auxiliaries. One step solves
A1 X^{n+1} = A2 X^n + F^{n+1}; both matrices are constant, so A1 is
factorized once per run. The displacement column of the pressure rows uses
the Newmark increment with coefficient theta*gamma/(beta*dt) on both the
elastic-pressure coupling and the interface block; the velocity and
acceleration columns carry the elastic-pressure coupling alone (for the
reference parameters beta=1/4, gamma=1/2, theta=1/2 their coefficients
vanish, which makes the two groupings identical there).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import forms
from .mesh import FaceSet
from .solvers import Factorization, factorize
from .spaces import l2_project
from .system import EXCHANGE, SystemMatrices


@dataclass
class SchemeParams:
    dt: float
    beta: float = 0.25
    gamma: float = 0.5
    theta: float = 0.5

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not 0.0 < self.beta <= 0.5:
            raise ValueError("beta must lie in (0, 1/2]")
        if not 0.5 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [1/2, 1]")
        if not 0.5 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [1/2, 1]")


@dataclass
class TimeState:
    t: float
    d: np.ndarray
    z: np.ndarray
    a: np.ndarray
    p_j: dict
    u: np.ndarray
    p: np.ndarray

    def as_dict(self) -> dict:
        out = {"d": self.d, "z": self.z, "u": self.u, "p": self.p}
        out.update({f"p:{j}": v for j, v in self.p_j.items()})
        return out


def _aux_layout(sys: SystemMatrices):
    sizes = sys.space.sizes
    parts = [("D", sizes["d"]), ("Z", sizes["d"]), ("A", sizes["d"])]
    parts += [(f"P:{j}", sizes[f"p:{j}"]) for j in sys.compartments]
    parts += [("U", sizes["u"]), ("P", sizes["p"])]
    offsets, pos = {}, 0
    for name, n in parts:
        offsets[name] = slice(pos, pos + n)
        pos += n
    return offsets, pos


def pack(sys: SystemMatrices, st: TimeState) -> np.ndarray:
    off, n = _aux_layout(sys)
    x = np.empty(n)
    x[off["D"]], x[off["Z"]], x[off["A"]] = st.d, st.z, st.a
    for j in sys.compartments:
        x[off[f"P:{j}"]] = st.p_j[j]
    x[off["U"]], x[off["P"]] = st.u, st.p
    return x


def unpack(sys: SystemMatrices, x: np.ndarray, t: float) -> TimeState:
    off, _ = _aux_layout(sys)
    return TimeState(
        t=t, d=x[off["D"]].copy(), z=x[off["Z"]].copy(), a=x[off["A"]].copy(),
        p_j={j: x[off[f"P:{j}"]].copy() for j in sys.compartments},
        u=x[off["U"]].copy(), p=x[off["P"]].copy(),
    )


def build_stepping_matrices(sys: SystemMatrices, sp_: SchemeParams):
    """The pair (A1, A2) of the one-step recursion."""
    J = list(sys.compartments)
    dt, beta, gamma, theta = sp_.dt, sp_.beta, sp_.gamma, sp_.theta
    names = ["D", "Z", "A"] + [f"P:{j}" for j in J] + ["U", "P"]
    idx = {n: i for i, n in enumerate(names)}
    nb = len(names)
    n_d = sys.space.sizes["d"]
    I_d = sp.identity(n_d, format="csr")

    A1 = [[None] * nb for _ in range(nb)]
    A2 = [[None] * nb for _ in range(nb)]

    # elastic momentum at t_{n+1}
    A1[idx["D"]][idx["D"]] = sys.A_el
    A1[idx["D"]][idx["A"]] = sys.M_el
    for j in J:
        blk = sys.B_j[j].T.tocsr()
        if j == EXCHANGE and sys.J_el is not None:
            blk = blk + sys.J_el.T
        A1[idx["D"]][idx[f"P:{j}"]] = blk

    # Newmark velocity and acceleration updates
    A1[idx["Z"]][idx["Z"]] = I_d
    A1[idx["Z"]][idx["A"]] = -gamma * dt * I_d
    A2[idx["Z"]][idx["Z"]] = I_d
    A2[idx["Z"]][idx["A"]] = (1.0 - gamma) * dt * I_d

    c_acc = 1.0 / (beta * dt * dt)
    A1[idx["A"]][idx["D"]] = -c_acc * I_d
    A1[idx["A"]][idx["A"]] = I_d
    A2[idx["A"]][idx["D"]] = -c_acc * I_d
    A2[idx["A"]][idx["Z"]] = -(1.0 / (beta * dt)) * I_d
    A2[idx["A"]][idx["A"]] = ((2.0 * beta - 1.0) / (2.0 * beta)) * I_d

    # pressure rows: theta-blend with the Newmark-consistent velocity
    c_bd = theta * gamma / (beta * dt)
    for j in J:
        r = idx[f"P:{j}"]
        coupl = sys.B_j[j]
        if j == EXCHANGE and sys.J_el is not None:
            coupl = coupl + sys.J_el
        A1[r][idx["D"]] = -c_bd * coupl
        A2[r][idx["D"]] = -c_bd * coupl
        A2[r][idx["Z"]] = (1.0 - theta * gamma / beta) * sys.B_j[j]
        A2[r][idx["A"]] = theta * dt * (1.0 - gamma / (2.0 * beta)) * sys.B_j[j]
        for k in J:
            K = sys.C[j][k]
            if k == j:
                K = K + sys.A_j[j]
                A1[r][idx[f"P:{k}"]] = (1.0 / dt) * sys.M_j[j] + theta * K
                A2[r][idx[f"P:{k}"]] = (1.0 / dt) * sys.M_j[j] - (1.0 - theta) * K
            else:
                A1[r][idx[f"P:{k}"]] = theta * K
                A2[r][idx[f"P:{k}"]] = -(1.0 - theta) * K
        if j == EXCHANGE and sys.J_f is not None:
            A1[r][idx["U"]] = -theta * sys.J_f
            A2[r][idx["U"]] = (1.0 - theta) * sys.J_f

    # fluid momentum and divergence rows
    if sys.J_f is not None:
        pe = idx[f"P:{EXCHANGE}"]
        A1[idx["U"]][pe] = theta * sys.J_f.T.tocsr()
        A2[idx["U"]][pe] = -(1.0 - theta) * sys.J_f.T.tocsr()
    A1[idx["U"]][idx["U"]] = (1.0 / dt) * sys.M_f + theta * sys.A_f
    A2[idx["U"]][idx["U"]] = (1.0 / dt) * sys.M_f - (1.0 - theta) * sys.A_f
    A1[idx["U"]][idx["P"]] = theta * sys.B_f.T.tocsr()
    A2[idx["U"]][idx["P"]] = -(1.0 - theta) * sys.B_f.T.tocsr()
    A1[idx["P"]][idx["U"]] = -theta * sys.B_f
    A2[idx["P"]][idx["U"]] = (1.0 - theta) * sys.B_f
    A1[idx["P"]][idx["P"]] = theta * sys.S
    A2[idx["P"]][idx["P"]] = -(1.0 - theta) * sys.S

    sizes = [n_d, n_d, n_d] + [sys.space.sizes[f"p:{j}"] for j in J] \
        + [sys.space.sizes["u"], sys.space.sizes["p"]]
    for M in (A1, A2):
        for i in range(nb):
            if all(M[i][c] is None for c in range(nb)):
                M[i][i] = sp.csr_matrix((sizes[i], sizes[i]))
    return {"A1": sp.bmat(A1, format="csr"), "A2": sp.bmat(A2, format="csr")}


def blend_loads(sys: SystemMatrices, sp_: SchemeParams, loads_n, loads_np1) -> np.ndarray:
    """Right-hand side of one step: elastic loads at t_{n+1}, theta-blended
    loads on the pressure, fluid, and divergence rows."""
    off, n = _aux_layout(sys)
    th = sp_.theta
    F = np.zeros(n)
    F[off["D"]] = loads_np1["el"]
    for j in sys.compartments:
        F[off[f"P:{j}"]] = th * loads_np1["j"][j] + (1 - th) * loads_n["j"][j]
    F[off["U"]] = th * loads_np1["f"] + (1 - th) * loads_n["f"]
    F[off["P"]] = th * loads_np1["p"] + (1 - th) * loads_n["p"]
    return F


def initial_state(sys: SystemMatrices, faces: FaceSet, case=None, dof_values=None,
                  t0: float = 0.0, data=None) -> TimeState:
    """Projected (or supplied, or zero) initial data with the acceleration
    recovered from the momentum residual at t0. ``data`` overrides the load
    source used for that residual when initial values are supplied directly."""
    space = sys.space
    zero = lambda f: np.zeros(space.sizes[f])
    if case is not None:
        d0 = l2_project(space, "d", lambda pts, t: case.exact("d", pts, t), t=t0)
        z0 = l2_project(space, "d", lambda pts, t: case.exact_dt("d", pts, t), t=t0)
        p_j0 = {j: l2_project(space, f"p:{j}", lambda pts, t, j=j: case.exact(f"p:{j}", pts, t), t=t0)
                for j in sys.compartments}
        u0 = l2_project(space, "u", lambda pts, t: case.exact("u", pts, t), t=t0)
        p0 = l2_project(space, "p", lambda pts, t: case.exact("p", pts, t), t=t0)
        loads = forms.assemble_loads(space, sys.params, faces, case, t0)
    else:
        vals = dof_values or {}
        d0 = vals.get("d", zero("d"))
        z0 = vals.get("z", zero("d"))
        p_j0 = {j: vals.get(f"p:{j}", zero(f"p:{j}")) for j in sys.compartments}
        u0 = vals.get("u", zero("u"))
        p0 = vals.get("p", zero("p"))
        loads = forms.assemble_loads(space, sys.params, faces, data or forms.ZeroData(), t0)

    r = loads["el"] - sys.A_el @ d0
    for j in sys.compartments:
        r -= sys.B_j[j].T @ p_j0[j]
    if sys.J_el is not None:
        r -= sys.J_el.T @ p_j0[EXCHANGE]
    a0 = factorize(sys.M_el).solve(r)
    return TimeState(t=t0, d=d0, z=z0, a=a0, p_j=p_j0, u=u0, p=p0)


def advance(sys: SystemMatrices, fact_A1: Factorization, A2, sp_: SchemeParams,
            state: TimeState, loads_n, loads_np1) -> TimeState:
    """One step of the recursion; ``loads_n``/``loads_np1`` are the load
    dicts at the two endpoint times."""
    rhs = A2 @ pack(sys, state) + blend_loads(sys, sp_, loads_n, loads_np1)
    return unpack(sys, fact_A1.solve(rhs), state.t + sp_.dt)


def simulate(sys: SystemMatrices, faces: FaceSet, sp_: SchemeParams, data,
             n_steps: int, state0: TimeState, stride: int = 1):
    """March ``n_steps`` uniform steps from ``state0``; returns the recorded
    states (every ``stride``-th plus first and last) and their times.

    The initial load of the divergence row is replaced by its discretely
    compatible value, so the theta-averaged algebraic constraint starts with
    a zero residual: projected initial velocities are not discretely
    divergence-free, and without this consistent initialization the
    trapezoidal blend would carry an undamped constraint oscillation."""
    mats = build_stepping_matrices(sys, sp_)
    fact = factorize(mats["A1"])
    A2 = mats["A2"]
    states, times = [state0], [state0.t]
    loads_n = forms.assemble_loads(sys.space, sys.params, faces, data, state0.t)
    loads_n["p"] = sys.S @ state0.p - sys.B_f @ state0.u
    st = state0
    for n in range(1, n_steps + 1):
        t_np1 = state0.t + n * sp_.dt
        loads_np1 = forms.assemble_loads(sys.space, sys.params, faces, data, t_np1)
        st = advance(sys, fact, A2, sp_, st, loads_n, loads_np1)
        loads_n = loads_np1
        if n % stride == 0 or n == n_steps:
            states.append(st)
            times.append(st.t)
    return states, times


def discrete_energy(sys: SystemMatrices, st: TimeState) -> float:
    """Kinetic + elastic + storage + fluid kinetic energy of a state."""
    e = float(st.z @ (sys.M_el @ st.z)) + float(st.d @ (sys.A_el @ st.d))
    for j in sys.compartments:
        e += float(st.p_j[j] @ (sys.M_j[j] @ st.p_j[j]))
    e += float(st.u @ (sys.M_f @ st.u))
    return e

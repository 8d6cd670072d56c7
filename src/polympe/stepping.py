"""Fully discrete scheme: Newmark for the elastic momentum row, theta-method
for the pressure and fluid rows.

The stepping vector is the field layout of :class:`~polympe.spaces.DGSpace`
with the Newmark velocity ``z`` and acceleration ``a`` inserted after ``d``:
x = (d, z, a, p:A..p:E, u, p). A state is the dict ``{field: vector}`` in
that order (:func:`layout`); :func:`simulate` records the field views of each
solved vector (:func:`polympe.system.split`). One step solves
A1 x^{n+1} = A2 x^n + F^{n+1}; both matrices are constant, so A1 is
factorized once per run. Both are the
coupling pattern of :func:`polympe.system.coupling_blocks` (see the table
there) plus the Newmark z and a rows. The pressure rows see the
displacement through the theta-blended Newmark velocity: the d, z and a
columns of a p:j row all carry its displacement coupling B_j + [j=E] J_el
(:func:`polympe.system.displacement_coupling`), with coefficients
theta*gamma/(beta*dt) on the increment in A1 and A2, and
1 - theta*gamma/beta and theta*dt*(1 - gamma/(2*beta)) on z and a in A2.

The last two vanish at the reference parameters beta=1/4, gamma=1/2,
theta=1/2. A2 keeps no stored zeros, so its product in the time loop skips
them; A1 keeps its whole pattern, which sets the column ordering of its LU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import forms
from .solvers import NumericalError, factorize
from .spaces import DGSpace
from .system import (EXCHANGE, SystemMatrices, coupling_blocks, displacement_coupling, place,
                     split)


@dataclass
class SchemeParams:
    dt: float
    beta: float = 0.25
    gamma: float = 0.5
    theta: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if not 0.0 < self.beta <= 0.5:
            raise ValueError("beta must lie in (0, 1/2]")
        if not 0.5 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [1/2, 1]")
        if not 0.5 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [1/2, 1]")


def layout(space: DGSpace) -> dict:
    """Field sizes of the stepping vector, in order: ``space.sizes`` with
    ``z`` and ``a`` after ``d``."""
    sizes = dict(space.sizes)
    n_d = sizes.pop("d")
    return {"d": n_d, "z": n_d, "a": n_d, **sizes}


def build_stepping_matrices(sys: SystemMatrices, sp_: SchemeParams):
    """The pair (A1, A2) of the one-step recursion."""
    dt, beta, gamma, theta = sp_.dt, sp_.beta, sp_.gamma, sp_.theta
    I_d = sp.identity(sys.space.sizes["d"], format="csr")

    # theta-blended coupling pattern; the pressure rows see the displacement
    # through the Newmark-consistent velocity
    disp = -theta * gamma / (beta * dt)
    A1 = coupling_blocks(sys, 1.0 / dt, theta, disp)
    A1["d", "a"] = sys.M_el
    A2 = coupling_blocks(sys, 1.0 / dt, -(1.0 - theta), disp, elastic=False)
    for j in sys.compartments:
        coupl = displacement_coupling(sys, j)
        A2[f"p:{j}", "z"] = (1.0 - theta * gamma / beta) * coupl
        A2[f"p:{j}", "a"] = theta * dt * (1.0 - gamma / (2.0 * beta)) * coupl

    # Newmark velocity and acceleration updates
    c_acc = 1.0 / (beta * dt * dt)
    A1.update({("z", "z"): I_d, ("z", "a"): -gamma * dt * I_d,
               ("a", "d"): -c_acc * I_d, ("a", "a"): I_d})
    A2.update({("z", "z"): I_d, ("z", "a"): (1.0 - gamma) * dt * I_d,
               ("a", "d"): -c_acc * I_d, ("a", "z"): -(1.0 / (beta * dt)) * I_d,
               ("a", "a"): ((2.0 * beta - 1.0) / (2.0 * beta)) * I_d})

    sizes = layout(sys.space)
    A2 = place(A2, sizes)
    A2.eliminate_zeros()
    return {"A1": place(A1, sizes), "A2": A2}


def blend_loads(sys: SystemMatrices, sp_: SchemeParams, loads_n, loads_np1) -> np.ndarray:
    """Right-hand side of one step from the load vectors of
    :func:`polympe.forms.assemble_loads` at t_n and t_{n+1}: the d loads at
    t_{n+1}, zeros in the z and a rows, and theta-blended loads on the
    pressure, fluid, and divergence rows."""
    n_d, th = sys.space.sizes["d"], sp_.theta
    return np.concatenate([loads_np1[:n_d], np.zeros(2 * n_d),
                           th * loads_np1[n_d:] + (1 - th) * loads_n[n_d:]])


def initial_state(sys: SystemMatrices, loads: np.ndarray, values=None) -> dict:
    """The initial state in :func:`layout` order: ``values`` (a dict of layout
    fields but ``a``; missing fields are zero) with the acceleration ``a``
    recovered from the momentum residual under ``loads``, the load vector of
    :func:`polympe.forms.assemble_loads` at the initial time."""
    space, values, sizes = sys.space, values or {}, layout(sys.space)
    bad = sorted(f for f in values if f not in sizes or f == "a")
    if bad:
        raise ValueError(f"initial values for {bad}: only the fields of {list(sizes)} but 'a'")
    st = {f: values.get(f, np.zeros(n)) for f, n in sizes.items()}
    r = loads[space.field_slice("d")] - sys.A_el @ st["d"]
    for j in sys.compartments:
        r -= sys.B_j[j].T @ st[f"p:{j}"]
    r -= sys.J_el.T @ st[f"p:{EXCHANGE}"]
    st["a"] = factorize(sys.M_el).solve(r)
    return st


def check_step_counts(n_steps: int, stride: int) -> None:
    """Raise :class:`ValueError` unless ``n_steps >= 0`` and ``stride >= 1``."""
    if n_steps < 0 or stride < 1:
        raise ValueError(f"need n_steps >= 0 and stride >= 1, got n_steps = {n_steps}, "
                         f"stride = {stride}")


def simulate(sys: SystemMatrices, sp_: SchemeParams, data, n_steps: int, values=None,
             t0: float = 0.0, stride: int = 1):
    """March ``n_steps`` uniform steps from :func:`initial_state` (``values``
    under the loads of ``data`` at ``t0``); returns the recorded states
    (every ``stride``-th plus first and last), each a dict of field views in
    :func:`layout` order, and their times. Step ``n`` is at ``t0 + n * dt``,
    the time its loads are assembled at.

    The initial load of the divergence row is replaced by its discretely
    compatible value, so the theta-averaged algebraic constraint starts with
    a zero residual: projected initial velocities are not discretely
    divergence-free, and without this consistent initialization the
    trapezoidal blend would carry an undamped constraint oscillation.

    Raises :class:`ValueError` unless ``n_steps >= 0`` and ``stride >= 1``
    (:func:`check_step_counts`), and :class:`~polympe.solvers.NumericalError`
    at the first step whose state is not finite."""
    check_step_counts(n_steps, stride)
    loads_n = forms.assemble_loads(sys.space, sys.params, sys.faces, data, t0)
    state0 = initial_state(sys, loads_n, values)
    mats = build_stepping_matrices(sys, sp_)
    fact = factorize(mats["A1"])
    A2, space, sizes = mats["A2"], sys.space, layout(sys.space)
    states, times = [state0], [t0]
    loads_n[space.field_slice("p")] = sys.S @ state0["p"] - sys.B_f @ state0["u"]
    x = np.concatenate(list(state0.values()))
    for n in range(1, n_steps + 1):
        t = t0 + n * sp_.dt
        loads_np1 = forms.assemble_loads(space, sys.params, sys.faces, data, t)
        # each solve returns a fresh vector, so a recorded state may view it
        x = fact.solve(A2 @ x + blend_loads(sys, sp_, loads_n, loads_np1))
        if not np.isfinite(x).all():
            raise NumericalError(f"non-finite state at step {n} (t = {t:.6g})")
        loads_n = loads_np1
        if n % stride == 0 or n == n_steps:
            states.append(split(x, sizes))
            times.append(t)
    return states, times


def discrete_energy(sys: SystemMatrices, st: dict) -> float:
    """Kinetic + elastic + storage + fluid kinetic energy of a state."""
    e = float(st["z"] @ (sys.M_el @ st["z"])) + float(st["d"] @ (sys.A_el @ st["d"]))
    for j in sys.compartments:
        p_j = st[f"p:{j}"]
        e += float(p_j @ ((sys.params.c_j[j] * sys.M_comp) @ p_j))
    e += float(st["u"] @ (sys.M_f @ st["u"]))
    return e

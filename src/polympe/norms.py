"""Broken DG norms, time-accumulated energy norms, and convergence rates.

Each broken norm pairs an element-wise seminorm with penalty-weighted jump
terms over the face set of its variable: the displacement and compartment
pressures over interior-elastic plus their Dirichlet faces, the fluid
velocity over interior-fluid faces only, and the fluid pressure over
interior-fluid plus velocity-Dirichlet faces (the stabilization form S is
assembled over interior faces only; the norm deliberately measures the wider
set). Errors against an exact solution are evaluated at quadrature points
from closed-form exact values and derivatives.

Each term reads the stacked tabulations of :class:`~polympe.spaces.DGSpace`
through its table evaluators (one batched product per element group, or per
face set for a jump), with each exact field evaluated in one call on the
stacked points. Error jumps need the exact field on boundary faces
only: the exact fields are continuous, so their traces cancel on interior faces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import penalty_coefficients
from .mesh import FaceSet
from .params import PhysicalParams
from .spaces import DGSpace


def _volume_error(space, field, vec, exact, t, grad=False, exact_name=None):
    """Weights and (exact - discrete) values (nq, ncomp) or gradients (nq, ncomp,
    2) on the field's subdomain; the discrete field alone without ``exact``."""
    tab = space.volume_table(space.field_domain(field))
    coeffs = space.coeffs(field, vec)
    v = tab.grads(coeffs) if grad else tab.values(coeffs)
    if exact is not None:
        key = (exact_name or field) + (",grad" if grad else "")
        v = exact.exact(key, tab.points, t).reshape(v.shape) - v
    return tab.weights, v


def jump_sq(space: DGSpace, faces: FaceSet, fidxs, field: str, vec, penalty,
            exact=None, t: float = 0.0) -> float:
    """Sum over the faces ``fidxs`` of penalty * |jump|^2 of a field (or of
    its error against ``exact``); vector jumps in the symmetric tensor sense
    ([[v]]:[[v]] = (|j|^2 + (j.n)^2) / 2 with j the trace difference).

    ``penalty`` maps the harmonic diameters (F,) of the faces to per-face
    weights, e.g. ``lambda h: penalty_coefficients(h, params, m).eta``.
    """
    if not len(fidxs):
        return 0.0
    tab = space.face_table(faces, fidxs)
    j = tab.jump(space.coeffs(field, vec))  # (F, nq, ncomp)
    if exact is not None and tab.boundary.any():
        # minus the error jump; interior faces carry no exact term
        b = tab.boundary
        j[b] -= exact.exact(field, tab.points[b].reshape(-1, 2), t).reshape(-1, *j.shape[1:])
    jj = (j * j).sum(axis=2)
    if j.shape[2] == 2:
        jj = 0.5 * (jj + (j * tab.normal[:, None, :]).sum(axis=2) ** 2)
    return float(np.sum(penalty(tab.harmonic_h)[:, None] * tab.weights * jj))


def broken_norms(space: DGSpace, faces: FaceSet, params: PhysicalParams, state: dict,
                 exact=None, t: float = 0.0) -> dict:
    """Squared broken norms of a state (or of its error against ``exact``).

    ``state`` maps field names to field-local DOF vectors. Returns a dict
    with keys ``d``, ``p:<j>``, ``u``, ``p`` holding the squared norms.
    """
    def pen(h):
        return penalty_coefficients(h, params, space.m)

    out = {}
    w, g = _volume_error(space, "d", state["d"], exact, t, grad=True)
    eps = 0.5 * (g + g.transpose(0, 2, 1))
    tr = eps[:, 0, 0] + eps[:, 1, 1]
    out["d"] = float(np.sum(w * (2 * params.mu_el * (eps * eps).sum(axis=(1, 2))
                                 + params.lam * tr * tr)))
    out["d"] += jump_sq(space, faces, faces.sipg_faces("d"), "d", state["d"],
                        lambda h: pen(h).eta, exact, t)

    for j in params.compartments:
        name = f"p:{j}"
        kappa = params.kappa(j)
        w, g = _volume_error(space, name, state[name], exact, t, grad=True)
        out[name] = kappa * float(np.sum(w * (g * g).sum(axis=(1, 2))))
        out[name] += jump_sq(space, faces, faces.sipg_faces(name), name, state[name],
                             lambda h, j=j: pen(h).zeta[j], exact, t)

    w, g = _volume_error(space, "u", state["u"], exact, t, grad=True)
    eps = 0.5 * (g + g.transpose(0, 2, 1))
    out["u"] = float(np.sum(w * 2 * params.mu_f * (eps * eps).sum(axis=(1, 2))))
    out["u"] += jump_sq(space, faces, faces.interior_f, "u", state["u"],
                        lambda h: pen(h).gamma_v, exact, t)

    out["p"] = weighted_l2sq(space, "p", state["p"], 1.0, exact, t=t)
    out["p"] += jump_sq(space, faces, faces.sipg_faces("u"), "p", state["p"],
                        lambda h: pen(h).gamma_p, exact, t)
    return out


def weighted_l2sq(space: DGSpace, field: str, vec, coeff: float,
                  exact=None, exact_name=None, t: float = 0.0) -> float:
    """coeff * ||field (error)||_{L2}^2 over the field's subdomain."""
    w, v = _volume_error(space, field, vec, exact, t, exact_name=exact_name)
    return coeff * float(np.sum(w * (v * v).sum(axis=1)))


@dataclass
class EnergyBreakdown:
    instantaneous: dict
    integrand: list
    times: list
    #: squared broken norms of the final state, as :func:`broken_norms` gives them
    final: dict

    @property
    def integral(self) -> float:
        if len(self.times) <= 1:
            # steady convention: constant integrand over a unit time window
            return self.integrand[-1] if self.integrand else 0.0
        return float(np.trapezoid(self.integrand, self.times))

    @property
    def total(self) -> float:
        return float(np.sqrt(sum(self.instantaneous.values()) + self.integral))


def energy_norm(states: list, times: list, space: DGSpace, faces: FaceSet,
                params: PhysicalParams, exact=None) -> EnergyBreakdown:
    """Energy norm of a trajectory (or of its error against ``exact``).

    Instantaneous terms are evaluated at the final state: elastic kinetic
    energy through the velocity surrogate stored under key ``"z"``, the
    displacement broken norm, compartment storage, and fluid kinetic energy.
    The dissipation terms (pressure and fluid broken norms, external
    transfer) are accumulated in time by the composite trapezoidal rule; a
    single-state trajectory uses the steady convention of a unit window.
    """
    if not states:
        raise ValueError("empty trajectory")
    integrand = []
    for state, t in zip(states, times):
        bn = broken_norms(space, faces, params, state, exact=exact, t=t)
        l2 = {j: weighted_l2sq(space, f"p:{j}", state[f"p:{j}"], 1.0, exact, t=t)
              for j in params.compartments}
        term = bn["u"] + bn["p"]
        for j in params.compartments:
            term += bn[f"p:{j}"]
            term += params.beta_ext[j] * l2[j]
        integrand.append(term)

    # bn and l2 now hold the final state's terms
    last, t_last = states[-1], times[-1]
    inst = {"d": bn["d"]}
    if "z" in last:
        # the Newmark velocity is the discrete surrogate of d-dot
        inst["z"] = weighted_l2sq(space, "d", last["z"], params.rho_el, exact,
                                  exact_name="d,t", t=t_last)
    for j in params.compartments:
        inst[f"p:{j}"] = params.c_j[j] * l2[j]
    inst["u"] = weighted_l2sq(space, "u", last["u"], params.rho_f, exact, t=t_last)
    return EnergyBreakdown(instantaneous=inst, integrand=integrand,
                           times=list(times[:len(states)]), final=bn)


#: errors at or below this floor are treated as saturated, not rated
SATURATION_FLOOR = 1e-13


def convergence_rates(errors, hs):
    """Observed rates log(e_i/e_{i+1}) / log(h_i/h_{i+1}) between consecutive
    meshes; ``None`` marks saturated pairs."""
    errors, hs = list(errors), list(hs)
    if len(errors) < 2:
        raise ValueError("need at least two entries")
    if any(h2 >= h1 for h1, h2 in zip(hs, hs[1:])):
        raise ValueError("mesh sizes must be strictly decreasing")
    rates = []
    for e1, e2, h1, h2 in zip(errors, errors[1:], hs, hs[1:]):
        if e1 <= SATURATION_FLOOR or e2 <= SATURATION_FLOOR:
            rates.append(None)
        else:
            rates.append(float(np.log(e1 / e2) / np.log(h1 / h2)))
    return rates

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
The terms take a stack of states, evaluated as the components of one field
against the exact fields at all their times in one call per key, so that
:func:`energy_norm` covers a trajectory in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import penalty_coefficients
from .mesh import FaceSet
from .params import PhysicalParams
from .spaces import DGSpace


def _stacked(space: DGSpace, field: str, vecs) -> np.ndarray:
    """The coefficients (n_elem, S * ncomp, n_loc) of the field-local
    vectors ``vecs`` (S, n): the states' components follow one another, so
    one evaluation of the field covers every state."""
    S, ncomp = len(vecs), space.components(field)
    c = np.asarray(vecs, dtype=float).reshape(S, -1, ncomp, space.n_loc)
    return c.transpose(1, 0, 2, 3).reshape(c.shape[1], S * ncomp, space.n_loc)


def _states_first(v: np.ndarray, axis: int, n_states: int) -> np.ndarray:
    """A view of ``v`` with its stacked axis ``axis`` (S * ncomp) split into
    states and components, the states moved first."""
    v = v.reshape(v.shape[:axis] + (n_states, v.shape[axis] // n_states) + v.shape[axis + 1:])
    return np.moveaxis(v, axis, 0)


def _sum_sq(v: np.ndarray, axes: int = 1) -> np.ndarray:
    """The sum of squares over the trailing ``axes`` axes of ``v``, added
    in the order numpy's sum over those axes adds them (entry by entry), one
    component at a time: numpy's own reduction over short axes is slow."""
    lead = v.shape[:v.ndim - axes]
    flat = v.reshape(lead + (int(np.prod(v.shape[len(lead):])),))
    out = flat[..., 0] * flat[..., 0]
    for k in range(1, flat.shape[-1]):
        out += flat[..., k] * flat[..., k]
    return out


def _strain_sq(g: np.ndarray):
    """eps : eps and tr eps (...) of the gradients g (..., 2, 2), with
    eps = (g + g^T) / 2, added as :func:`_sum_sq` adds them. The diagonal of
    eps is that of g to the bit, since (x + x) / 2 = x."""
    g00, g11 = g[..., 0, 0], g[..., 1, 1]
    e01 = 0.5 * (g[..., 0, 1] + g[..., 1, 0])
    e01 *= e01
    return g00 * g00 + e01 + e01 + g11 * g11, g00 + g11


def _volume_error(space, field, vecs, exact, t, grad=False, exact_name=None):
    """Weights and (exact - discrete) values (S, nq, ncomp) or gradients
    (S, nq, ncomp, 2) on the field's subdomain, the discrete field alone
    without ``exact``, of the field-local vectors ``vecs`` (S, n) at the
    times ``t`` (S,); a scalar ``t`` is one time for a single state, at
    which ``exact`` rounds as it always has."""
    tab = space.volume_table(space.field_domain(field))
    coeffs = _stacked(space, field, vecs)
    v = _states_first(tab.grads(coeffs) if grad else tab.values(coeffs), 1, len(vecs))
    if exact is None:
        return tab.weights, np.ascontiguousarray(v)
    key = (exact_name or field) + (",grad" if grad else "")
    e = exact.exact(key, tab.points, t).reshape(-1, *v.shape[1:])
    e -= v
    return tab.weights, e


def _l2sq(space, field, vecs, exact, t, exact_name=None) -> np.ndarray:
    """||field (error)||_{L2}^2 (S,) of each state, as :func:`_volume_error`
    reads them."""
    w, v = _volume_error(space, field, vecs, exact, t, exact_name=exact_name)
    return np.sum(w * _sum_sq(v), axis=-1)


def _jump_sq(space, faces, fidxs, field, vecs, penalty, exact, t) -> np.ndarray:
    """:func:`jump_sq` (S,) of each state, as :func:`_volume_error` reads
    them."""
    if not len(fidxs):
        return np.zeros(len(vecs))
    tab = space.face_table(faces, fidxs)
    # (S, F, nq, ncomp)
    j = np.ascontiguousarray(_states_first(tab.jump(_stacked(space, field, vecs)), 2, len(vecs)))
    if exact is not None and tab.boundary.any():
        # minus the error jump; interior faces carry no exact term
        b = tab.boundary
        j[:, b] -= exact.exact(field, tab.points[b].reshape(-1, 2), t).reshape(
            -1, int(b.sum()), *j.shape[2:])
    jj = (j * j).sum(axis=-1)
    if j.shape[-1] == 2:
        jj = 0.5 * (jj + (j * tab.normal[:, None, :]).sum(axis=-1) ** 2)
    return np.sum(penalty(tab.harmonic_h)[:, None] * tab.weights * jj, axis=(-2, -1))


def jump_sq(space: DGSpace, faces: FaceSet, fidxs, field: str, vec, penalty,
            exact=None, t: float = 0.0) -> float:
    """Sum over the faces ``fidxs`` of penalty * |jump|^2 of a field (or of
    its error against ``exact``); vector jumps in the symmetric tensor sense
    ([[v]]:[[v]] = (|j|^2 + (j.n)^2) / 2 with j the trace difference).

    ``penalty`` maps the harmonic diameters (F,) of the faces to per-face
    weights, e.g. ``lambda h: penalty_coefficients(h, params, m).eta``.
    """
    return float(_jump_sq(space, faces, fidxs, field, [vec], penalty, exact, t)[0])


def _broken_sq(space, faces, params, field, vecs, exact, t) -> np.ndarray:
    """The squared broken norm (S,) of ``field`` (or of its error against
    ``exact``) of each state, as :func:`_volume_error` reads them."""
    def pen(h):
        return penalty_coefficients(h, params, space.m)

    if field == "p":
        return _l2sq(space, "p", vecs, exact, t) + _jump_sq(
            space, faces, faces.sipg_faces("u"), "p", vecs, lambda h: pen(h).gamma_p, exact, t)
    w, g = _volume_error(space, field, vecs, exact, t, grad=True)
    if field == "d":
        ee, tr = _strain_sq(g)
        vol = np.sum(w * (2 * params.mu_el * ee + params.lam * tr * tr), axis=-1)
        fidxs, penalty = faces.sipg_faces("d"), lambda h: pen(h).eta
    elif field == "u":
        vol = np.sum(w * 2 * params.mu_f * _strain_sq(g)[0], axis=-1)
        fidxs, penalty = faces.interior_f, lambda h: pen(h).gamma_v
    else:
        j = field.partition(":")[2]
        vol = params.kappa(j) * np.sum(w * _sum_sq(g, 2), axis=-1)
        fidxs, penalty = faces.sipg_faces(field), lambda h: pen(h).zeta[j]
    return vol + _jump_sq(space, faces, fidxs, field, vecs, penalty, exact, t)


def broken_norms(space: DGSpace, faces: FaceSet, params: PhysicalParams, state: dict,
                 exact=None, t: float = 0.0) -> dict:
    """Squared broken norms of a state (or of its error against ``exact``).

    ``state`` maps field names to field-local DOF vectors. Returns a dict
    with keys ``d``, ``p:<j>``, ``u``, ``p`` holding the squared norms.
    """
    return {f: float(_broken_sq(space, faces, params, f, [state[f]], exact, t)[0])
            for f in space.fields}


def weighted_l2sq(space: DGSpace, field: str, vec, coeff: float,
                  exact=None, exact_name=None, t: float = 0.0) -> float:
    """coeff * ||field (error)||_{L2}^2 over the field's subdomain."""
    return coeff * float(_l2sq(space, field, [vec], exact, t, exact_name)[0])


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
    """Energy norm of a trajectory (or of its error against ``exact``), its
    ``states`` recorded at the ``times``, one per state.

    Instantaneous terms are evaluated at the final state: elastic kinetic
    energy through the velocity surrogate stored under key ``"z"``, the
    displacement broken norm, compartment storage, and fluid kinetic energy.
    The dissipation terms (pressure and fluid broken norms, external
    transfer) are accumulated in time by the composite trapezoidal rule; a
    single-state trajectory uses the steady convention of a unit window.

    One pass evaluates each dissipation term at every state, the states
    stacked as components of one field and each exact key evaluated once at
    all the times; the instantaneous terms are evaluated at the final state
    alone, the compartment storage read off the transfer term's L2 norms.
    ``final`` is :func:`broken_norms` of the final state.
    """
    if not states:
        raise ValueError("empty trajectory")
    if len(times) != len(states):
        raise ValueError(f"{len(states)} states need as many times, got {len(times)}")
    times = list(times)
    ts = np.asarray(times, dtype=float)

    def stack(field):
        return np.stack([state[field] for state in states])

    integrand = (_broken_sq(space, faces, params, "u", stack("u"), exact, ts)
                 + _broken_sq(space, faces, params, "p", stack("p"), exact, ts))
    l2 = {}
    for j in params.compartments:
        vecs = stack(f"p:{j}")
        l2[j] = _l2sq(space, f"p:{j}", vecs, exact, ts)
        integrand = (integrand + _broken_sq(space, faces, params, f"p:{j}", vecs, exact, ts)
                     + params.beta_ext[j] * l2[j])

    last, t_last = states[-1], times[-1]
    final = broken_norms(space, faces, params, last, exact, t_last)
    inst = {"d": final["d"]}
    if "z" in last:
        # the Newmark velocity is the discrete surrogate of d-dot
        inst["z"] = weighted_l2sq(space, "d", last["z"], params.rho_el, exact,
                                  exact_name="d,t", t=t_last)
    for j in params.compartments:
        inst[f"p:{j}"] = params.c_j[j] * float(l2[j][-1])
    inst["u"] = weighted_l2sq(space, "u", last["u"], params.rho_f, exact, t=t_last)
    return EnergyBreakdown(instantaneous=inst, integrand=integrand.tolist(), times=times,
                           final=final)


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

"""Manufactured solutions for the coupled model on the split rectangle.

Geometry: elastic subdomain (-1, 0) x (0, 1), fluid subdomain (0, 1) x (0, 1),
interface at x = 0, outlet at x = 1. One exchange compartment, all physical
coefficients equal to one and Biot-Willis coefficient 1/2.

The displacement/velocity profiles share the factor
cos(pi x) cos(pi y) - sin(pi x) sin(pi y) = cos(pi (x + y)), which makes the
velocity divergence-free along the (1, -1) direction and lets all interface
conditions hold exactly. Both cases are separable: every field is a time
factor times a steady profile, and div d_s = div u_s = 0,
lap d_s = -2 pi^2 d_s, lap u_s = -2 pi^2 u_s, lap pE_s = -pi^2 pE_s. So each
volume source and the outlet datum is a short closed form, written once in
:data:`_KEYS` and evaluated in numpy (:meth:`ManufacturedCase.exact`) or in
mpmath (:func:`residual_oracle`). The tests check these closed forms against
a symbolic derivation from the strong equations, and the independent
finite-difference oracle validates the whole construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, NamedTuple

import numpy as np

from .params import EXCHANGE, InputError, PhysicalParams

_MARGIN = 0.02


class _Factors(NamedTuple):
    """The time factors of a case at one time, with their time derivatives:
    ``el`` scales d and p:E, ``u`` scales u and ``p`` scales p."""

    el: Any
    el_t: Any
    el_tt: Any
    u: Any
    u_t: Any
    p: Any
    p_t: Any


def _steady_factors(t, xp) -> _Factors:
    return _Factors(1, 0, 0, 1, 0, 1, 0)


def _unsteady_factors(eta, t, xp) -> _Factors:
    """g_el = cos(eta t) - sin(eta t), g_u = g_el - g_el' / eta = 2 cos(eta t)
    and g_p = (g_el + g_u) / 2."""
    c, s = xp.cos(eta * t), xp.sin(eta * t)
    return _Factors(el=c - s, el_t=-eta * (s + c), el_tt=-eta ** 2 * (c - s),
                    u=2 * c, u_t=-2 * eta * s, p=(3 * c - s) / 2, p_t=-eta * (3 * s + c) / 2)


# steady profiles at (x, y), Biot-Willis alpha ``al``, in the namespace ``xp``
# (numpy or mpmath); vector gradients are listed row by row (components, then
# x/y)

def _d_s(x, y, al, xp):
    v = xp.pi * (1 - al) * xp.cos(xp.pi * (x + y))
    return -v, v


def _d_s_grad(x, y, al, xp):
    v = xp.pi ** 2 * (1 - al) * xp.sin(xp.pi * (x + y))
    return v, v, -v, -v


def _pE_s(x, y, al, xp):
    return (-xp.pi * x * xp.cos(xp.pi * y) - 2 * xp.pi ** 2 * xp.sin(xp.pi * y),)


def _pE_s_grad(x, y, al, xp):
    cy, sy = xp.cos(xp.pi * y), xp.sin(xp.pi * y)
    return -xp.pi * cy, xp.pi ** 2 * x * sy - 2 * xp.pi ** 3 * cy


def _u_s(x, y, al, xp):
    v = xp.pi * xp.cos(xp.pi * (x + y))
    return v, -v


def _u_s_grad(x, y, al, xp):
    v = xp.pi ** 2 * xp.sin(xp.pi * (x + y))
    return -v, -v, v, v


def _p_s(x, y, al, xp):
    return (-x * xp.cos(xp.pi * y) - 4 * xp.pi ** 2 * xp.sin(xp.pi * y),)


def _p_s_grad(x, y, al, xp):
    cy, sy = xp.cos(xp.pi * y), xp.sin(xp.pi * y)
    return -cy, xp.pi * x * sy - 4 * xp.pi ** 3 * cy


# the sources of the strong equations (unit coefficients) and the outlet
# datum, given the time factors g

def _f_el(x, y, g, al, xp):
    """d_tt - div(2 eps(d) + div(d) I) + alpha grad pE
    = g_el'' d_s + g_el (2 pi^2 d_s + alpha grad pE_s)."""
    k = g.el_tt + 2 * xp.pi ** 2 * g.el
    (d0, d1), (q0, q1) = _d_s(x, y, al, xp), _pE_s_grad(x, y, al, xp)
    return k * d0 + al * g.el * q0, k * d1 + al * g.el * q1


def _g_E(x, y, g, al, xp):
    """pE_t + alpha div d_t - lap pE + pE = (g_el' + (1 + pi^2) g_el) pE_s."""
    (q,) = _pE_s(x, y, al, xp)
    return ((g.el_t + (1 + xp.pi ** 2) * g.el) * q,)


def _f_f(x, y, g, al, xp):
    """u_t - div(2 eps(u)) + grad p = g_u' u_s + 2 pi^2 g_u u_s + g_p grad p_s."""
    k = g.u_t + 2 * xp.pi ** 2 * g.u
    (u0, u1), (q0, q1) = _u_s(x, y, al, xp), _p_s_grad(x, y, al, xp)
    return k * u0 + g.p * q0, k * u1 + g.p * q1


def _p_out(x, y, g, al, xp):
    """The outlet datum pbar of (sigma_f - p I) n = -pbar n with n = (1, 0):
    -(2 du_x/dx - p) = 2 pi^2 g_u sin(pi (x + y)) + g_p p_s."""
    (q,) = _p_s(x, y, al, xp)
    return (2 * xp.pi ** 2 * g.u * xp.sin(xp.pi * (x + y)) + g.p * q,)


def _scaled(factor: str, profile):
    """The key whose value is the time factor ``factor`` times ``profile``."""
    def components(x, y, g, al, xp):
        s = getattr(g, factor)
        return tuple(s * c for c in profile(x, y, al, xp))
    return components


#: the volume sources and the outlet datum: the negative controls of
#: :func:`residual_oracle` sign-flip each in turn
SOURCES = ("f_el", "g:E", "f_f", "p_out")
#: the oracle's bounds: a case passes with every residual below ORACLE_TOL, a
#: negative control (at CONTROL_POINTS points in ``polympe verify``) with one
#: above CONTROL_FLOOR; the unsteady case at t = ORACLE_T
ORACLE_TOL, CONTROL_FLOOR, ORACLE_T, CONTROL_POINTS = 1e-4, 1e-1, 0.37, 10

#: key -> (components at (x, y) given the time factors and alpha, shape of one
#: value). Every field has its value, ``,t`` and ``,grad`` keys; the sources
#: and the outlet datum only their values, as no caller reads their
#: derivatives.
_KEYS: dict[str, tuple[Callable, tuple]] = {
    "f_el": (_f_el, (2,)), "g:E": (_g_E, ()), "f_f": (_f_f, (2,)), "p_out": (_p_out, ()),
}
for _name, _factor, _profile, _grad, _shape in (
        ("d", "el", _d_s, _d_s_grad, (2,)), ("p:E", "el", _pE_s, _pE_s_grad, ()),
        ("u", "u", _u_s, _u_s_grad, (2,)), ("p", "p", _p_s, _p_s_grad, ())):
    _KEYS[_name] = (_scaled(_factor, _profile), _shape)
    _KEYS[_name + ",t"] = (_scaled(_factor + "_t", _profile), _shape)
    _KEYS[_name + ",grad"] = (_scaled(_factor, _grad), _shape + (2,))


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact fields, derivatives, sources, and boundary data, all read by
    :meth:`exact`: the steady profiles scaled by the time factors
    ``factors(t, xp)``, with the keys named in ``negated`` sign-flipped.

    Scalar keys give (n,) arrays, vector ones (n, 2), gradients (n, 2) for
    scalars and (n, 2, 2) (rows: components, cols: x/y) for vectors.
    """

    name: str
    params: PhysicalParams
    factors: Callable
    negated: frozenset = frozenset()

    def _components(self, key: str, x, y, t, xp) -> tuple:
        """The components of ``key`` at (x, y) and time t, computed in the
        namespace ``xp`` (numpy or mpmath)."""
        comps = _KEYS[key][0](x, y, self.factors(t, xp), self.params.alpha_j[EXCHANGE], xp)
        if key.partition(",")[0] in self.negated:
            return tuple(-c for c in comps)
        return comps

    def exact(self, key: str, pts, t=0.0):
        """``key`` at the points ``pts`` (n, 2) and time ``t``, as a fresh
        array: a field (``d``, ``p:E``, ``u``, ``p``), optionally suffixed
        ``,t`` (time derivative) or ``,grad``, or a source (``f_el``,
        ``g:E``, ``f_f``) or the outlet datum ``p_out``. Any other key,
        a source derivative included, raises ``KeyError``.

        ``t`` may also be a 1-D array of S times, which gives (S, n, ...):
        the profiles are evaluated once and scaled by each time's factors.

        This is the load-data interface of
        :func:`polympe.forms.assemble_loads`."""
        shape = _KEYS[key][1]
        pts = np.asarray(pts, dtype=float)
        lead = np.shape(t)
        if len(lead) > 1:
            raise InputError(f"t must be a scalar or a 1-D array, got shape {lead}")
        if lead:
            # time factors (S, 1) against profiles (n,)
            t = np.asarray(t, dtype=float)[:, None]
        comps = self._components(key, pts[:, 0], pts[:, 1], t, np)
        out = np.empty(lead + (len(pts), len(comps)))
        for i, v in enumerate(comps):
            out[..., i] = v
        return out.reshape(*lead, len(pts), *shape)

    def corrupted(self, source: str) -> "ManufacturedCase":
        """Copy with one field, source or datum sign-flipped, its
        derivatives included (negative control)."""
        if source not in _KEYS or "," in source:
            raise KeyError(source)
        return replace(self, name=self.name + f"~{source}", negated=self.negated | {source})


def steady_case() -> ManufacturedCase:
    """Steady exact solution; time derivatives vanish identically."""
    return ManufacturedCase("steady", PhysicalParams.unit(), _steady_factors)


def unsteady_case() -> ManufacturedCase:
    """Separable time-dependent solution: the steady profiles scaled by time
    factors chosen so the interface conditions stay exact. The factor ratio
    eta_time = mu_el / (mu_f (1 - alpha)) is distinct from the penalty eta;
    the fluid-pressure factor averages the elastic and velocity ones."""
    params = PhysicalParams.unit()
    eta = 1 / (1 - params.alpha_j[EXCHANGE])
    return ManufacturedCase("unsteady", params, partial(_unsteady_factors, eta))


@dataclass
class ResidualReport:
    residuals: dict
    n_points: int
    t: float

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    def summary(self) -> str:
        lines = [f"strong-form residuals ({self.n_points} points, t={self.t}, "
                 f"central differences, step {_STEP:g}):"]
        for name, v in sorted(self.residuals.items()):
            lines.append(f"  {name}: {v:.3e}")
        lines.append(f"  max: {self.max_residual:.3e}")
        return "\n".join(lines)


#: the step of the oracle's central differences
_STEP = 1e-5
#: central differences: derivative -> ((steps in x, y, t, weight), ...) and
#: the power of the step they are divided by
_STENCILS = {
    "": (((0, 0, 0, 1),), 0),
    "x": (((1, 0, 0, 0.5), (-1, 0, 0, -0.5)), 1),
    "y": (((0, 1, 0, 0.5), (0, -1, 0, -0.5)), 1),
    "t": (((0, 0, 1, 0.5), (0, 0, -1, -0.5)), 1),
    "xx": (((1, 0, 0, 1), (0, 0, 0, -2), (-1, 0, 0, 1)), 2),
    "yy": (((0, 1, 0, 1), (0, 0, 0, -2), (0, -1, 0, 1)), 2),
    "tt": (((0, 0, 1, 1), (0, 0, 0, -2), (0, 0, -1, 1)), 2),
    "xy": (((1, 1, 0, 0.25), (1, -1, 0, -0.25), (-1, 1, 0, -0.25), (-1, -1, 0, 0.25)), 2),
    "tx": (((1, 0, 1, 0.25), (1, 0, -1, -0.25), (-1, 0, 1, -0.25), (-1, 0, -1, 0.25)), 2),
    "ty": (((0, 1, 1, 0.25), (0, 1, -1, -0.25), (0, -1, 1, -0.25), (0, -1, -1, 0.25)), 2),
}


def residual_oracle(case: ManufacturedCase, n_points: int = 100, t: float = 0.0) -> ResidualReport:
    """Validate the case against the strong equations with central finite
    differences of the exact fields (independent of the closed-form
    sources). Field values on the stencils are evaluated in extended
    precision so the second differences are truncation-limited. Checks the
    volume equations at ``n_points`` points per subdomain, the interface
    conditions at x = 0 and the outlet stress at x = 1 at ``n_points // 2``
    heights (at least one), all of one fixed draw; ``n_points`` >= 1.
    """
    if n_points < 1:
        raise InputError(f"n_points must be >= 1, got {n_points}")
    import mpmath as mp

    prm = case.params
    if tuple(prm.compartments) != ("E",):
        raise InputError("the residual oracle covers the single-compartment cases")

    rng = np.random.default_rng(0)
    n_el = n_f = n_points
    pts_el = np.column_stack([
        rng.uniform(-1 + _MARGIN, -_MARGIN, n_el), rng.uniform(_MARGIN, 1 - _MARGIN, n_el)])
    pts_f = np.column_stack([
        rng.uniform(_MARGIN, 1 - _MARGIN, n_f), rng.uniform(_MARGIN, 1 - _MARGIN, n_f)])
    ys_sigma = rng.uniform(_MARGIN, 1 - _MARGIN, max(n_points // 2, 1))

    with mp.workdps(30):
        h = mp.mpf(_STEP)
        tt = mp.mpf(t)

        def at(x, y):
            """``D(key, derivative)``: the central difference of every
            component of ``key`` at (x, y, t); each stencil point of each key
            is evaluated once."""
            x, y = mp.mpf(float(x)), mp.mpf(float(y))
            values = {}

            def value(key, i, j, k):
                if (key, i, j, k) not in values:
                    values[key, i, j, k] = case._components(
                        key, x + i * h, y + j * h, tt + k * h, mp)
                return values[key, i, j, k]

            def D(key, derivative=""):
                taps, power = _STENCILS[derivative]
                comps = zip(*(value(key, i, j, k) for i, j, k, _ in taps))
                return [sum(w * v for (*_, w), v in zip(taps, c)) / h ** power for c in comps]
            return D

        mu, lam = mp.mpf(prm.mu_el), mp.mpf(prm.lam)
        muf = mp.mpf(prm.mu_f)
        alpha = mp.mpf(prm.alpha_j["E"])
        kappa = mp.mpf(prm.k_j["E"] / prm.mu_j["E"])
        beta_e = mp.mpf(prm.beta_ext["E"])
        rho_el, rho_f, cE = mp.mpf(prm.rho_el), mp.mpf(prm.rho_f), mp.mpf(prm.c_j["E"])

        res: dict[str, float] = {}

        def track(name, value):
            res[name] = max(res.get(name, 0.0), abs(float(value)))

        for px, py in pts_el:
            D = at(px, py)
            dxx, dyy, dxy = D("d", "xx"), D("d", "yy"), D("d", "xy")
            dtt, dtx, dty = D("d", "tt"), D("d", "tx"), D("d", "ty")
            (pE,), (pEx,), (pEy,) = D("p:E"), D("p:E", "x"), D("p:E", "y")
            (pE_xx,), (pE_yy,), (pE_t,) = D("p:E", "xx"), D("p:E", "yy"), D("p:E", "t")
            f_el, (gE,) = D("f_el"), D("g:E")
            div_sigma_0 = (2 * mu + lam) * dxx[0] + mu * dyy[0] + (lam + mu) * dxy[1]
            div_sigma_1 = mu * dxx[1] + (2 * mu + lam) * dyy[1] + (lam + mu) * dxy[0]
            track("elastic momentum x", rho_el * dtt[0] - div_sigma_0 + alpha * pEx - f_el[0])
            track("elastic momentum y", rho_el * dtt[1] - div_sigma_1 + alpha * pEy - f_el[1])
            track("mass balance E",
                  cE * pE_t + alpha * (dtx[0] + dty[1]) - kappa * (pE_xx + pE_yy)
                  + beta_e * pE - gE)

        for px, py in pts_f:
            D = at(px, py)
            uxx, uyy, uxy = D("u", "xx"), D("u", "yy"), D("u", "xy")
            ut, ux, uy = D("u", "t"), D("u", "x"), D("u", "y")
            (px_,), (py_,), f_f = D("p", "x"), D("p", "y"), D("f_f")
            div_sf_0 = muf * (2 * uxx[0] + uyy[0] + uxy[1])
            div_sf_1 = muf * (uxx[1] + 2 * uyy[1] + uxy[0])
            track("fluid momentum x", rho_f * ut[0] - div_sf_0 + px_ - f_f[0])
            track("fluid momentum y", rho_f * ut[1] - div_sf_1 + py_ - f_f[1])
            track("incompressibility", ux[0] + uy[1])

        for py in ys_sigma:
            # interface at x = 0: n_el = (1, 0), n_f = (-1, 0)
            D = at(0.0, py)
            dx, dy, dt = D("d", "x"), D("d", "y"), D("d", "t")
            ux, uy, u = D("u", "x"), D("u", "y"), D("u")
            (pE,), (pEx,), (p,) = D("p:E"), D("p:E", "x"), D("p")
            sig_el_00 = (2 * mu + lam) * dx[0] + lam * dy[1]
            sig_el_10 = mu * (dy[0] + dx[1])
            sig_f_00 = 2 * muf * ux[0]
            sig_f_10 = muf * (uy[0] + ux[1])
            track("interface stress balance x", sig_el_00 - alpha * pE - sig_f_00 + p)
            track("interface stress balance y", sig_el_10 - sig_f_10)
            track("interface mass flux", -u[0] + dt[0] - kappa * pEx)
            track("interface normal stress", pE - p + sig_f_00)
            track("interface tangential stress", sig_f_10)

            # outlet at x = 1, n_f = (1, 0): (sigma_f - p I) n = -pbar n
            D = at(1.0, py)
            ux, uy = D("u", "x"), D("u", "y")
            (p,), (pbar,) = D("p"), D("p_out")
            track("outlet normal stress", 2 * muf * ux[0] - p + pbar)
            track("outlet tangential stress", muf * (uy[0] + ux[1]))

    return ResidualReport(residuals=res, n_points=n_points, t=t)

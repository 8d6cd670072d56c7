"""Manufactured solutions for the coupled model on the split rectangle.

Geometry: elastic subdomain (-1, 0) x (0, 1), fluid subdomain (0, 1) x (0, 1),
interface at x = 0, outlet at x = 1. One exchange compartment, all physical
coefficients equal to one and Biot-Willis coefficient 1/2 (configurable).

The displacement/velocity profiles share the factor
cos(pi x) cos(pi y) - sin(pi x) sin(pi y) = cos(pi (x + y)), which makes the
velocity divergence-free along the (1, -1) direction and lets all interface
conditions hold exactly. Volume sources, the outlet stress datum, and every
needed derivative are generated symbolically from the strong equations, so
transcription cannot drift from the fields; an independent finite-difference
oracle (:func:`residual_oracle`) validates the whole construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np
import sympy as sym

from .params import PhysicalParams

X, Y, T = sym.symbols("x y t", real=True)

_MARGIN = 0.02


def _grad(e):
    return sym.Matrix([e.diff(X), e.diff(Y)])


def _eps(v):
    g = sym.Matrix([[v[0].diff(X), v[0].diff(Y)], [v[1].diff(X), v[1].diff(Y)]])
    return (g + g.T) / 2


def _div_tensor(s):
    return sym.Matrix([s[0, 0].diff(X) + s[0, 1].diff(Y), s[1, 0].diff(X) + s[1, 1].diff(Y)])


def _strong_sources(d, pE, u, p, alpha):
    """Sources and outlet datum implied by the strong equations (unit
    coefficients, single exchange compartment)."""
    sigma_el = 2 * _eps(d) + (d[0].diff(X) + d[1].diff(Y)) * sym.eye(2)
    f_el = d.diff(T, 2) - _div_tensor(sigma_el) + alpha * _grad(pE)
    d_t = d.diff(T)
    g_E = pE.diff(T) + alpha * (d_t[0].diff(X) + d_t[1].diff(Y)) \
        - (pE.diff(X, 2) + pE.diff(Y, 2)) + pE
    sigma_f = 2 * _eps(u)
    f_f = u.diff(T) - _div_tensor(sigma_f) + _grad(p)
    # outlet stress at x = 1 with n_f = (1, 0): (sigma_f - p I) n = -pbar n
    p_out = -(2 * u[0].diff(X) - p)
    return f_el, g_E, f_f, p_out


def _steady_fields(alpha):
    phi = sym.cos(sym.pi * X) * sym.cos(sym.pi * Y) - sym.sin(sym.pi * X) * sym.sin(sym.pi * Y)
    d = sym.pi * (1 - alpha) * phi * sym.Matrix([-1, 1])
    pE = -sym.pi * X * sym.cos(sym.pi * Y) - 2 * sym.pi ** 2 * sym.sin(sym.pi * Y)
    u = sym.pi * phi * sym.Matrix([1, -1])
    p = -X * sym.cos(sym.pi * Y) - 4 * sym.pi ** 2 * sym.sin(sym.pi * Y)
    return d, pE, u, p


@dataclass
class ManufacturedCase:
    """Exact fields, derivatives, sources, and boundary data, all read by
    :meth:`exact` under their ``exprs`` keys.

    Scalar keys give (n,) arrays, vector ones (n, 2), gradients (n, 2) for
    scalars and (n, 2, 2) (rows: components, cols: x/y) for vectors.
    """

    name: str
    params: PhysicalParams
    exprs: dict
    _fns: dict = field(default_factory=dict, repr=False)

    def _fn(self, key: str):
        """The program of ``key`` (a field, ``<field>,t`` or ``<field>,grad``)
        and the shape of its value at one point. One CSE-compiled program
        returns every component of the key, so they share their common
        factors; it is lambdified on first read, as a run reads few keys."""
        if key not in self._fns:
            name, _, part = key.partition(",")
            if name.startswith("_") or part not in ("", "t", "grad"):
                raise KeyError(key)
            expr = self.exprs[name]
            comps, shape = (list(expr), (2,)) if isinstance(expr, sym.Matrix) else ([expr], ())
            if part == "grad":
                # vector gradients: rows components, columns x/y
                comps, shape = [c.diff(v) for c in comps for v in (X, Y)], shape + (2,)
            elif part:
                comps = [c.diff(T) for c in comps]
            self._fns[key] = sym.lambdify((X, Y, T), comps, "numpy", cse=True), shape
        return self._fns[key]

    def exact(self, key: str, pts, t=0.0):
        """``key`` at the points ``pts`` (n, 2) and time ``t``: an ``exprs``
        name, optionally suffixed ``,t`` (time derivative) or ``,grad``.

        This is the load-data interface of
        :func:`polympe.forms.assemble_loads`."""
        fn, shape = self._fn(key)
        pts = np.asarray(pts)
        out = np.empty((len(pts), int(np.prod(shape))))
        # a constant component comes back as a scalar and broadcasts
        for i, v in enumerate(fn(pts[:, 0], pts[:, 1], t)):
            out[:, i] = v
        return out.reshape(len(pts), *shape)

    def corrupted(self, source: str) -> "ManufacturedCase":
        """Copy with one source expression sign-flipped (negative control)."""
        exprs = dict(self.exprs)
        exprs[source] = -exprs[source]
        return ManufacturedCase(self.name + f"~{source}", self.params, exprs)


@cache
def _built(build, alpha) -> ManufacturedCase:
    """``build(alpha)``, built once per ``alpha``: every later call returns
    the same case, so its lambdified programs are shared too. Callers must
    not mutate it. The public factories stay plain functions, as perfbench's
    phase gates expect."""
    return build(alpha)


def steady_case(alpha=sym.Rational(1, 2)) -> ManufacturedCase:
    """Steady exact solution; time derivatives vanish identically. Built
    once per ``alpha`` (:func:`_built`)."""
    return _built(_steady_case, alpha)


def unsteady_case(alpha=sym.Rational(1, 2)) -> ManufacturedCase:
    """Separable time-dependent solution: the steady profiles scaled by time
    factors chosen so the interface conditions stay exact. The factor ratio
    eta_time = mu_el / (mu_f (1 - alpha)) is distinct from the penalty eta;
    the fluid-pressure factor averages the elastic and velocity ones. Built
    once per ``alpha`` (:func:`_built`)."""
    return _built(_unsteady_case, alpha)


def _steady_case(alpha) -> ManufacturedCase:
    alpha = sym.nsimplify(alpha)
    d, pE, u, p = _steady_fields(alpha)
    f_el, g_E, f_f, p_out = _strong_sources(d, pE, u, p, alpha)
    return ManufacturedCase(
        name="steady",
        params=PhysicalParams.unit(alpha=float(alpha)),
        exprs={"d": d, "p:E": pE, "u": u, "p": p,
               "f_el": f_el, "g:E": g_E, "f_f": f_f, "p_out": p_out},
    )


def _unsteady_case(alpha) -> ManufacturedCase:
    alpha = sym.nsimplify(alpha)
    eta_time = 1 / (1 - alpha)
    g_el = sym.cos(eta_time * T) - sym.sin(eta_time * T)
    g_u = g_el - g_el.diff(T) / eta_time
    g_p = (g_el + g_u) / 2
    ds, pEs, us, ps = _steady_fields(alpha)
    d, pE, u, p = g_el * ds, g_el * pEs, g_u * us, g_p * ps
    f_el, g_E, f_f, p_out = _strong_sources(d, pE, u, p, alpha)
    return ManufacturedCase(
        name="unsteady",
        params=PhysicalParams.unit(alpha=float(alpha)),
        exprs={"d": d, "p:E": pE, "u": u, "p": p,
               "f_el": f_el, "g:E": g_E, "f_f": f_f, "p_out": p_out,
               "_g_el": g_el, "_g_u": g_u, "_g_p": g_p, "_eta_time": eta_time},
    )


@dataclass
class ResidualReport:
    residuals: dict
    n_points: int
    t: float
    step: float

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    def summary(self) -> str:
        lines = [f"strong-form residuals ({self.n_points} points, t={self.t}, "
                 f"central differences, step {self.step:g}):"]
        for name, v in sorted(self.residuals.items()):
            lines.append(f"  {name}: {v:.3e}")
        lines.append(f"  max: {self.max_residual:.3e}")
        return "\n".join(lines)


def residual_oracle(case: ManufacturedCase, n_points: int = 100, t: float = 0.0,
                    step: float = 1e-5, seed: int = 0) -> ResidualReport:
    """Validate the case against the strong equations with central finite
    differences of the exact fields (independent of the symbolic source
    derivation). Field values on the stencils are evaluated in extended
    precision so the second differences are truncation-limited.
    ``n_points`` must be at least 1.
    """
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    import mpmath as mp

    prm = case.params
    if tuple(prm.compartments) != ("E",):
        raise ValueError("the residual oracle covers the single-compartment cases")

    fns = {}
    for key in ("d", "p:E", "u", "p", "f_el", "g:E", "f_f"):
        expr = case.exprs[key]
        if isinstance(expr, sym.Matrix):
            fns[key] = [sym.lambdify((X, Y, T), expr[i], "mpmath") for i in (0, 1)]
        else:
            fns[key] = sym.lambdify((X, Y, T), expr, "mpmath")

    rng = np.random.default_rng(seed)
    n_el = n_f = n_points
    pts_el = np.column_stack([
        rng.uniform(-1 + _MARGIN, -_MARGIN, n_el), rng.uniform(_MARGIN, 1 - _MARGIN, n_el)])
    pts_f = np.column_stack([
        rng.uniform(_MARGIN, 1 - _MARGIN, n_f), rng.uniform(_MARGIN, 1 - _MARGIN, n_f)])
    ys_sigma = rng.uniform(_MARGIN, 1 - _MARGIN, max(n_points // 2, 50))

    with mp.workdps(30):
        h = mp.mpf(step)
        tt = mp.mpf(t)

        def dx(f, x, y):
            return (f(x + h, y, tt) - f(x - h, y, tt)) / (2 * h)

        def dy(f, x, y):
            return (f(x, y + h, tt) - f(x, y - h, tt)) / (2 * h)

        def dxx(f, x, y):
            return (f(x + h, y, tt) - 2 * f(x, y, tt) + f(x - h, y, tt)) / h ** 2

        def dyy(f, x, y):
            return (f(x, y + h, tt) - 2 * f(x, y, tt) + f(x, y - h, tt)) / h ** 2

        def dxy(f, x, y):
            return (f(x + h, y + h, tt) - f(x + h, y - h, tt)
                    - f(x - h, y + h, tt) + f(x - h, y - h, tt)) / (4 * h ** 2)

        def dt(f, x, y):
            return (f(x, y, tt + h) - f(x, y, tt - h)) / (2 * h)

        def dtt(f, x, y):
            return (f(x, y, tt + h) - 2 * f(x, y, tt) + f(x, y, tt - h)) / h ** 2

        def dt_then_dx(f, x, y):
            return ((f(x + h, y, tt + h) - f(x + h, y, tt - h))
                    - (f(x - h, y, tt + h) - f(x - h, y, tt - h))) / (4 * h * h)

        def dt_then_dy(f, x, y):
            return ((f(x, y + h, tt + h) - f(x, y + h, tt - h))
                    - (f(x, y - h, tt + h) - f(x, y - h, tt - h))) / (4 * h * h)

        mu, lam = mp.mpf(prm.mu_el), mp.mpf(prm.lam)
        muf = mp.mpf(prm.mu_f)
        alpha = mp.mpf(prm.alpha_j["E"])
        kappa = mp.mpf(prm.k_j["E"] / prm.mu_j["E"])
        beta_e = mp.mpf(prm.beta_ext["E"])
        rho_el, rho_f, cE = mp.mpf(prm.rho_el), mp.mpf(prm.rho_f), mp.mpf(prm.c_j["E"])

        d0, d1 = fns["d"]
        u0, u1 = fns["u"]
        pE, p = fns["p:E"], fns["p"]
        fel0, fel1 = fns["f_el"]
        ff0, ff1 = fns["f_f"]
        gE = fns["g:E"]

        res: dict[str, float] = {}

        def track(name, value):
            res[name] = max(res.get(name, 0.0), abs(float(value)))

        for px, py in pts_el:
            x, y = mp.mpf(float(px)), mp.mpf(float(py))
            div_sigma_0 = (2 * mu + lam) * dxx(d0, x, y) + mu * dyy(d0, x, y) \
                + (lam + mu) * dxy(d1, x, y)
            div_sigma_1 = mu * dxx(d1, x, y) + (2 * mu + lam) * dyy(d1, x, y) \
                + (lam + mu) * dxy(d0, x, y)
            track("elastic momentum x",
                  rho_el * dtt(d0, x, y) - div_sigma_0 + alpha * dx(pE, x, y) - fel0(x, y, tt))
            track("elastic momentum y",
                  rho_el * dtt(d1, x, y) - div_sigma_1 + alpha * dy(pE, x, y) - fel1(x, y, tt))
            track("mass balance E",
                  cE * dt(pE, x, y) + alpha * (dt_then_dx(d0, x, y) + dt_then_dy(d1, x, y))
                  - kappa * (dxx(pE, x, y) + dyy(pE, x, y)) + beta_e * pE(x, y, tt)
                  - gE(x, y, tt))

        for px, py in pts_f:
            x, y = mp.mpf(float(px)), mp.mpf(float(py))
            div_sf_0 = muf * (2 * dxx(u0, x, y) + dyy(u0, x, y) + dxy(u1, x, y))
            div_sf_1 = muf * (dxx(u1, x, y) + 2 * dyy(u1, x, y) + dxy(u0, x, y))
            track("fluid momentum x",
                  rho_f * dt(u0, x, y) - div_sf_0 + dx(p, x, y) - ff0(x, y, tt))
            track("fluid momentum y",
                  rho_f * dt(u1, x, y) - div_sf_1 + dy(p, x, y) - ff1(x, y, tt))
            track("incompressibility", dx(u0, x, y) + dy(u1, x, y))

        for py in ys_sigma:
            x, y = mp.mpf(0), mp.mpf(float(py))
            # n_el = (1, 0), n_f = (-1, 0)
            sig_el_00 = (2 * mu + lam) * dx(d0, x, y) + lam * dy(d1, x, y)
            sig_el_10 = mu * (dy(d0, x, y) + dx(d1, x, y))
            sig_f_00 = 2 * muf * dx(u0, x, y)
            sig_f_10 = muf * (dy(u0, x, y) + dx(u1, x, y))
            track("interface stress balance x",
                  sig_el_00 - alpha * pE(x, y, tt) - sig_f_00 + p(x, y, tt))
            track("interface stress balance y", sig_el_10 - sig_f_10)
            track("interface mass flux",
                  -u0(x, y, tt) + dt(d0, x, y) - kappa * dx(pE, x, y))
            track("interface normal stress",
                  pE(x, y, tt) - p(x, y, tt) + sig_f_00)
            track("interface tangential stress", sig_f_10)

    return ResidualReport(residuals=res, n_points=n_points, t=t, step=step)

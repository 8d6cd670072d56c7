"""The symbolic derivation of the manufactured cases: fields written in
sympy, their sources and outlet datum derived from the strong equations, and
each key evaluated by one plain ``lambdify`` per component and derivative.
It is the reference the closed forms of :mod:`polympe.manufactured` are
checked against, and it builds the polynomial patch cases of the form tests.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import sympy as sym

from polympe.params import PhysicalParams

X, Y, T = sym.symbols("x y t", real=True)


def _grad(e):
    return sym.Matrix([e.diff(X), e.diff(Y)])


def _eps(v):
    g = sym.Matrix([[v[0].diff(X), v[0].diff(Y)], [v[1].diff(X), v[1].diff(Y)]])
    return (g + g.T) / 2


def _div_tensor(s):
    return sym.Matrix([s[0, 0].diff(X) + s[0, 1].diff(Y), s[1, 0].diff(X) + s[1, 1].diff(Y)])


def strong_sources(d, pE, u, p, alpha):
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


def steady_fields(alpha):
    phi = sym.cos(sym.pi * X) * sym.cos(sym.pi * Y) - sym.sin(sym.pi * X) * sym.sin(sym.pi * Y)
    d = sym.pi * (1 - alpha) * phi * sym.Matrix([-1, 1])
    pE = -sym.pi * X * sym.cos(sym.pi * Y) - 2 * sym.pi ** 2 * sym.sin(sym.pi * Y)
    u = sym.pi * phi * sym.Matrix([1, -1])
    p = -X * sym.cos(sym.pi * Y) - 4 * sym.pi ** 2 * sym.sin(sym.pi * Y)
    return d, pE, u, p


def unsteady_factors(alpha):
    """The time factors g_el, g_u, g_p of the unsteady case and its ratio
    eta_time = 1 / (1 - alpha) (unit coefficients)."""
    eta_time = 1 / (1 - alpha)
    g_el = sym.cos(eta_time * T) - sym.sin(eta_time * T)
    g_u = g_el - g_el.diff(T) / eta_time
    return g_el, g_u, (g_el + g_u) / 2, eta_time


class SymbolicCase:
    """A case given by sympy expressions of x, y and t under the field and
    source names of :class:`polympe.manufactured.ManufacturedCase`, read
    through the same ``exact(key, pts, t)``."""

    def __init__(self, name, params, exprs):
        self.name, self.params, self.exprs = name, params, exprs
        self._fns = {}

    @classmethod
    def from_fields(cls, name, alpha, d, pE, u, p):
        """The case of the given fields, with the sources and outlet datum of
        :func:`strong_sources`."""
        f_el, g_E, f_f, p_out = strong_sources(d, pE, u, p, alpha)
        params = replace(PhysicalParams.unit(), alpha_j={"E": float(alpha)})
        return cls(name, params,
                   {"d": d, "p:E": pE, "u": u, "p": p,
                    "f_el": f_el, "g:E": g_E, "f_f": f_f, "p_out": p_out})

    def _lambdified(self, key):
        if key not in self._fns:
            name, _, part = key.partition(",")
            expr = self.exprs[name]
            comps = list(expr) if isinstance(expr, sym.Matrix) else [expr]
            if part == "grad":
                comps = [[c.diff(v) for v in (X, Y)] for c in comps]
            else:
                comps = [[c.diff(T) if part else c] for c in comps]
            fns = [[sym.lambdify((X, Y, T), e, "numpy") for e in row] for row in comps]
            self._fns[key] = fns, isinstance(expr, sym.Matrix), part == "grad"
        return self._fns[key]

    def exact(self, key, pts, t=0.0):
        fns, vector, grad = self._lambdified(key)
        pts = np.asarray(pts, dtype=float)

        def lam(f):
            return np.broadcast_to(np.asarray(f(pts[:, 0], pts[:, 1], t), dtype=float), len(pts))

        # (n, components, derivatives), then the axes a scalar or value lacks
        out = np.stack([np.stack([lam(f) for f in row], axis=1) for row in fns], axis=1)
        out = out if grad else out[..., 0]
        return out if vector else out[:, 0]

    def corrupted(self, source):
        exprs = dict(self.exprs)
        exprs[source] = -exprs[source]
        return SymbolicCase(self.name + f"~{source}", self.params, exprs)


def steady_reference(alpha=sym.Rational(1, 2)) -> SymbolicCase:
    return SymbolicCase.from_fields("steady", alpha, *steady_fields(alpha))


def unsteady_reference(alpha=sym.Rational(1, 2)) -> SymbolicCase:
    g_el, g_u, g_p, _ = unsteady_factors(alpha)
    d, pE, u, p = steady_fields(alpha)
    return SymbolicCase.from_fields("unsteady", alpha, g_el * d, g_el * pE, g_u * u, g_p * p)

"""Built-in mesh families on the two-domain verification geometry.

The geometry is the rectangle (-1, 1) x (0, 1) split at x = 0: elastic on
the left, fluid on the right, interface at x = 0. Boundary labels:

* ``"el"``   -- outer boundary of the elastic subdomain
* ``"wall"`` -- top/bottom of the fluid subdomain
* ``"out"``  -- right edge x = 1 (outlet)
"""

from __future__ import annotations

import numpy as np

from .mesh import ELASTIC, FLUID, PolyMesh

#: Dirichlet maps used by the verification cases (manufactured traces on all
#: walls, natural outlet) and by the synthetic demo (clamped tissue, no-slip
#: fluid walls, zero-flux pressure).
VERIFICATION_DIRICHLET = {"el": {"d", "p:E"}, "wall": {"u"}, "out": set()}
DEMO_DIRICHLET = {"el": {"d"}, "wall": {"u"}, "out": set()}


def cartesian_two_domain(ny: int, nx: int | None = None) -> PolyMesh:
    """Uniform quadrilateral grid split at x = 0; ``nx`` defaults to ``2 ny``."""
    if ny < 1:
        raise ValueError("ny must be >= 1")
    nx = 2 * ny if nx is None else nx
    if nx < 2 or nx % 2:
        raise ValueError(f"nx must be even and >= 2, so the grid is aligned with x = 0; got {nx}")
    xs = np.linspace(-1.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    vid = lambda i, j: j * (nx + 1) + i
    vertices = [(x, y) for y in ys for x in xs]
    elements, domains = [], []
    for j in range(ny):
        for i in range(nx):
            elements.append([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)])
            domains.append(ELASTIC if 0.5 * (xs[i] + xs[i + 1]) < 0.0 else FLUID)
    labels = _boundary_labels(np.asarray(vertices), elements)
    return PolyMesh(vertices, elements, domains, labels)


def triangulated_two_domain(ny: int, nx_el: int | None = None, nx_f: int | None = None,
                            jitter: float = 0.0, seed: int = 0) -> PolyMesh:
    """Structured right-triangle mesh, built per subdomain with a shared
    vertex layout on the interface (``ny`` rows on both sides).

    ``jitter`` displaces strictly interior vertices by up to that fraction
    of the local grid spacing (deterministic for a fixed seed); boundary and
    interface vertices stay exact, so the geometry and the interface line
    are preserved. ``ny``, ``nx_el`` and ``nx_f`` must be at least 1, and
    ``jitter`` in [0, 1/2): below half the spacing each vertex stays in its
    own half cell, so no two vertices can meet.
    """
    nx_el = ny if nx_el is None else nx_el
    nx_f = ny if nx_f is None else nx_f
    for name, n in (("ny", ny), ("nx_el", nx_el), ("nx_f", nx_f)):
        if n < 1:
            raise ValueError(f"{name} must be >= 1, got {n}")
    if not jitter >= 0.0:
        raise ValueError(f"jitter must be >= 0, got {jitter}")
    if not jitter < 0.5:
        raise ValueError(f"jitter must be < 0.5, got {jitter}")

    # integer grid keys j * ncol + c over the columns of both grids; column
    # nx_el is the interface, shared by the two subdomains
    xs = np.concatenate([np.linspace(-1.0, 0.0, nx_el + 1), np.linspace(0.0, 1.0, nx_f + 1)[1:]])
    ys = np.linspace(0.0, 1.0, ny + 1)
    ncol = len(xs)

    def cells(c0, nx):
        j, i = np.divmod(np.arange(ny * nx), nx)
        v00 = j * ncol + c0 + i
        v10, v01 = v00 + 1, v00 + ncol
        return np.stack([v00, v10, v10 + ncol, v00, v10 + ncol, v01], axis=1).reshape(-1, 3)

    keys = np.concatenate([cells(0, nx_el), cells(nx_el, nx_f)])
    # vertices numbered in order of first appearance, coordinates rounded
    # to 12 decimals as Python's round does
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(by_first))
    elements = rank[inverse].reshape(keys.shape)
    row, col = np.divmod(uniq[by_first], ncol)
    round12 = lambda v: np.array([round(x, 12) for x in v.tolist()])
    verts = np.stack([round12(xs)[col], round12(ys)[row]], axis=1)
    n_el = 2 * ny * nx_el
    domains = [ELASTIC] * n_el + [FLUID] * (len(elements) - n_el)
    if jitter > 0.0:
        rng = np.random.default_rng(seed)
        shifts = rng.uniform(-jitter, jitter, verts.shape)
        hx = np.where(verts[:, 0] < 0.0, 1.0 / nx_el, 1.0 / nx_f)
        interior = (~np.isclose(verts[:, 0], -1.0) & ~np.isclose(verts[:, 0], 0.0)
                    & ~np.isclose(verts[:, 0], 1.0) & ~np.isclose(verts[:, 1], 0.0)
                    & ~np.isclose(verts[:, 1], 1.0))
        verts[interior, 0] += shifts[interior, 0] * hx[interior]
        verts[interior, 1] += shifts[interior, 1] / ny
    labels = _boundary_labels(verts, elements)
    return PolyMesh(verts, elements, domains, labels)


def _boundary_labels(vertices, elements):
    """Labels of the edges of equal-length element loops that belong to one
    element only, in order of first appearance."""
    loops = np.asarray(elements)
    a, b = loops.ravel(), np.roll(loops, -1, axis=1).ravel()
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    _, first, counts = np.unique(lo * len(vertices) + hi, return_index=True, return_counts=True)
    edge = np.sort(first[counts == 1])
    lo, hi = lo[edge], hi[edge]
    xm = 0.5 * (vertices[lo, 0] + vertices[hi, 0])
    ym = 0.5 * (vertices[lo, 1] + vertices[hi, 1])
    on_horiz = np.isclose(ym, 0.0) | np.isclose(ym, 1.0)
    labels = np.select([np.isclose(xm, 1.0), np.isclose(xm, -1.0), on_horiz & (xm < 0.0), on_horiz],
                       ["out", "el", "el", "wall"], "").tolist()
    keys = list(zip(lo.tolist(), hi.tolist()))
    if "" in labels:
        raise ValueError(f"boundary edge {keys[labels.index('')]} off the reference geometry")
    return dict(zip(keys, labels))

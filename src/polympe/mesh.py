"""Two-subdomain polygonal meshes with per-variable face classification.

A mesh covers an elastic (poroelastic tissue) and a fluid (CSF) subdomain.
Faces separating elements of different subdomains form the interface set;
boundary faces carry string labels that a Dirichlet map resolves into
per-variable boundary conditions ("d", "u", "p:<compartment>").

Meshes and face sets are immutable after construction and safe to share
between concurrent assembly workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

ELASTIC = "elastic"
FLUID = "fluid"

#: Fan triangles smaller than this fraction of the element area fail the
#: star-shapedness validation.
_FAN_AREA_RTOL = 1e-12

_AREA_RTOL = 1e-10


class MeshError(Exception):
    """Invalid mesh topology or geometry."""


def _signed_area(pts: np.ndarray) -> float:
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


class PolyMesh:
    """Polygonal mesh of the union domain with element-wise subdomain tags.

    Parameters
    ----------
    vertices : (N, 2) array of vertex coordinates in meters.
    elements : sequence of counterclockwise vertex-index loops.
    element_domain : per-element tag, ``"elastic"`` or ``"fluid"``.
    boundary_labels : map from boundary edge (vertex pair, any order) to a
        label string. Must cover every boundary edge before faces can be
        built.

    Construction validates orientation, star-shapedness with respect to the
    element centroid (required by the fan sub-triangulation used for
    quadrature), conformity (each edge shared by at most two elements,
    traversed in opposite directions), and the gap/overlap area invariant.
    """

    def __init__(self, vertices, elements, element_domain, boundary_labels=None):
        self.vertices = np.asarray(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (N, 2) array")
        self.elements = [np.asarray(e, dtype=int) for e in elements]
        self.element_domain = list(element_domain)
        if len(self.elements) != len(self.element_domain):
            raise MeshError("element_domain length does not match elements")
        for tag in self.element_domain:
            if tag not in (ELASTIC, FLUID):
                raise MeshError(f"unknown domain tag {tag!r}")
        self.boundary_labels = {
            (min(int(a), int(b)), max(int(a), int(b))): lab
            for (a, b), lab in (boundary_labels or {}).items()
        }

        self._validate_and_derive()
        self.vertices.setflags(write=False)
        for e in self.elements:
            e.setflags(write=False)

    # -- derived geometry ------------------------------------------------

    def _validate_and_derive(self):
        nv = len(self.vertices)
        n = len(self.elements)
        self.areas = np.empty(n)
        self.centroids = np.empty((n, 2))
        self.diameters = np.empty(n)
        self.bboxes = np.empty((n, 2, 2))  # [k] = [[xmin, ymin], [xmax, ymax]]

        for k, elem in enumerate(self.elements):
            if len(elem) < 3:
                raise MeshError(f"element {k} has fewer than 3 vertices")
            if elem.min() < 0 or elem.max() >= nv:
                raise MeshError(f"element {k} has vertex index out of range")
            if len(np.unique(elem)) != len(elem):
                raise MeshError(f"element {k} repeats a vertex")
            pts = self.vertices[elem]
            area = _signed_area(pts)
            if area <= 0.0:
                raise MeshError(f"element {k} is not counterclockwise (signed area {area:g})")
            self.areas[k] = area
            self.centroids[k] = pts.mean(axis=0)
            d = pts[:, None, :] - pts[None, :, :]
            self.diameters[k] = np.sqrt((d ** 2).sum(-1).max())
            self.bboxes[k, 0] = pts.min(axis=0)
            self.bboxes[k, 1] = pts.max(axis=0)
            # star-shapedness w.r.t. the centroid: every fan triangle
            # (centroid, v_i, v_{i+1}) must have strictly positive area
            tri = self.fan_triangle_areas(k)
            if tri.min() <= _FAN_AREA_RTOL * area:
                i = int(tri.argmin())
                raise MeshError(
                    f"element {k} is not star-shaped w.r.t. its centroid "
                    f"(fan triangle at local edge {i} has area {tri.min():g})"
                )

        # edge incidence: key = sorted vertex pair
        edges: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        for k, elem in enumerate(self.elements):
            for i in range(len(elem)):
                a, b = int(elem[i]), int(elem[(i + 1) % len(elem)])
                key = (min(a, b), max(a, b))
                edges.setdefault(key, []).append((k, a, b))
        for key, inc in edges.items():
            if len(inc) > 2:
                raise MeshError(f"edge {key} shared by more than 2 elements")
            if len(inc) == 2 and inc[0][1:] == inc[1][1:]:
                raise MeshError(
                    f"edge {key} traversed twice in the same direction: "
                    "overlapping or flipped elements"
                )
        self._edges = edges

        # gap/overlap check: sum of element areas must match the area
        # enclosed by the boundary loops (Green's theorem on boundary edges)
        boundary_area = 0.0
        for key, inc in edges.items():
            if len(inc) == 1:
                _, a, b = inc[0]
                va, vb = self.vertices[a], self.vertices[b]
                boundary_area += 0.5 * (va[0] * vb[1] - vb[0] * va[1])
        total = float(self.areas.sum())
        if abs(total - boundary_area) > _AREA_RTOL * total:
            raise MeshError(
                f"element areas sum to {total:.15g} but the boundary encloses "
                f"{boundary_area:.15g}: mesh has gaps or overlaps"
            )

    def fan_triangle_areas(self, k: int) -> np.ndarray:
        """Signed areas of the centroid-fan triangles of element ``k``."""
        elem = self.elements[k]
        pts = self.vertices[elem]
        c = pts.mean(axis=0)
        p = pts - c
        q = np.roll(p, -1, axis=0)
        return 0.5 * (p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0])

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    def element_ids(self, domain: str) -> np.ndarray:
        """Element indices belonging to one subdomain, in mesh order."""
        return np.array([k for k, d in enumerate(self.element_domain) if d == domain], dtype=int)

    def interface_edges(self) -> set[tuple[int, int]]:
        """Sorted vertex pairs of edges separating the two subdomains."""
        out = set()
        for key, inc in self._edges.items():
            if len(inc) == 2:
                k0, k1 = inc[0][0], inc[1][0]
                if self.element_domain[k0] != self.element_domain[k1]:
                    out.add(key)
        return out

    def boundary_edges(self) -> set[tuple[int, int]]:
        return {key for key, inc in self._edges.items() if len(inc) == 1}


@dataclass(frozen=True)
class Face:
    """A straight mesh face with geometry and per-variable classification.

    ``elem_plus`` owns the stored orientation: ``normal`` points out of it.
    On interface faces ``elem_plus`` is always the elastic element, so
    ``normal`` is the elastic outward normal and the fluid one is its
    negative. ``elem_minus`` is ``None`` on boundary faces.
    """

    v0: int
    v1: int
    elem_plus: int
    elem_minus: int | None
    normal: np.ndarray
    measure: float
    h_plus: float
    h_minus: float | None
    harmonic_h: float
    kind: str  # interior-el | interior-f | interface | boundary-el | boundary-f
    domain: str  # domain of elem_plus
    label: str | None = None
    dirichlet_vars: frozenset[str] = frozenset()

    def classification(self, variables: Iterable[str] = ()) -> set[str]:
        """Classification tags, one per requested variable on boundary faces."""
        if self.kind in ("interior-el", "interior-f", "interface"):
            return {self.kind}
        tags = set()
        for var in variables:
            if var in self.dirichlet_vars:
                pretty = {"d": "dirichlet-d", "u": "dirichlet-u"}.get(var)
                tags.add(pretty or f"dirichlet-p({var.split(':', 1)[1]})")
            elif var == "u":
                tags.add("neumann-out")
            elif var.startswith("p:"):
                tags.add(f"neumann-p({var.split(':', 1)[1]})")
            else:
                tags.add(f"neumann-{var}")
        return tags


def harmonic_h(h_plus: float, h_minus: float | None = None) -> float:
    """Harmonic average of adjacent element diameters; ``h_K`` on boundary faces."""
    if h_minus is None:
        return float(h_plus)
    return 2.0 * h_plus * h_minus / (h_plus + h_minus)


class FaceSet:
    """All faces of a mesh, indexed by category and per-variable Dirichlet sets."""

    def __init__(self, faces: Sequence[Face]):
        self.faces = list(faces)
        self.interior_el = [i for i, f in enumerate(faces) if f.kind == "interior-el"]
        self.interior_f = [i for i, f in enumerate(faces) if f.kind == "interior-f"]
        self.interface = [i for i, f in enumerate(faces) if f.kind == "interface"]
        self.boundary_el = [i for i, f in enumerate(faces) if f.kind == "boundary-el"]
        self.boundary_f = [i for i, f in enumerate(faces) if f.kind == "boundary-f"]

    def __len__(self):
        return len(self.faces)

    def dirichlet(self, var: str) -> list[int]:
        """Boundary faces where ``var`` carries a Dirichlet condition."""
        pool = self.boundary_f if var == "u" else self.boundary_el
        return [i for i in pool if var in self.faces[i].dirichlet_vars]

    def sipg_faces(self, var: str) -> list[int]:
        """Interior plus Dirichlet faces entering the SIPG form of ``var``."""
        interior = self.interior_f if var == "u" else self.interior_el
        return interior + self.dirichlet(var)

    def outlet(self) -> list[int]:
        """Fluid boundary faces with the natural (outlet stress) condition."""
        return [i for i in self.boundary_f if "u" not in self.faces[i].dirichlet_vars]


def build_faces(mesh: PolyMesh, dirichlet_map: Mapping[str, Iterable[str]]) -> FaceSet:
    """Derive and classify all faces of a mesh.

    ``dirichlet_map`` sends a boundary label to the set of variables that are
    Dirichlet on edges carrying that label; variables not listed get the
    natural condition (zero flux for pressures, outlet stress for the fluid).
    Raises :class:`MeshError` on unlabeled boundary edges.
    """
    faces = []
    for key, inc in sorted(mesh._edges.items()):
        if len(inc) == 2:
            (k0, a, b), (k1, _, _) = inc
            dom0, dom1 = mesh.element_domain[k0], mesh.element_domain[k1]
            if dom0 != dom1 and dom0 == FLUID:
                # orient interface faces from the elastic side
                (k0, a, b), (k1, _, _) = inc[1], inc[0]
                dom0, dom1 = dom1, dom0
            kp, km = k0, k1
            kind = "interface" if dom0 != dom1 else ("interior-el" if dom0 == ELASTIC else "interior-f")
            h_plus, h_minus = mesh.diameters[kp], mesh.diameters[km]
        else:
            (kp, a, b) = inc[0]
            km, h_minus = None, None
            h_plus = mesh.diameters[kp]
            kind = "boundary-el" if mesh.element_domain[kp] == ELASTIC else "boundary-f"

        va, vb = mesh.vertices[a], mesh.vertices[b]
        t = vb - va
        measure = float(np.hypot(*t))
        normal = np.array([t[1], -t[0]]) / measure
        normal.setflags(write=False)

        label = None
        dir_vars: frozenset[str] = frozenset()
        if km is None:
            label = mesh.boundary_labels.get(key)
            if label is None:
                raise MeshError(f"unlabeled boundary edge {key}")
            dir_vars = frozenset(dirichlet_map.get(label, ()))

        faces.append(Face(
            v0=a, v1=b, elem_plus=kp, elem_minus=km, normal=normal,
            measure=measure, h_plus=float(h_plus),
            h_minus=None if h_minus is None else float(h_minus),
            harmonic_h=harmonic_h(h_plus, h_minus),
            kind=kind, domain=mesh.element_domain[kp],
            label=label, dirichlet_vars=dir_vars,
        ))
    return FaceSet(faces)


@dataclass
class MeshQualityReport:
    """Shape measures backing the polytopic-regularity assumption.

    ``shape_ratios[k]`` is the minimum over faces of element ``k`` of
    ``d |S_K^F| / (|F| h_K)`` with ``S_K^F`` the fan triangle attached to the
    face; ``bounded_variation`` holds ``h_plus / h_minus`` per shared face.
    """

    shape_ratios: np.ndarray
    h_min: float
    h_max: float
    bounded_variation: np.ndarray

    def summary(self) -> str:
        bv = self.bounded_variation
        lines = [
            f"elements: {len(self.shape_ratios)}",
            f"h range: [{self.h_min:.6g}, {self.h_max:.6g}]",
            f"shape ratio d|S|/(|F| h_K): min {self.shape_ratios.min():.6g} "
            f"max {self.shape_ratios.max():.6g}",
        ]
        if len(bv):
            lines.append(f"bounded variation h+/h-: min {bv.min():.6g} max {bv.max():.6g}")
        return "\n".join(lines)


def quality_report(mesh: PolyMesh) -> MeshQualityReport:
    """Compute per-element shape ratios and neighbor mesh-size variation."""
    d = 2
    ratios = np.empty(mesh.n_elements)
    for k, elem in enumerate(mesh.elements):
        pts = mesh.vertices[elem]
        lengths = np.hypot(*(np.roll(pts, -1, axis=0) - pts).T)
        tri = mesh.fan_triangle_areas(k)
        r = d * tri / (lengths * mesh.diameters[k])
        ratios[k] = r.min()
    bv = []
    for key, inc in mesh._edges.items():
        if len(inc) == 2:
            bv.append(mesh.diameters[inc[0][0]] / mesh.diameters[inc[1][0]])
    return MeshQualityReport(
        shape_ratios=ratios,
        h_min=float(mesh.diameters.min()),
        h_max=float(mesh.diameters.max()),
        bounded_variation=np.array(bv),
    )


# -- JSON mesh format ----------------------------------------------------
# { "vertices": [[x, y], ...],
#   "elements": [{"v": [i0, i1, ...], "domain": "elastic"|"fluid"}, ...],
#   "boundary": [{"edge": [i, j], "label": "..."}, ...] }


def load_mesh(path) -> PolyMesh:
    """Load a :class:`PolyMesh` from the JSON mesh format (0-based indices)."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MeshError(f"cannot parse {path}: {exc}") from exc
    try:
        vertices = doc["vertices"]
        elements = [e["v"] for e in doc["elements"]]
        domains = [e["domain"] for e in doc["elements"]]
        labels = {tuple(b["edge"]): b["label"] for b in doc.get("boundary", [])}
    except (KeyError, TypeError) as exc:
        raise MeshError(f"malformed mesh document {path}: missing {exc}") from exc
    return PolyMesh(vertices, elements, domains, labels)


def save_mesh(mesh: PolyMesh, path) -> None:
    """Write a mesh back to the JSON mesh format."""
    doc = {
        "vertices": mesh.vertices.tolist(),
        "elements": [
            {"v": [int(i) for i in e], "domain": d}
            for e, d in zip(mesh.elements, mesh.element_domain)
        ],
        "boundary": [
            {"edge": [int(a), int(b)], "label": lab}
            for (a, b), lab in sorted(mesh.boundary_labels.items())
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)

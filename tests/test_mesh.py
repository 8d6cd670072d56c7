import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from polympe.cli import resolve_mesh
from polympe.families import (DEMO_DIRICHLET, VERIFICATION_DIRICHLET, cartesian_two_domain,
                              triangulated_two_domain)
from polympe.mesh import (ELASTIC, KINDS, MeshError, PolyMesh, build_faces, harmonic_h, load_mesh,
                          quality_report, save_mesh)
from polympe.spaces import volume_quadrature

from conftest import two_square_mesh, unit_square_mesh


def write_mesh_file(tmp_path, doc):
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(doc))
    return path


def test_load_minimal_two_domain(tmp_path):
    doc = {
        "vertices": [[-1, 0], [0, 0], [1, 0], [1, 1], [0, 1], [-1, 1]],
        "elements": [{"v": [0, 1, 4, 5], "domain": "elastic"},
                     {"v": [1, 2, 3, 4], "domain": "fluid"}],
        "boundary": [{"edge": [0, 1], "label": "el"}, {"edge": [0, 5], "label": "el"},
                     {"edge": [4, 5], "label": "el"}, {"edge": [1, 2], "label": "wall"},
                     {"edge": [2, 3], "label": "out"}, {"edge": [3, 4], "label": "wall"}],
    }
    mesh = load_mesh(write_mesh_file(tmp_path, doc))
    assert mesh.n_elements == 2
    assert mesh.interface_edges() == {(1, 4)}


def test_load_rejects_duplicated_element(tmp_path):
    doc = {
        "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
        "elements": [{"v": [0, 1, 2, 3], "domain": "elastic"},
                     {"v": [0, 1, 2, 3], "domain": "fluid"}],
        "boundary": [],
    }
    with pytest.raises(MeshError, match="overlap"):
        load_mesh(write_mesh_file(tmp_path, doc))


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(MeshError, match="parse"):
        load_mesh(path)


def test_load_rejects_a_document_without_elements(tmp_path):
    path = write_mesh_file(tmp_path, {"vertices": [[0, 0], [1, 0], [0, 1]]})
    with pytest.raises(MeshError, match="malformed mesh document .* missing 'elements'"):
        load_mesh(path)


def test_cartesian_4x4_split():
    mesh = cartesian_two_domain(4, nx=4)
    assert mesh.n_elements == 16
    faces = build_faces(mesh, VERIFICATION_DIRICHLET)
    assert len(faces.interface) == 4


@pytest.mark.parametrize("build, name", [
    (lambda: triangulated_two_domain(0), "ny"),
    (lambda: triangulated_two_domain(4, 0), "nx_el"),
    (lambda: triangulated_two_domain(4, 4, -1), "nx_f"),
    (lambda: cartesian_two_domain(2, 0), "nx"),
    (lambda: cartesian_two_domain(0), "ny"),
], ids=["tri-ny", "tri-nx_el", "tri-nx_f", "cart-nx", "cart-ny"])
def test_family_sizes_must_be_positive(build, name):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        build()


@pytest.mark.parametrize("jitter", [0.5, 1.7e308])
def test_jitter_of_half_the_spacing_or_more_rejected(jitter):
    # 1.7e308 once escaped as an OverflowError from the uniform draw
    with pytest.raises(ValueError, match=re.escape(f"jitter must be < 0.5, got {jitter}")):
        triangulated_two_domain(4, jitter=jitter)


def test_non_ccw_rejected():
    with pytest.raises(MeshError, match="counterclockwise"):
        PolyMesh([[0, 0], [1, 0], [1, 1]], [[0, 2, 1]], ["elastic"], {})


def test_star_shapedness_rejected():
    # L-shaped element whose centroid lies outside the kernel
    verts = [[0, 0], [4, 0], [4, 1], [1, 1], [1, 4], [0, 4]]
    with pytest.raises(MeshError, match="star-shaped"):
        PolyMesh(verts, [[0, 1, 2, 3, 4, 5]], ["elastic"], {})


def test_edge_shared_by_three_rejected():
    verts = [[0, 0], [1, 0], [0, 1], [0, -1], [1, 1]]
    elems = [[0, 1, 2], [0, 3, 1], [0, 1, 4]]
    with pytest.raises(MeshError):
        PolyMesh(verts, elems, ["elastic"] * 3, {})


_TRIANGLE = [[0, 0], [1, 0], [0, 1]]


@pytest.mark.parametrize("verts, elems, domains, match", [
    ([0, 1, 2], [[0, 1, 2]], ["elastic"], r"vertices must be an \(N, 2\) array"),
    (_TRIANGLE, [[0, 1, 2]], [], "element_domain length does not match"),
    (_TRIANGLE, [[0, 1, 2]], ["solid"], "unknown domain tag 'solid'"),
    (_TRIANGLE, [[0, 1, 2], [0, 1]], ["elastic"] * 2, "element 1 has fewer than 3 vertices"),
    (_TRIANGLE, [[0, 1, 3]], ["elastic"], "element 0 has vertex index out of range"),
    (_TRIANGLE, [[0, 1, 2], [0, 1, 1]], ["elastic"] * 2, "element 1 repeats a vertex"),
], ids=["vertices", "domain-length", "domain-tag", "short-element", "index", "repeat"])
def test_malformed_mesh_rejected(verts, elems, domains, match):
    with pytest.raises(MeshError, match=match):
        PolyMesh(verts, elems, domains, {})


def test_interface_classification():
    faces = build_faces(two_square_mesh(), VERIFICATION_DIRICHLET)
    i = faces.interface[0]
    assert KINDS[faces.edges.kind[i]] == "interface"
    # no boundary condition of any variable applies to an interface face
    for fidxs in (faces.dirichlet("d"), faces.dirichlet("u"), faces.dirichlet("p:E"),
                  faces.outlet()):
        assert i not in fidxs
    # interface normal points out of the elastic element
    assert np.allclose(faces.edges.normal[i], [1.0, 0.0])


def test_wall_classification_per_variable():
    faces = build_faces(two_square_mesh(), {"el": {"d"}, "wall": {"d", "u"}, "out": set()})
    wall = next(i for i in faces.boundary_f if faces.label[i] == "wall")
    # Dirichlet for the velocity, natural for the compartment pressure
    assert wall in faces.dirichlet("u") and wall not in faces.dirichlet("p:E")
    out = next(i for i in faces.boundary_f if faces.label[i] == "out")
    # the natural outlet condition for the velocity
    assert out not in faces.dirichlet("u")
    assert faces.outlet().tolist() == [out]


@pytest.mark.parametrize("family", ["cartesian", "triangulated", "agglomerated"])
def test_default_dirichlet_maps_fit_every_family(mesh80, family):
    # every label of both default maps names boundary edges of each family
    # (the 80-polygon agglomerate is the mesh of the shipped demo and verify
    # configs)
    mesh = {"cartesian": cartesian_two_domain(1), "triangulated": triangulated_two_domain(1),
            "agglomerated": mesh80}[family]
    for dmap in (VERIFICATION_DIRICHLET, DEMO_DIRICHLET):
        assert len(build_faces(mesh, dmap).dirichlet("u"))


def test_dirichlet_label_on_no_edge():
    with pytest.raises(MeshError, match=r"label\(s\) \['wal'\]"):
        build_faces(two_square_mesh(), {"el": {"d"}, "wal": {"u"}, "out": set()})
    # a label that lists no field may name no edge
    faces = build_faces(two_square_mesh(), {"el": {"d"}, "wall": {"u"}, "outlet": set()})
    assert len(faces.dirichlet("u")) == 2


def test_unlabeled_boundary_edge():
    mesh = two_square_mesh()
    mesh.boundary_labels.pop((2, 3))
    with pytest.raises(MeshError, match="unlabeled"):
        build_faces(mesh, VERIFICATION_DIRICHLET)


@pytest.mark.parametrize("key", [(6, 1), (0, 1_000_000)], ids=["interior", "no-edge"])
def test_boundary_label_on_a_non_boundary_edge_rejected(key):
    # (1, 6) is an interior edge of the cart2 mesh; (0, 1000000) is no edge
    mesh = cartesian_two_domain(2)
    labels = {**mesh.boundary_labels, key: "el"}
    with pytest.raises(MeshError, match=rf"^boundary label on \({min(key)}, {max(key)}\), "
                                        "which is not a boundary edge$"):
        PolyMesh(mesh.vertices, mesh.elements, mesh.element_domain, labels)


@pytest.mark.parametrize("label", ["wall", "out"])
@pytest.mark.parametrize("edge", [[2, 3], [3, 2]], ids=["same-order", "reversed"])
def test_load_rejects_an_edge_labelled_twice(tmp_path, edge, label):
    # (2, 3) is the outlet of the two-square mesh; a second entry must not
    # silently relabel it, nor pass unremarked under the same label
    path = tmp_path / "mesh.json"
    save_mesh(two_square_mesh(), path)
    doc = json.loads(path.read_text())
    doc["boundary"].append({"edge": edge, "label": label})
    with pytest.raises(MeshError, match=rf"^boundary edge \(2, 3\) is labelled twice, "
                                        rf"'out' and '{label}'$"):
        load_mesh(write_mesh_file(tmp_path, doc))


def test_mesh_rejects_an_edge_labelled_in_both_orders():
    mesh = two_square_mesh()
    labels = {**mesh.boundary_labels, (3, 2): "wall"}
    with pytest.raises(MeshError, match=r"^boundary edge \(2, 3\) is labelled twice, "
                                        r"'out' and 'wall'$"):
        PolyMesh(mesh.vertices, mesh.elements, mesh.element_domain, labels)


def test_harmonic_h_values():
    assert harmonic_h(0.1, 0.1) == pytest.approx(0.1)
    assert harmonic_h(0.1, 0.2) == pytest.approx(2.0 / 15.0)
    assert harmonic_h(0.25) == 0.25


def test_harmonic_h_bounds():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a, b = rng.uniform(0.01, 2.0, 2)
        h = harmonic_h(a, b)
        assert h == pytest.approx(harmonic_h(b, a))
        assert min(a, b) <= h <= 2.0 * min(a, b)


def test_quality_report_uniform_grid():
    rep = quality_report(cartesian_two_domain(4))
    assert np.allclose(rep.bounded_variation, 1.0)
    assert rep.h_min == pytest.approx(rep.h_max)


def test_quality_report_unit_square():
    rep = quality_report(unit_square_mesh())
    assert rep.shape_ratios[0] == pytest.approx(2 * 0.25 / np.sqrt(2.0))


def test_quality_report_agglomerated(mesh80):
    rep = quality_report(mesh80)
    assert np.all(np.isfinite(rep.shape_ratios)) and np.all(rep.shape_ratios > 0)
    assert np.all(rep.bounded_variation > 0)
    assert "shape ratio" in rep.summary()


def test_area_invariant():
    for mesh in (cartesian_two_domain(4), triangulated_two_domain(5, jitter=0.2)):
        assert mesh.areas.sum() == pytest.approx(2.0, rel=1e-10)


def test_interface_set_invariant_under_reordering():
    mesh = cartesian_two_domain(4)
    order = list(range(mesh.n_elements))[::-1]
    shuffled = PolyMesh(mesh.vertices,
                        [mesh.elements[i] for i in order],
                        [mesh.element_domain[i] for i in order],
                        mesh.boundary_labels)
    assert shuffled.interface_edges() == mesh.interface_edges()


def test_interior_normals_opposite():
    # the stored normal is outward from the plus element; the minus-side
    # normal is its exact negative by construction, so check outwardness for both
    mesh = triangulated_two_domain(3, jitter=0.2)
    t = mesh.edges
    mid = 0.5 * (mesh.vertices[t.ab[:, 0]] + mesh.vertices[t.ab[:, 1]])
    plus, minus = t.elem.T
    assert ((t.normal * (mid - mesh.centroids[plus])).sum(axis=1) > 0).all()
    inner = minus >= 0
    assert ((-t.normal[inner] * (mid[inner] - mesh.centroids[minus[inner]])).sum(axis=1)
            > 0).all()


#: sha256 of every face-table array and index set of the configs/demo.json
#: coarse mesh, recorded from the per-face objects the table replaced
FACE_PINS = json.loads((Path(__file__).parent / "face_pins.json").read_text())
_DIRICHLET_MAPS = {"verification": VERIFICATION_DIRICHLET, "demo": DEMO_DIRICHLET}


def _face_table_hashes(faces) -> dict:
    t = faces.edges
    items = {"endpoints": t.ab, "elements": t.elem, "normal": t.normal,
             "harmonic_h": t.harmonic_h, "kind": t.kind,
             "label": json.dumps(faces.label.tolist()).encode()}
    for name in ("interior_el", "interior_f", "interface", "boundary_el", "boundary_f"):
        items[name] = getattr(faces, name)
    for var in ("d", "u", "p:E"):
        items[f"dirichlet({var})"] = faces.dirichlet(var)
        items[f"sipg_faces({var})"] = faces.sipg_faces(var)
    items["outlet()"] = faces.outlet()

    def sha(v):
        if not isinstance(v, bytes):
            v = np.ascontiguousarray(v, dtype=np.float64 if v.dtype.kind == "f" else np.int64)
        return hashlib.sha256(v).hexdigest()

    return {k: sha(v) for k, v in items.items()}


@pytest.mark.parametrize("case", sorted(FACE_PINS))
def test_face_table_pinned(case):
    seed, dmap = case.split("-")
    spec = json.loads((Path(__file__).parents[1] / "configs" / "demo.json").read_text())["mesh"]
    mesh = resolve_mesh(dict(spec, seed=int(seed.removeprefix("seed"))))
    faces = build_faces(mesh, _DIRICHLET_MAPS[dmap])
    assert len(faces) == len(mesh.edges.code)
    assert _face_table_hashes(faces) == FACE_PINS[case]


def test_save_load_roundtrip(tmp_path, mesh80):
    path = tmp_path / "m.json"
    save_mesh(mesh80, path)
    again = load_mesh(path)
    assert again.n_elements == mesh80.n_elements
    assert np.allclose(again.vertices, mesh80.vertices)
    assert again.interface_edges() == mesh80.interface_edges()


def reference_geometry(mesh):
    """Areas, centroids, diameters, bboxes and shape ratios, element by element."""
    out = [np.empty(mesh.n_elements), np.empty((mesh.n_elements, 2)), np.empty(mesh.n_elements),
           np.empty((mesh.n_elements, 2, 2)), np.empty(mesh.n_elements)]
    for k, elem in enumerate(mesh.elements):
        pts = mesh.vertices[elem]
        x, y = pts[:, 0], pts[:, 1]
        out[0][k] = 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
        out[1][k] = c = pts.mean(axis=0)
        d = pts[:, None, :] - pts[None, :, :]
        out[2][k] = np.sqrt((d ** 2).sum(-1).max())
        out[3][k] = pts.min(axis=0), pts.max(axis=0)
        p, q = pts - c, np.roll(pts - c, -1, axis=0)
        fan = 0.5 * (p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0])
        lengths = np.hypot(*(np.roll(pts, -1, axis=0) - pts).T)
        out[4][k] = (2 * fan / (lengths * out[2][k])).min()
    return out


def reference_edges(mesh):
    """(sorted vertex pair, [(element, a, b) per side in element order]) per edge."""
    edges = {}
    for k, elem in enumerate(mesh.elements):
        for a, b in zip(elem.tolist(), np.roll(elem, -1).tolist()):
            edges.setdefault((min(a, b), max(a, b)), []).append((k, a, b))
    return sorted(edges.items())


@pytest.mark.parametrize("seed", [0, 1])
def test_grouped_geometry_and_edge_table_equal_per_element_reference(seed):
    demo = json.loads((Path(__file__).resolve().parents[1] / "configs" / "demo.json").read_text())
    spec = dict(demo["mesh"], seed=seed)
    fine = triangulated_two_domain(spec["fine_ny"], jitter=spec["jitter"], seed=seed)
    for mesh in (fine, resolve_mesh(spec)):
        got = [mesh.areas, mesh.centroids, mesh.diameters, mesh.bboxes,
               quality_report(mesh).shape_ratios]
        for a, b in zip(got, reference_geometry(mesh)):
            assert a.tobytes() == b.tobytes()
        t = mesh.edges
        # the plus side traverses the edge as ab, the minus side reversed
        table = [(tuple(key), sorted((k, *s) for k, s in zip(elem, (ab, ab[::-1])) if k >= 0))
                 for key, elem, ab in zip(t.key.tolist(), t.elem.tolist(), t.ab.tolist())]
        assert table == reference_edges(mesh)


# -- property tests of the validation ---------------------------------------

#: reproducible property runs: fixed example sequence, no example database
BOUNDED = settings(derandomize=True, max_examples=40, deadline=None, database=None)


@st.composite
def star_polygons(draw):
    """Counterclockwise loops around the origin: angular steps of 1-4 units,
    radii in [0.6, 1]."""
    n = draw(st.integers(3, 12))
    steps = np.array(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    radii = np.array(draw(st.lists(st.floats(0.6, 1.0), min_size=n, max_size=n)))
    theta = 2.0 * np.pi * np.cumsum(steps) / steps.sum()
    return np.stack([radii * np.cos(theta), radii * np.sin(theta)], axis=1)


def shoelace(pts):
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def min_fan_ratio(pts):
    """Smallest fan triangle about the vertex mean, relative to the area."""
    m = pts.mean(axis=0)
    e, r = np.roll(pts, -1, axis=0) - pts, m - pts
    return float((0.5 * (e[:, 0] * r[:, 1] - e[:, 1] * r[:, 0])).min()) / shoelace(pts)


def side_by_side(polys, reverse=()):
    """One mesh of disjoint polygons; loops with an index in ``reverse`` run clockwise."""
    verts = np.concatenate([p + [3.0 * k, 0.0] for k, p in enumerate(polys)])
    starts = np.cumsum([0] + [len(p) for p in polys])
    loops = [list(range(s, s + len(p)))[::-1 if k in reverse else 1]
             for k, (s, p) in enumerate(zip(starts, polys))]
    return PolyMesh(verts, loops, [ELASTIC] * len(polys), {})


@BOUNDED
@given(st.lists(star_polygons(), min_size=1, max_size=5), st.data())
def test_star_shaped_polygons_accepted_reversed_rejected(polys, data):
    assume(all(min_fan_ratio(p) > 1e-6 for p in polys))
    mesh = side_by_side(polys)
    assert mesh.areas == pytest.approx([shoelace(p) for p in polys], rel=1e-12)
    assert not mesh.edges.interior.any()
    first = data.draw(st.integers(0, len(polys) - 1))
    # every element from ``first`` on is clockwise; the lowest is reported
    with pytest.raises(MeshError, match=f"element {first} is not counterclockwise"):
        side_by_side(polys, reverse=range(first, len(polys)))


@BOUNDED
@given(star_polygons(), st.integers(0, 11), st.floats(0.05, 0.5))
def test_non_star_perturbation_rejected(pts, i, t):
    pts = pts.copy()
    pts[i % len(pts)] *= -t  # pull one vertex through the centre
    assume(shoelace(pts) > 1e-6 and min_fan_ratio(pts) < -1e-9)
    with pytest.raises(MeshError, match="element 0 is not star-shaped"):
        PolyMesh(pts, [list(range(len(pts)))], [ELASTIC], {})


@BOUNDED
@given(star_polygons(), st.integers(0, 11), st.floats(-0.5, 1.0), st.integers(1, 6))
def test_accepted_polygons_get_positive_quadrature_weights(pts, i, t, order):
    # validation and quadrature read one fan: every polygon the mesh accepts,
    # one vertex pulled towards or through the origin included, integrates
    # with strictly positive weights
    pts = pts.copy()
    pts[i % len(pts)] *= t
    try:
        mesh = PolyMesh(pts, [list(range(len(pts)))], [ELASTIC], {})
    except MeshError:
        assume(False)
    w = volume_quadrature(mesh.vertices[mesh.elements[0]], order).weights
    assert (w > 0.0).all()
    assert w.sum() == pytest.approx(mesh.areas[0], rel=1e-12)

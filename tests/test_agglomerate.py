import numpy as np
import pytest

from polympe.agglomerate import (AgglomerationConfig, agglomerate,
                                 partition_assignment, validate_partition)
from polympe.families import triangulated_two_domain
from polympe.mesh import ELASTIC, FLUID, MeshError, PolyMesh


def eight_triangle_square():
    """Unit square cut into a 2x2 grid of split cells, single domain."""
    verts, elems = [], []
    idx = {}

    def vid(x, y):
        key = (x, y)
        if key not in idx:
            idx[key] = len(verts)
            verts.append(key)
        return idx[key]

    xs = [0.0, 0.5, 1.0]
    for j in range(2):
        for i in range(2):
            v00, v10 = vid(xs[i], xs[j]), vid(xs[i + 1], xs[j])
            v11, v01 = vid(xs[i + 1], xs[j + 1]), vid(xs[i], xs[j + 1])
            elems += [[v00, v10, v11], [v00, v11, v01]]
    labels = {}
    counts = {}
    for e in elems:
        for i in range(3):
            a, b = e[i], e[(i + 1) % 3]
            key = (min(a, b), max(a, b))
            counts[key] = counts.get(key, 0) + 1
    for key, c in counts.items():
        if c == 1:
            labels[key] = "nat"
    return PolyMesh(verts, elems, [ELASTIC] * 8, labels)


def test_small_square_two_clusters():
    fine = eight_triangle_square()
    coarse = agglomerate(fine, AgglomerationConfig(2, 0, seed=0))
    assert coarse.n_elements == 2
    assert coarse.areas.sum() == pytest.approx(1.0, rel=1e-12)


def test_identity_agglomeration():
    fine = eight_triangle_square()
    coarse = agglomerate(fine, AgglomerationConfig(8, 0, seed=0))
    assert coarse.n_elements == 8
    assert sorted(map(len, coarse.elements)) == [3] * 8


def test_two_domain_targets_and_interface(mesh80):
    fine = triangulated_two_domain(24, jitter=0.25)
    from collections import Counter
    counts = Counter(mesh80.element_domain)
    assert counts[ELASTIC] == 40 and counts[FLUID] == 40
    # the coarse interface is geometrically identical to the fine one
    assert mesh80.interface_edges() == fine.interface_edges()
    assert mesh80.areas.sum() == pytest.approx(fine.areas.sum(), rel=1e-12)


def test_determinism():
    fine = triangulated_two_domain(10, jitter=0.2)
    cfg = AgglomerationConfig(6, 6, seed=42)
    a = agglomerate(fine, cfg)
    b = agglomerate(fine, cfg)
    assert len(a.elements) == len(b.elements)
    for ea, eb in zip(a.elements, b.elements):
        assert np.array_equal(ea, eb)
    assert a.element_domain == b.element_domain


def test_agglomerate_coarsens_the_given_assignment():
    fine = triangulated_two_domain(8, jitter=0.2)
    cfg = AgglomerationConfig(5, 5, seed=3)
    given = agglomerate(fine, cfg, partition_assignment(fine, cfg))
    own = agglomerate(fine, cfg)
    assert given.element_domain == own.element_domain
    assert [e.tolist() for e in given.elements] == [e.tolist() for e in own.elements]
    assert given.boundary_labels == own.boundary_labels


def test_partition_assignment_valid():
    fine = triangulated_two_domain(10, jitter=0.2)
    cfg = AgglomerationConfig(6, 6, seed=1)
    assignment = partition_assignment(fine, cfg)
    rep = validate_partition(fine, assignment)
    assert rep.valid
    assert rep.area_error < 1e-10
    assert all(c == 1 for c in rep.component_counts)


def test_validate_partition_flags_domain_impurity():
    fine = triangulated_two_domain(4)
    el = [int(i) for i in fine.element_ids(ELASTIC)]
    fl = [int(i) for i in fine.element_ids(FLUID)]
    # one cluster spans the interface
    assignment = [el + fl[:1], fl[1:]]
    rep = validate_partition(fine, assignment)
    assert not rep.domain_pure
    assert not rep.valid


def test_validate_partition_flags_disconnected():
    fine = eight_triangle_square()
    # triangles 0 and 7 live in opposite corners
    assignment = [[0, 7], [1, 2, 3, 4, 5, 6]]
    rep = validate_partition(fine, assignment)
    assert not rep.connected
    assert rep.component_counts[0] == 2


def test_target_out_of_range():
    fine = eight_triangle_square()
    with pytest.raises(MeshError):
        agglomerate(fine, AgglomerationConfig(9, 0, seed=0))
    with pytest.raises(MeshError):
        agglomerate(fine, AgglomerationConfig(0, 0, seed=0))


def test_rejects_non_triangular():
    mesh = PolyMesh([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2, 3]], [ELASTIC],
                    {(0, 1): "n", (1, 2): "n", (2, 3): "n", (0, 3): "n"})
    with pytest.raises(MeshError, match="triangle"):
        agglomerate(mesh, AgglomerationConfig(1, 0))


def test_boundary_labels_inherited(mesh80):
    # every boundary edge of the coarse mesh carries a label from the fine mesh
    for key in mesh80.boundary_edges():
        assert key in mesh80.boundary_labels


def test_brain_scale_seed_with_dropped_move_target():
    # at this seed the star-shapedness repair draws a cached move whose
    # destination cluster a count fix has already merged away
    fine = triangulated_two_domain(48, nx_el=48, nx_f=12, jitter=0.25, seed=3)
    cfg = AgglomerationConfig(910, 101, seed=3)
    assignment = partition_assignment(fine, cfg)
    coarse = agglomerate(fine, cfg, assignment)
    assert coarse.element_domain.count(ELASTIC) == 910
    assert coarse.element_domain.count(FLUID) == 101
    assert validate_partition(fine, assignment).valid

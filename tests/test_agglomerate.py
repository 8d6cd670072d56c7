import hashlib
import importlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from polympe.agglomerate import (AgglomerationConfig, _Boundary, _lloyd, _Outlines, _reseed,
                                 agglomerate, partition_assignment, validate_partition)
from polympe.families import triangulated_two_domain
from polympe.mesh import ELASTIC, FLUID, MeshError, PolyMesh

#: the module itself: the package exports its ``agglomerate`` function
agglomerate_module = importlib.import_module("polympe.agglomerate")
#: reproducible property runs: fixed example sequence, no example database
BOUNDED = settings(derandomize=True, max_examples=6, deadline=None, database=None)


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


#: sha256 of the JSON list of [domain, vertex loop] of every coarse element of
#: the 320-polygon mesh (48-row fine mesh, jitter 0.25, targets (160, 160)),
#: with the fine mesh and the agglomeration on the same seed
COARSE_320_SHA256 = {
    0: "b8597cc9688563b7399c548bd9407e9c26563d106e4e2725710db61eb8de0480",
    1: "c84ce0c263e540f3a0e7056d67f37897b4946ad55d2fa9b689589227c7ad25e1",
}


@pytest.mark.parametrize("seed", [0, 1])
def test_coarse_320_element_loops_pinned(poly_family, seed):
    coarse = poly_family[2] if seed == 0 else agglomerate(
        triangulated_two_domain(48, jitter=0.25, seed=seed), AgglomerationConfig(160, 160, seed=seed))
    doc = json.dumps([[d, e.tolist()] for d, e in zip(coarse.element_domain, coarse.elements)])
    assert hashlib.sha256(doc.encode()).hexdigest() == COARSE_320_SHA256[seed]


#: sha256 of the JSON fine-to-coarse assignment, by mesh (of
#: PARTITION_MESHES) and seed, with the fine mesh and the agglomeration on the
#: same seed; brain scale at seed 3 takes the dropped-move path, and seed 1 is
#: the held-out seed of the agglomerate-brain benchmark workload
PARTITION_SHA256 = {
    ("20", 0): "bbaed1e87f233a5bf01605d41e82f96b4c9acd84b992edda0a2bea11e06157d1",
    ("20", 1): "6d61e5cc1b43652d02f9165961e9c017617a2200c4e608f9dd9a3f5f6bd6ec4b",
    ("80", 0): "ae058cad6bba85778821ce927fd61e266fa65e668ee10299188de1fbefcc396a",
    ("80", 1): "66cbc669c6bee6bba033e951b66901acdd25baed55018b8197368400704c4215",
    ("brain", 0): "d240e6c7536021e322e4a2d79c22da1077a5181ecb100ac14f8c49ba202f3877",
    ("brain", 1): "403544743253fee398cbda23ff5ebccb03e2192ee8fafab8c4c438c25319dd6f",
    ("brain", 3): "28e9998ae2d695f7f3c3fc26b99df38f7118d756bc1bbd9e5032094df97d4425",
}
#: fine triangulation (rows, elastic columns, fluid columns) and targets
PARTITION_MESHES = {"20": ((12, None, None), (10, 10)), "80": ((24, None, None), (40, 40)),
                    "brain": ((48, 48, 12), (910, 101))}


@pytest.mark.parametrize("mesh, seed", sorted(PARTITION_SHA256),
                         ids=[f"{m}-seed{s}" for m, s in sorted(PARTITION_SHA256)])
def test_partition_assignment_pinned(mesh, seed):
    (ny, nx_el, nx_f), targets = PARTITION_MESHES[mesh]
    fine = triangulated_two_domain(ny, nx_el, nx_f, jitter=0.25, seed=seed)
    assignment = partition_assignment(fine, AgglomerationConfig(*targets, seed=seed))
    doc = json.dumps(assignment)
    assert hashlib.sha256(doc.encode()).hexdigest() == PARTITION_SHA256[mesh, seed]


@pytest.mark.parametrize("mesh, seed", [("20", 0), ("20", 1), ("80", 0), ("80", 1)])
def test_move_skips_components_only_where_the_source_stays_connected(monkeypatch, mesh, seed):
    # a moved triangle with exactly one source-side neighbour cannot split its
    # source cluster: on every such move, _Partition.move must not call
    # _components, and _components must find the source in one piece
    real_components, real_move = agglomerate_module._components, agglomerate_module._Partition.move
    calls, shortcuts = [], []

    def components(members, adj):
        calls.append(len(members))
        return real_components(members, adj)

    def move(part, elem, dest):
        src = int(part.owner[elem])
        shortcut = sum(nb in part.clusters[src] for nb in part.adj[elem]) == 1
        before = len(calls)
        real_move(part, elem, dest)
        if shortcut:
            shortcuts.append(elem)
            assert len(calls) == before
            assert len(real_components(part.clusters[src], part.adj)) == 1

    monkeypatch.setattr(agglomerate_module, "_components", components)
    monkeypatch.setattr(agglomerate_module._Partition, "move", move)
    (ny, nx_el, nx_f), targets = PARTITION_MESHES[mesh]
    fine = triangulated_two_domain(ny, nx_el, nx_f, jitter=0.25, seed=seed)
    partition_assignment(fine, AgglomerationConfig(*targets, seed=seed))
    assert shortcuts


def boundary_edges(bd) -> set:
    """The edges of a _Boundary as (start, end, inside, across)."""
    return {(a, bd.nxt[a], bd.inner[a], bd.across[a]) for a in bd.nxt} | set(bd.pinched)


@pytest.mark.parametrize("mesh, seed", [("20", 0), ("80", 1), ("brain", 3)])
def test_kept_boundaries_match_a_fresh_read(monkeypatch, mesh, seed):
    # every outline the repair checks, kept up to date move by move, has the
    # edges read afresh from the cluster's triangles
    real = agglomerate_module._Partition._violation_moves
    kept = []

    def violation_moves(part, cid):
        if cid in part.boundary:
            fresh = part.outlines.boundaries(part.clusters[cid], part.owner)[cid]
            assert boundary_edges(part.boundary[cid]) == boundary_edges(fresh)
            kept.append(cid)
        return real(part, cid)

    monkeypatch.setattr(agglomerate_module._Partition, "_violation_moves", violation_moves)
    (ny, nx_el, nx_f), targets = PARTITION_MESHES[mesh]
    fine = triangulated_two_domain(ny, nx_el, nx_f, jitter=0.25, seed=seed)
    partition_assignment(fine, AgglomerationConfig(*targets, seed=seed))
    assert kept


def dense_lloyd(points, k, rng, iterations):
    """The Lloyd iteration without bounds: every point against every centre
    at every step, with the module's reseeding of empty clusters."""
    n = len(points)
    centers = points[rng.choice(n, size=k, replace=False)].copy()
    labels = np.zeros(n, dtype=int)
    sq = (points ** 2).sum(axis=1)
    d2 = np.empty((n, k))
    for _ in range(iterations):
        np.matmul(points, centers.T, out=d2)
        d2 *= 2.0
        np.subtract(sq[:, None], d2, out=d2)
        d2 += (centers ** 2).sum(axis=1)[None, :]
        new_labels = d2.argmin(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        counts = np.bincount(labels, minlength=k)
        sums = np.stack([np.bincount(labels, weights=points[:, i], minlength=k) for i in (0, 1)],
                        axis=1)
        full = counts > 0
        centers[full] = sums[full] / counts[full, None]
        if not full.all():
            _reseed(points, sq, centers, ~full)
    return labels


def lloyd_points(n, seed, kind):
    """``n`` points: uniform in the unit square, on a coarse lattice (exact
    ties, repeated points and so empty clusters), or a cloud so small and so
    far from the origin that rounding dominates every squared distance."""
    rng = np.random.default_rng(seed)
    if kind == "lattice":
        return rng.integers(0, 6, (n, 2)) * 0.25
    if kind == "far":
        return 1e6 + 1e-3 * rng.random((n, 2))
    return rng.random((n, 2))


@pytest.mark.parametrize("k", [1, 2, 12])
@BOUNDED
@given(n=st.integers(12, 300), seed=st.integers(0, 10_000),
       kind=st.sampled_from(["uniform", "lattice", "far"]))
def test_bounded_lloyd_matches_the_dense_iteration(k, n, seed, kind):
    points = lloyd_points(n, seed, kind)
    assert np.array_equal(_lloyd(points, k, np.random.default_rng(seed), 60),
                          dense_lloyd(points, k, np.random.default_rng(seed), 60))


@pytest.mark.parametrize("kind", ["uniform", "lattice", "far"])
def test_bounded_lloyd_matches_the_dense_iteration_on_many_centres(kind):
    points = lloyd_points(3000, 0, kind)
    assert np.array_equal(_lloyd(points, 160, np.random.default_rng(0), 60),
                          dense_lloyd(points, 160, np.random.default_rng(0), 60))


@pytest.mark.parametrize("k, n, seed", [(2, 16, 0), (3, 24, 2)])
def test_bounded_lloyd_evaluates_a_single_row(monkeypatch, k, n, seed):
    # at these sizes one pass queries the tree for exactly one point, and the
    # labels still match the dense iteration
    sizes = []

    class Tree(cKDTree):
        def query(self, x, *args, **kwargs):
            sizes.append(len(x))
            return super().query(x, *args, **kwargs)

    monkeypatch.setattr(agglomerate_module, "cKDTree", Tree)
    points = lloyd_points(n, seed, "uniform")
    labels = _lloyd(points, k, np.random.default_rng(seed), 60)
    assert 1 in sizes
    assert np.array_equal(labels, dense_lloyd(points, k, np.random.default_rng(seed), 60))


class FixedChoice:
    """A generator whose ``choice`` returns the given indices."""

    def __init__(self, picks):
        self.picks = picks

    def choice(self, n, size, replace):
        return np.array(self.picks[:size])


def test_empty_clusters_are_reseeded_apart():
    # three centres start on copies of the origin, so two clusters are empty
    # after the first assignment; each is reseeded on the point farthest from
    # the centres placed before it, (10, 0) and then (30, 0), not both on (30, 0)
    points = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [10.0, 0.0], [20.0, 0.0], [30.0, 0.0]])
    centers = np.array([[20.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    _reseed(points, (points ** 2).sum(axis=1), centers, np.array([False, False, True, True]))
    assert centers.tolist() == [[20.0, 0.0], [0.0, 0.0], [10.0, 0.0], [30.0, 0.0]]
    assert _lloyd(points, 4, FixedChoice([3, 0, 1, 2]), 60).tolist() == [1, 1, 1, 2, 0, 3]


def reference_boundary_loop(mesh: PolyMesh, elems) -> list:
    """Oriented outer vertex loop of a union of fine elements, retaining
    every fine vertex on the boundary, from a dict of the directed edges
    whose reverse is not in the union. Raises for unions whose boundary is
    not a single simple loop (holes, pinched vertices, splits)."""
    seen = {}
    for k in elems:
        el = mesh.elements[k]
        for i in range(len(el)):
            a, b = int(el[i]), int(el[(i + 1) % len(el)])
            if (b, a) in seen:
                del seen[(b, a)]
            else:
                seen[(a, b)] = True
    succ = {}
    for a, b in seen:
        if a in succ:
            raise MeshError("cluster boundary is not a single loop")
        succ[a] = b
    if not succ:
        raise MeshError("empty cluster")
    start = min(succ)
    loop, cur = [start], succ[start]
    while cur != start:
        loop.append(cur)
        cur = succ[cur]
        if len(loop) > len(succ):
            raise MeshError("cluster boundary has multiple loops")
    if len(loop) != len(succ):
        raise MeshError("cluster boundary has multiple loops (hole or split)")
    return loop


def outline_or_error(mesh: PolyMesh, table: _Outlines, elems):
    """The loop of ``elems`` as its only cluster, or the MeshError message;
    checks the triangle inside and the element across each loop edge."""
    owner = table.owners()
    owner[list(elems)] = 0
    bd = table.boundaries(elems, owner).get(0, _Boundary())
    try:
        loop = bd.loop()
    except MeshError as exc:
        return str(exc)
    t = mesh.edges
    for a, b in zip(loop, loop[1:] + loop[:1]):
        sides = t.elem[t.find(a, b)].tolist()
        assert bd.inner[a] in elems
        assert sides == sorted([bd.inner[a], bd.across[a]], key=lambda e: (e < 0, e))
    return loop


def reference_or_error(mesh: PolyMesh, elems):
    try:
        return reference_boundary_loop(mesh, elems)
    except MeshError as exc:
        return str(exc)


def test_outline_matches_reference_on_320_partition():
    fine = triangulated_two_domain(48, jitter=0.25)
    table = _Outlines(fine)
    for cl in partition_assignment(fine, AgglomerationConfig(160, 160, seed=0)):
        loop = outline_or_error(fine, table, set(cl))
        assert isinstance(loop, list) and loop == reference_boundary_loop(fine, cl)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_outline_matches_reference_on_random_unions(seed):
    # face-connected unions grown at random: simple loops, holes and pinches
    fine = triangulated_two_domain(8, jitter=0.25, seed=seed)
    table = _Outlines(fine)
    pairs = fine.edges.elem[fine.edges.interior].tolist()
    adj = {k: set() for k in range(fine.n_elements)}
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    rng = np.random.default_rng(seed)
    outcomes = set()
    for _ in range(150):
        union = {int(rng.integers(fine.n_elements))}
        for _ in range(int(rng.integers(0, 40))):
            union.add(int(rng.choice(sorted(set().union(*(adj[e] for e in union)) - union))))
        got = outline_or_error(fine, table, union)
        assert got == reference_or_error(fine, union)
        outcomes.add(type(got))
    assert outcomes == {list, str}


def test_outline_raises_where_the_reference_does():
    square = eight_triangle_square()
    fine = triangulated_two_domain(8, jitter=0.25)
    # a ring: every triangle sharing a vertex with an interior one, but that one
    inner = next(k for k in range(fine.n_elements)
                 if not np.isin(fine.elements[k], fine.edges.key[~fine.edges.interior]).any())
    ring = {k for k in range(fine.n_elements)
            if k != inner and np.isin(fine.elements[k], fine.elements[inner]).any()}
    for mesh, elems, message in [
            (fine, ring, "cluster boundary has multiple loops (hole or split)"),
            (square, {0, 7}, "cluster boundary is not a single loop"),  # pinched at the centre
            (square, set(), "empty cluster")]:
        assert reference_or_error(mesh, elems) == message
        assert outline_or_error(mesh, _Outlines(mesh), elems) == message


@BOUNDED
@given(seed=st.integers(0, 10_000), targets=st.tuples(st.integers(1, 8), st.integers(1, 8)))
def test_agglomeration_invariants_across_seeds(seed, targets):
    fine = triangulated_two_domain(8, jitter=0.25, seed=seed)
    cfg = AgglomerationConfig(*targets, seed=seed)
    assignment = partition_assignment(fine, cfg)
    assert validate_partition(fine, assignment).valid
    coarse = agglomerate(fine, cfg, assignment)
    assert (coarse.element_domain.count(ELASTIC), coarse.element_domain.count(FLUID)) == targets
    assert coarse.interface_edges() == fine.interface_edges()
    assert coarse.boundary_edges() == set(coarse.boundary_labels)
    assert coarse.areas.sum() == pytest.approx(fine.areas.sum(), rel=1e-12)

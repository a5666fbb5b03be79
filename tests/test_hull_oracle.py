import itertools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import ConvexHull as SciHull

from hullmaps import (
    AmbiguousTieError,
    DegenerateConfigurationError,
    SamplingExhaustedError,
    TooManyPointsError,
    build_configuration,
    build_hull,
    classify_direction,
    classify_directions_bulk,
    cli,
    distances_to_boundary,
    distances_to_face,
    face_limit_probe,
    in_normal_spherical_polytope,
    minimal_face_containing,
    sample_boundary,
    sample_face_points,
    support_margin,
    write_points_csv,
)
from tests.brute_force_hull import assert_same_hull, brute_force_hull
from tests.conftest import random_configuration
from tests.recursive_distance import boundary_distance as recursive_boundary_distance
from tests.recursive_distance import distance_to_face as recursive_distance_to_face

DIAG = np.array([-1.0, -1.0]) / np.sqrt(2.0)


def _unit_sphere(rng, n, d):
    pts = rng.standard_normal((n, d))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def test_square_hull(square_hull):
    assert len(square_hull.facets) == 4
    normals = sorted(tuple(np.round(f.outward_normal, 9)) for f in square_hull.facets)
    assert normals == [(-1.0, -0.0), (-0.0, -1.0), (0.0, 1.0), (1.0, 0.0)]
    assert square_hull.vertices == (0, 1, 2, 3)


def test_square_with_center_flags(square_with_center):
    hull = build_hull(square_with_center)
    assert hull.vertex_flags == ("vertex",) * 4 + ("interior",)
    assert len(hull.facets) == 4
    assert hull.containing_face[4] is None


def test_boundary_nonvertex_flag():
    cfg = build_configuration([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.0]])
    hull = build_hull(cfg)
    assert hull.vertex_flags[4] == "boundary_nonvertex"
    face = hull.faces[hull.containing_face[4]]
    assert face.dim == 1 and set(face.vertex_indices) == {0, 1, 4}


def test_tetrahedron_counts(tetrahedron_hull):
    by_dim = {}
    for f in tetrahedron_hull.faces:
        by_dim[f.dim] = by_dim.get(f.dim, 0) + 1
    assert by_dim == {0: 4, 1: 6, 2: 4}


def test_euler_relation_d3():
    rng = np.random.default_rng(19)
    for _ in range(6):
        cfg = random_configuration(rng, int(rng.integers(5, 10)), 3)
        hull = build_hull(cfg)
        by_dim = {0: 0, 1: 0, 2: 0}
        for f in hull.faces:
            by_dim[f.dim] += 1
        assert by_dim[0] - by_dim[1] + by_dim[2] == 2


def test_lattice_closed_under_intersection(cube_hull):
    sets = [frozenset(f.vertex_indices) for f in cube_hull.faces]
    for a in sets:
        for b in sets:
            inter = a & b
            if inter:
                assert inter in sets


def test_vertices_match_scipy():
    rng = np.random.default_rng(4)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        cfg = random_configuration(rng, int(rng.integers(d + 2, 11)), d)
        hull = build_hull(cfg)
        sci = SciHull(cfg.points)
        assert set(hull.vertices) == set(sci.vertices.tolist())


def test_degenerate_rejected():
    cfg = build_configuration([[0, 0], [1, 1], [2, 2]])
    with pytest.raises(DegenerateConfigurationError):
        build_hull(cfg)


def test_size_limits_follow_map_contract(tmp_path):
    rng = np.random.default_rng(1)
    cfg = build_configuration(rng.standard_normal((31, 3)))
    assert_same_hull(build_hull(cfg), brute_force_hull(cfg))
    for n, d in ((1001, 3), (9, 7)):
        with pytest.raises(TooManyPointsError):
            build_configuration(rng.standard_normal((n, d)))
    path = tmp_path / "sphere.csv"
    write_points_csv(path, _unit_sphere(rng, 200, 3))
    assert cli.main(["hull", str(path), "--out", str(tmp_path / "hull.txt")]) == 0


def test_unit_sphere_hull_at_point_limit():
    pts = _unit_sphere(np.random.default_rng(2), 1000, 3)
    hull = build_hull(build_configuration(pts))
    by_dim = [len(hull.faces_of_dim(m)) for m in range(3)]
    assert by_dim[0] - by_dim[1] + by_dim[2] == 2
    assert set(hull.vertices) == set(SciHull(pts).vertices.tolist())
    slack = hull.offsets[:, None] - hull.normals @ pts.T
    assert slack.min() >= -hull.coplanarity_tol


def test_build_hull_memory_does_not_grow_with_facet_count():
    """The slack tests run in capped blocks: on 1000 sphere points (1996
    facets) the build peaks below 10 MiB of traced allocations, where one
    unblocked (facets, n) slack table alone would take 15.2 MiB."""
    pts = np.random.default_rng(0).standard_normal((1000, 3))
    config = build_configuration(pts / np.linalg.norm(pts, axis=1, keepdims=True))
    tracemalloc.start()
    try:
        hull = build_hull(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(hull.facets) == 1996
    assert peak < 10 * 2 ** 20


def test_coplanarity_tolerance_floor(tmp_path):
    cube = np.array(list(itertools.product((-1.0, 1.0), repeat=4)))
    path = tmp_path / "cube4.csv"
    write_points_csv(path, cube)
    for tol in ("0", "-1", "nan"):
        args = ["hull", str(path), "--out", str(tmp_path / "hull.txt"), "--tol-coplanar", tol]
        assert cli.main(args) == 2
    cfg = build_configuration(3.7 * cube - 0.3)
    floor = 16 * np.finfo(float).eps * np.abs(cfg.points).max()
    with pytest.raises(ValueError, match="at least"):
        build_hull(cfg, 0.99 * floor)
    tol = 1.01 * floor
    hull = build_hull(cfg, tol)
    assert (len(hull.facets), len(hull.vertices)) == (8, 16)
    assert_same_hull(hull, brute_force_hull(cfg, tol))


@pytest.mark.xfail(strict=True, reason="facet sets nest when the noise is near the "
                   "coplanarity tolerance")
def test_facet_sets_maximal_in_tolerance_band():
    rng = np.random.default_rng(0)
    cube = np.array([[a, b, c, e] for a in (-1, 1) for b in (-1, 1)
                     for c in (-1, 1) for e in (-1, 1)], dtype=float)
    hull = build_hull(build_configuration(cube + 1e-8 * rng.standard_normal(cube.shape)), 4e-9)
    sets = [frozenset(f.vertex_indices) for f in hull.facets]
    assert not any(a < b for a in sets for b in sets)


def test_import_skips_scipy_optimize():
    code = "import sys, hullmaps; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"


def test_classify_square_edge(square_hull):
    face = classify_direction(square_hull, [1.0, 0.0])
    assert face.dim == 1 and set(face.vertex_indices) == {1, 2}


def test_classify_triangle_vertex(triangle_hull):
    face = classify_direction(triangle_hull, DIAG)
    assert face.dim == 0 and face.vertex_indices == (0,)


def test_classify_cube_top_facet(cube_hull):
    face = classify_direction(cube_hull, [0.0, 0.0, 1.0])
    assert face.dim == 2
    pts = cube_hull.config.points[list(face.vertex_indices)]
    assert np.all(pts[:, 2] == 1.0)


def test_classify_ambiguous_tie(square_hull):
    n = np.array([1.0, 1.0]) / np.sqrt(2.0)
    with pytest.raises(AmbiguousTieError):
        classify_direction(square_hull, n, tie_tol=0.8)


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf, -np.inf])
def test_tie_tolerance_must_be_finite_and_nonnegative(square_hull, bad):
    n = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="tie tolerance"):
        classify_direction(square_hull, n, tie_tol=bad)
    with pytest.raises(ValueError, match="tie tolerance"):
        classify_directions_bulk(square_hull, [n], tie_tol=bad)


def test_zero_tie_tolerance_classifies(square_hull):
    n = np.array([1.0, 0.0])
    face = classify_direction(square_hull, n, tie_tol=0.0)
    assert face.dim == 1
    assert classify_directions_bulk(square_hull, [n], tie_tol=0.0).tolist() == [face.face_id]


def test_in_nsp_examples(triangle):
    assert in_normal_spherical_polytope(triangle, 0, DIAG, strict=True)
    assert not in_normal_spherical_polytope(triangle, 0, [1.0, 0.0])


def test_in_nsp_interior_point_empty(square_with_center):
    rng = np.random.default_rng(6)
    for _ in range(100):
        v = rng.standard_normal(2)
        v /= np.linalg.norm(v)
        assert not in_normal_spherical_polytope(square_with_center, 4, v, strict=True)


def test_oracle_equivalence_random():
    """Support-argmax classification against the direct inequality test."""
    rng = np.random.default_rng(8)
    for _ in range(8):
        d = int(rng.integers(2, 4))
        cfg = random_configuration(rng, int(rng.integers(4, 11)), d)
        hull = build_hull(cfg)
        dirs = rng.standard_normal((1000, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        ids = classify_directions_bulk(hull, dirs)
        for v, fid in zip(dirs, ids):
            if support_margin(hull, v) <= 1e-8:
                continue
            face = hull.faces[fid]
            assert face.dim == 0
            i = face.vertex_indices[0]
            assert in_normal_spherical_polytope(cfg, i, v, strict=True)
            for j in range(cfg.n_points):
                if j != i:
                    assert not in_normal_spherical_polytope(cfg, j, v, strict=True)


def test_tiling_no_ambiguity_random():
    rng = np.random.default_rng(14)
    cfg = random_configuration(rng, 8, 3)
    hull = build_hull(cfg)
    dirs = rng.standard_normal((2000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    ids = classify_directions_bulk(hull, dirs)
    assert np.all(ids >= 0)


def test_vertex_flags_match_random_support_argmax():
    rng = np.random.default_rng(21)
    cfg = random_configuration(rng, 9, 3)
    hull = build_hull(cfg)
    dirs = rng.standard_normal((10000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    support = dirs @ cfg.points.T
    top = support.argmax(axis=1)
    gap = np.partition(support, -2, axis=1)
    strict = gap[:, -1] - gap[:, -2] > 1e-9
    argmax_winners = set(top[strict].tolist())
    assert argmax_winners == set(hull.vertices)


def test_boundary_distance_examples(square_hull, triangle_hull):
    d = distances_to_boundary(square_hull, [[0.5, 0.5], [2.0, 0.5]])
    assert d[0] == pytest.approx(0.5, abs=1e-12)
    assert d[1] == pytest.approx(1.0, abs=1e-12)
    d = distances_to_boundary(triangle_hull, [1.0, 1.0])[0]
    assert d == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-12)


def _probe_points(rng, hull, n_inner, per_facet, n_outer):
    """Interior (Dirichlet combinations), boundary-sample and outside points."""
    pts = hull.config.points
    inner = rng.dirichlet(np.full(pts.shape[0], 0.5), size=n_inner) @ pts
    on_boundary, _ = sample_boundary(hull, per_facet, seed=int(rng.integers(1 << 30)))
    outer = rng.standard_normal((n_outer, hull.dim)) * 2.0
    return np.vstack([inner, on_boundary, outer])


def test_vectorized_distances_match_scalar():
    rng = np.random.default_rng(33)
    for d in (2, 3):
        cfg = random_configuration(rng, 8, d)
        hull = build_hull(cfg)
        pts = rng.standard_normal((60, d)) * 1.5
        vec = distances_to_boundary(hull, pts)
        scalar = np.array([recursive_boundary_distance(hull, p)[0] for p in pts])
        assert np.allclose(vec, scalar, atol=1e-9)
    # inside points take the smallest facet slack, boundary samples and
    # outside points the projection; both must agree with the recursion
    for d, n in ((2, 20), (3, 12), (3, 20), (4, 8), (4, 12), (5, 8)):
        cfg = random_configuration(rng, n, d)
        hull = build_hull(cfg)
        # the recursion revisits sub-faces once per path: fewer points in d = 5
        pts = _probe_points(rng, hull, *((12, 1, 8) if d == 5 else (40, 2, 20)))
        vec = distances_to_boundary(hull, pts)
        scalar = np.array([recursive_boundary_distance(hull, p)[0] for p in pts])
        assert np.abs(vec - scalar).max() <= 1e-12 * hull.diameter


def test_face_distances_match_recursive_oracle():
    """Every face of dimension >= 1, the cube's squares and the 4-cube's cubes among them."""
    rng = np.random.default_rng(34)
    configs = [random_configuration(rng, n, d) for d, n in ((2, 8), (3, 10), (4, 9), (5, 8))]
    configs += [build_configuration(list(itertools.product((-1.0, 1.0), repeat=d)))
                for d in (3, 4)]
    for cfg in configs:
        hull = build_hull(cfg)
        pts = _probe_points(rng, hull, 8, 1, 8)
        for face in hull.faces:
            if face.dim == 0:
                continue
            vec = distances_to_face(hull, face.face_id, pts)
            scalar = np.array([recursive_distance_to_face(hull, face.face_id, p) for p in pts])
            assert np.abs(vec - scalar).max() <= 1e-12 * hull.diameter


def test_brute_force_distance_oracle(square_hull):
    """Distance against dense boundary enumeration of the unit square."""
    rng = np.random.default_rng(40)
    t = np.linspace(0.0, 1.0, 20001)
    edge_points = np.vstack([
        np.column_stack([t, np.zeros_like(t)]),
        np.column_stack([t, np.ones_like(t)]),
        np.column_stack([np.zeros_like(t), t]),
        np.column_stack([np.ones_like(t), t]),
    ])
    for _ in range(20):
        p = rng.uniform(-0.5, 1.5, size=2)
        brute = np.linalg.norm(edge_points - p, axis=1).min()
        mine = distances_to_boundary(square_hull, p)[0]
        assert mine == pytest.approx(brute, abs=1e-4)


def test_sample_boundary_segment_hull():
    cfg = build_configuration([[0.0], [1.0]])
    hull = build_hull(cfg)
    pts, ids = sample_boundary(hull, per_facet=1, seed=0)
    assert sorted(pts.ravel().tolist()) == [0.0, 1.0]


def test_sample_boundary_square(square_hull):
    pts, ids = sample_boundary(square_hull, per_facet=3, seed=1)
    assert pts.shape == (12, 2)
    assert distances_to_boundary(square_hull, pts).max() < 1e-12


def test_sample_boundary_tetrahedron(tetrahedron_hull):
    pts, ids = sample_boundary(tetrahedron_hull, per_facet=10, seed=2)
    assert pts.shape == (40, 3)
    assert distances_to_boundary(tetrahedron_hull, pts).max() < 1e-12


def test_face_rejection_sampler_is_bounded(monkeypatch):
    """The 4-cube's facets are non-simplicial 3-faces, sampled by rejection; a
    membership check that rejects everything raises a typed error instead
    of looping on."""
    from hullmaps import hull_oracle

    hull = build_hull(build_configuration(list(itertools.product((-1.0, 1.0), repeat=4))))
    facet = hull.facets[0]
    assert len(facet.vertex_indices) == 8
    pts = sample_face_points(hull, facet.face_id, 3, seed=0)
    assert np.all(np.abs(pts @ facet.outward_normal - facet.offset) < 1e-12)
    monkeypatch.setattr(hull_oracle, "_in_hull", lambda hull, q: False)
    with pytest.raises(SamplingExhaustedError):
        sample_face_points(hull, facet.face_id, 3, seed=0)


def test_sample_face_points_on_edge(cube_hull):
    edge = [f for f in cube_hull.faces if f.dim == 1][0]
    pts = sample_face_points(cube_hull, edge.face_id, 50, seed=3)
    assert distances_to_face(cube_hull, edge.face_id, pts).max() < 1e-12


@pytest.mark.parametrize("hull_points", [
    np.random.default_rng(0).standard_normal((12, 4)),
    np.random.default_rng(1).standard_normal((10, 5)),
    np.array(list(itertools.product((-1.0, 1.0), repeat=4))),
], ids=["gauss-d4", "gauss-d5", "cube-d4"])
def test_sample_face_points_on_two_faces_in_high_dimension(hull_points):
    """Every 2-face of a d = 4 or 5 hull is sampled from its face-local
    coordinates: each sample lies within the coplanarity tolerance of the
    face, and on the 4-cube's square 2-faces the two fan triangles get equal
    weight, so the samples centre on the square."""
    hull = build_hull(build_configuration(hull_points))
    two_faces = [f for f in hull.faces if f.dim == 2]
    assert two_faces
    for face in two_faces:
        pts = sample_face_points(hull, face.face_id, 400, seed=4)
        assert distances_to_face(hull, face.face_id, pts).max() <= hull.coplanarity_tol
        if len(face.vertex_indices) == 4:
            centre = hull.face_points(face.face_id).mean(axis=0)
            assert np.abs(pts.mean(axis=0) - centre).max() < 0.1


def test_face_limit_probe_on_two_face_in_d4():
    config = build_configuration(np.random.default_rng(0).standard_normal((12, 4)))
    hull = build_hull(config)
    face = next(f for f in hull.faces if f.dim == 2)
    rep = face_limit_probe(config, hull, face.face_id, [1e-2], 0.3, 40, 1,
                           face_sample_count=50)
    assert rep.records[0].n_probe > 0


def test_minimal_face_containing(cube_hull):
    corner = cube_hull.config.points[0]
    face = minimal_face_containing(cube_hull, corner)
    assert face.dim == 0
    mid_top = np.array([0.0, 0.0, 1.0])
    face = minimal_face_containing(cube_hull, mid_top)
    assert face.dim == 2
    assert minimal_face_containing(cube_hull, [0.0, 0.0, 0.0]) is None


def test_fan_union_covers_sphere_d1():
    cfg = build_configuration([[0.0], [2.0], [1.0]])
    hull = build_hull(cfg)
    assert hull.vertex_flags == ("vertex", "vertex", "interior")
    left = classify_direction(hull, [-1.0])
    right = classify_direction(hull, [1.0])
    assert left.vertex_indices == (0,)
    assert right.vertex_indices == (1,)

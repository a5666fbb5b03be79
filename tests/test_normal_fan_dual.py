import numpy as np
import pytest

from hullmaps import (
    DimensionUnsupportedError,
    NotOnBoundaryError,
    TooManyPointsError,
    build_configuration,
    build_hull,
    classify_direction,
    distances_to_boundary,
    dual_combinatorics_check,
    flattened_spherical_dual,
    outer_normal_transform,
    sample_boundary,
    sample_face_points,
    spherical_dual,
)
from hullmaps import normal_fan_dual
from hullmaps.cli import main
from hullmaps.fileio import write_points_csv
from tests import hull_loop
from tests.conftest import random_configuration, truncated_tetrahedron_points
from tests.definitions import gauss_map, minimal_face_containing, w_set_contains
from tests.test_hull_differential import _cube, _duality_polytopes


def _cells_by_dir_count(cells):
    out = {}
    for c in cells:
        k = c.vertex_dirs.shape[0]
        out[k] = out.get(k, 0) + 1
    return out


def test_square_fan(square_hull):
    cells = spherical_dual(square_hull).cells
    assert _cells_by_dir_count(cells) == {1: 4, 2: 4}
    # rays are the facet normals themselves
    rays = [c for c in cells if c.vertex_dirs.shape[0] == 1]
    normals = sorted(tuple(np.round(c.vertex_dirs[0], 9)) for c in rays)
    assert normals == [(-1.0, -0.0), (-0.0, -1.0), (0.0, 1.0), (1.0, 0.0)]


def test_cube_fan_counts(cube_hull):
    cells = spherical_dual(cube_hull).cells
    assert _cells_by_dir_count(cells) == {1: 6, 2: 12, 3: 8}
    for c in cells:
        face = cube_hull.faces[c.face_id]
        assert c.cell_dim + 1 == 3 - face.dim
        if face.dim == 0:
            assert np.linalg.matrix_rank(c.vertex_dirs) == 3


def test_triangle_vertex_cone(triangle_hull):
    cells = spherical_dual(triangle_hull).cells
    origin_cell = [
        c for c in cells if triangle_hull.faces[c.face_id].vertex_indices == (0,)
    ][0]
    gens = sorted(tuple(np.round(g, 9)) for g in origin_cell.vertex_dirs)
    assert gens == [(-1.0, -0.0), (-0.0, -1.0)]


def test_fan_incidence_property(cube_hull):
    cells = {c.face_id: c for c in spherical_dual(cube_hull).cells}
    faces = {f.face_id: f for f in cube_hull.faces}
    for a in faces.values():
        for b in faces.values():
            if frozenset(a.vertex_indices) < frozenset(b.vertex_indices):
                gens_sub = {tuple(np.round(g, 9)) for g in cells[a.face_id].vertex_dirs}
                gens_sup = {tuple(np.round(g, 9)) for g in cells[b.face_id].vertex_dirs}
                assert gens_sup < gens_sub


def test_facet_normals_pairwise_distinct(truncated_tetrahedron_hull):
    normals = [f.outward_normal for f in truncated_tetrahedron_hull.facets]
    for i in range(len(normals)):
        for j in range(i + 1, len(normals)):
            assert np.dot(normals[i], normals[j]) < 1.0 - 1e-9


def test_gauss_map_square_edge_interior(square_hull):
    g = gauss_map(square_hull, [0.5, 0.0])
    assert g.cell_dim == 0
    assert np.allclose(g.vertex_dirs[0], [0.0, -1.0], atol=1e-12)


def test_gauss_map_square_vertex(square_hull):
    g = gauss_map(square_hull, [0.0, 0.0])
    assert g.face_dim == 0
    dirs = sorted(tuple(np.round(v, 9)) for v in g.vertex_dirs)
    assert dirs == [(-1.0, -0.0), (-0.0, -1.0)]


def test_gauss_map_facet_centroid(tetrahedron_hull):
    facet = tetrahedron_hull.facets[0]
    centroid = tetrahedron_hull.face_points(facet.face_id).mean(axis=0)
    g = gauss_map(tetrahedron_hull, centroid)
    assert g.cell_dim == 0
    assert np.allclose(g.vertex_dirs[0], facet.outward_normal, atol=1e-12)


def test_gauss_map_rejects_off_boundary(square_hull):
    with pytest.raises(NotOnBoundaryError):
        gauss_map(square_hull, [0.5, 0.5])


@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
def test_gauss_map_facet_cell_at_every_scale(scale):
    """The tolerance scales with the hull: a facet's centroid maps to the
    facet's cell whatever the size of the cube."""
    hull = build_hull(build_configuration(scale * _cube(3)))
    facet = max(hull.facets, key=lambda f: f.outward_normal[2])
    g = gauss_map(hull, hull.face_points(facet.face_id).mean(axis=0))
    assert (g.face_id, g.cell_dim) == (facet.face_id, 0)
    assert np.array_equal(g.vertex_dirs, facet.outward_normal[None, :])


@pytest.mark.parametrize("d, n, seed", [(3, 12, 0), (3, 40, 0), (4, 9, 1), (4, 11, 2)])
def test_gauss_map_matches_one_point_queries(monkeypatch, d, n, seed):
    """gauss_map equals distances_to_boundary + minimal_face_containing, and
    measures each facet distance once."""
    from hullmaps import hull_oracle

    hull = build_hull(random_configuration(np.random.default_rng(seed), n, d))
    pts, _ = sample_boundary(hull, 1, seed=seed)
    tol = hull.coplanarity_tol
    expected = []
    for x in pts:
        assert distances_to_boundary(hull, x)[0] <= tol
        face = minimal_face_containing(hull, x, tol)
        expected.append((face.face_id, face.dim, np.asarray(
            [hull.facets[k].outward_normal for k in face.facet_rows]).tobytes()))

    calls = []
    face_distance = hull_oracle.distances_to_face
    monkeypatch.setattr(hull_oracle, "distances_to_face",
                        lambda *args: calls.append(1) or face_distance(*args))
    for x, want in zip(pts, expected):
        g = gauss_map(hull, x)
        assert (g.face_id, g.face_dim, g.vertex_dirs.tobytes()) == want
    assert len(calls) == len(pts) * len(hull.facets)


def test_gauss_inverse_duality(cube_hull):
    rng = np.random.default_rng(12)
    for facet in cube_hull.facets:
        pts = sample_face_points(cube_hull, facet.face_id, 5, seed=int(facet.face_id))
        interior = pts[
            np.all(np.abs(pts[:, np.abs(facet.outward_normal) < 0.5]) < 0.9, axis=1)
        ]
        for x in interior:
            g = gauss_map(cube_hull, x)
            if g.cell_dim != 0:
                continue
            face = classify_direction(cube_hull, g.vertex_dirs[0])
            assert face.face_id == facet.face_id


@pytest.mark.parametrize("d, n, seed", [(2, 9, 3), (3, 14, 4), (4, 10, 5)])
def test_gauss_map_at_face_centroid_is_the_dual_cell(d, n, seed):
    hull = build_hull(random_configuration(np.random.default_rng(seed), n, d))
    cells = spherical_dual(hull).cells
    for face in hull.faces:
        want = cells[face.face_id]
        got = gauss_map(hull, hull.face_points(face.face_id).mean(axis=0))
        assert (got.face_id, got.face_dim, got.cell_dim) == (want.face_id, want.face_dim,
                                                              want.cell_dim)
        assert got.face_id == face.face_id
        assert got.vertex_dirs.shape == want.vertex_dirs.shape
        assert got.vertex_dirs.tobytes() == want.vertex_dirs.tobytes()


def test_w_set_square_edge(square_hull):
    top = [f for f in square_hull.facets if np.allclose(f.outward_normal, [0, 1])][0]
    assert w_set_contains(square_hull, top.face_id, [0.0, 1.0])
    # direction in a top vertex's open cell
    v = np.array([0.6, 0.8])
    assert w_set_contains(square_hull, top.face_id, v)
    assert not w_set_contains(square_hull, top.face_id, [0.0, -1.0])


def test_w_set_needs_positive_dimension(square_hull):
    vertex_face = [f for f in square_hull.faces if f.dim == 0][0]
    with pytest.raises(ValueError):
        w_set_contains(square_hull, vertex_face.face_id, [1.0, 0.0])


def test_w_set_openness_proxy(cube_hull):
    """Perturbations well below the classification margin stay in the open set."""
    rng = np.random.default_rng(3)
    top = [f for f in cube_hull.facets if np.allclose(f.outward_normal, [0, 0, 1])][0]
    hits = 0
    for _ in range(200):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        if not w_set_contains(cube_hull, top.face_id, v):
            continue
        s = np.sort(cube_hull.config.points @ v)  # the top two support values' gap
        delta = (s[-1] - s[-2]) / cube_hull.diameter
        if delta < 1e-3:
            continue
        for _ in range(5):
            w = v + rng.standard_normal(3) * delta / 4.0
            w /= np.linalg.norm(w)
            if np.arccos(np.clip(v @ w, -1, 1)) <= delta / 2.0:
                assert w_set_contains(cube_hull, top.face_id, w)
        hits += 1
    assert hits > 10


def test_spherical_dual_counts(cube_hull):
    complex_ = spherical_dual(cube_hull)
    assert complex_.cell_counts == (6, 12, 8)  # by cell dimension 0, 1, 2
    assert len(complex_.cells) == len(cube_hull.faces)
    # incidence is containment-reversing and matches the face lattice size
    sets = {f.face_id: frozenset(f.vertex_indices) for f in cube_hull.faces}
    for a, b in complex_.incidence:
        assert sets[a] < sets[b]


@pytest.mark.parametrize("d, n, seed", [(2, 9, 0), (3, 14, 1), (3, 30, 2), (4, 11, 3),
                                        (5, 10, 4), (3, 300, None)])
def test_spherical_dual_incidence_is_every_subset_pair(d, n, seed):
    """The incidence walked down the face lattice is the complete, sorted list
    of strict point-set containments, as an all-pairs scan finds them.  With
    no seed, the points lie on the unit sphere."""
    if seed is None:
        pts = np.random.default_rng(3).standard_normal((n, d))
        cfg = build_configuration(pts / np.linalg.norm(pts, axis=1)[:, None])
    else:
        cfg = random_configuration(np.random.default_rng(seed), n, d)
    hull = build_hull(cfg)
    sets = {f.face_id: frozenset(f.vertex_indices) for f in hull.faces}
    oracle = [(a.face_id, b.face_id) for a in hull.faces for b in hull.faces
              if a.face_id != b.face_id and sets[a.face_id] < sets[b.face_id]]
    assert spherical_dual(hull).incidence == tuple(sorted(oracle))


def test_flattened_dual_cube_is_octahedron(cube_hull):
    cells = flattened_spherical_dual(cube_hull)
    assert len(cells) == 8
    for _, dirs in cells:
        assert dirs.shape == (3, 3)
        assert np.abs(np.linalg.norm(dirs, axis=1) - 1.0).max() < 1e-12
    all_dirs = {tuple(np.round(v, 9)) for _, dirs in cells for v in dirs}
    assert len(all_dirs) == 6  # the octahedron vertices +-e_i


def test_flattened_dual_tetrahedron(tetrahedron_hull):
    cells = flattened_spherical_dual(tetrahedron_hull)
    assert len(cells) == 4
    for _, dirs in cells:
        assert dirs.shape == (3, 3)


def test_flattened_dual_truncated_tetrahedron(truncated_tetrahedron_hull):
    # 12 hull vertices give 12 triangular cells over the 8 facet normals,
    # pairing up into coplanar triangles on the cube's square faces
    cells = flattened_spherical_dual(truncated_tetrahedron_hull)
    assert len(cells) == 12
    planes = []
    for _, dirs in cells:
        assert dirs.shape == (3, 3)
        center = dirs.mean(axis=0)
        _, _, vh = np.linalg.svd(dirs - center)
        normal = vh[-1]
        offset = float(np.mean(dirs @ normal))
        if offset < 0:
            normal, offset = -normal, -offset
        planes.append(np.round(np.concatenate([normal, [offset]]), 8))
    unique_planes = {tuple(p) for p in planes}
    assert len(unique_planes) == 6  # coplanar pairs on the six cube faces


def test_flattened_dual_requires_d3(square_hull):
    with pytest.raises(DimensionUnsupportedError):
        flattened_spherical_dual(square_hull)


def test_transform_cube_to_octahedron(cube_hull):
    tr = outer_normal_transform(cube_hull)
    assert len(tr.vertices) == 6
    assert len(tr.facets) == 8


def test_transform_tetrahedron(tetrahedron_hull):
    tr = outer_normal_transform(tetrahedron_hull)
    assert len(tr.vertices) == 4
    assert len(tr.facets) == 4


def test_transform_truncated_tetrahedron(truncated_tetrahedron_hull):
    tr = outer_normal_transform(truncated_tetrahedron_hull)
    assert len(tr.vertices) == 8
    assert len(tr.facets) == 6  # combinatorial cube, diagonals absorbed


def test_dual_check_fixtures(cube_hull, tetrahedron_hull, truncated_tetrahedron_hull):
    res = dual_combinatorics_check(cube_hull)
    assert res.equivalent is True and res.flattened_convex is True
    res = dual_combinatorics_check(tetrahedron_hull)
    assert res.equivalent is True and res.flattened_convex is True
    res = dual_combinatorics_check(truncated_tetrahedron_hull)
    assert res.equivalent is False and res.flattened_convex is False


def _polar_vertices(points):
    """Vertices of {x : <p, x> <= 1 for all p}; the origin must be inside conv(points)."""
    hull = build_hull(build_configuration(points))
    assert min(f.offset for f in hull.facets) > 0.0
    return np.asarray([f.outward_normal / f.offset for f in hull.facets])


def test_dual_check_agreement_properties():
    """The two booleans agree on every d=3 hull we can throw at them."""
    rng = np.random.default_rng(77)
    fixtures = []
    # octahedron
    fixtures.append([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]])
    # square pyramid
    fixtures.append([[1, 1, 0], [1, -1, 0], [-1, 1, 0], [-1, -1, 0], [0, 0, 1.3]])
    # perturbed cube
    cube = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)], float)
    fixtures.append(cube + 1e-3 * rng.standard_normal(cube.shape))
    # perturbed truncated tetrahedron
    tt = truncated_tetrahedron_points()
    fixtures.append(tt + 1e-3 * rng.standard_normal(tt.shape))
    for _ in range(4):
        fixtures.append(rng.standard_normal((int(rng.integers(5, 9)), 3)))
    # simple polytope: a triangular prism whose five facet normals span a
    # bipyramid with other apexes, so that hull is abstractly dual to the
    # prism but not under the facet-to-normal labelling
    fixtures.append(_polar_vertices([[-0.4, -0.4, 1.2], [-0.4, 0.2, -0.4], [0.7, -0.2, 0.0],
                                     [-0.5, 1.5, -0.3], [-0.5, -0.6, 0.0]]))
    # simple polytopes: polars of random points centred on the origin
    for m in (5, 6, 7, 8):
        u = rng.standard_normal((m, 3))
        u *= rng.uniform(0.7, 1.3, m)[:, None] / np.linalg.norm(u, axis=1)[:, None]
        u -= u.mean(axis=0)
        fixtures.append(_polar_vertices(u))
    for pts in fixtures:
        cfg = build_configuration(pts)
        from hullmaps import is_nondegenerate

        if not is_nondegenerate(cfg):
            continue
        res = dual_combinatorics_check(build_hull(cfg))
        assert res.equivalent == res.flattened_convex


def test_vertex_cells_and_convexity_match_loop(monkeypatch):
    """The stacked vertex cells and plane tests equal the per-vertex loop's:
    the same cyclic facet orders, and the same convexity verdict at four
    planarity tolerances (set through ``FLATTEN_PLANARITY_TOL``), on the
    duality polytopes and their normals' hulls, Gaussian sets, sphere points
    and perturbed cubes."""
    rng = np.random.default_rng(12)
    cases = [np.asarray(pts, dtype=float) for pts in _duality_polytopes()]
    cases += [rng.standard_normal((n, 3)) for n in (5, 8, 12, 20, 40, 100)]
    sphere = rng.standard_normal((300, 3))
    cases.append(sphere / np.linalg.norm(sphere, axis=1, keepdims=True))
    cases += [_cube(3) + noise * rng.standard_normal((8, 3))
              for noise in (1e-2, 1e-3, 1e-4, 1e-6) for _ in range(3)]
    verdicts = set()
    for pts in cases:
        hull = build_hull(build_configuration(pts))
        for h in (hull, outer_normal_transform(hull)):
            got = normal_fan_dual._vertex_cells(h)
            want = hull_loop.vertex_cells(h)
            assert [(i, p.tolist()) for i, p in got] == [(i, p.tolist()) for i, p in want]
            cells = [p for _, p in got]
            for tol in (1e-12, 1e-7, 1e-4, 1e-2):
                monkeypatch.setattr(normal_fan_dual, "FLATTEN_PLANARITY_TOL", tol)
                # the convexity half of the check: a transform hull's own
                # normals can exceed the 1000-point limit of its other half
                verdict = normal_fan_dual._flattened_convex(h, cells)
                if h is hull:
                    assert dual_combinatorics_check(h).flattened_convex == verdict
                assert verdict == hull_loop.flattened_convex(h, tol)
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_dual_check_equivalent_matches_transform_facets():
    """The check finds only the normals' facets; its ``equivalent`` equals the
    comparison of the vertex stars with the facet sets of the normals' full
    hull, on the duality polytopes, seeded sets and seven perturbed cubes,
    three of which keep equivalent=False, flattened_convex=True."""
    rng = np.random.default_rng(21)
    cases = [np.asarray(pts, dtype=float) for pts in _duality_polytopes()]
    cases += [rng.standard_normal((n, 3)) for n in (5, 8, 12, 20, 40, 100)]
    sphere = rng.standard_normal((200, 3))
    cases.append(sphere / np.linalg.norm(sphere, axis=1, keepdims=True))
    noise_rng = np.random.default_rng(5)
    cubes = [_cube(3) + noise * noise_rng.standard_normal((8, 3))
             for noise in (1e-2, 1e-2, 1e-3, 1e-3, 1e-4, 1e-4, 1e-4)]
    split = []
    for pts in cases + cubes:
        hull = build_hull(build_configuration(pts))
        got = dual_combinatorics_check(hull)
        stars = {frozenset(p.tolist()) for _, p in normal_fan_dual._vertex_cells(hull)}
        facet_sets = {frozenset(f.vertex_indices) for f in outer_normal_transform(hull).facets}
        assert got.equivalent == (stars == facet_sets)
        split.append((got.equivalent, got.flattened_convex) == (False, True))
    assert not any(split[:len(cases)])
    assert split[len(cases):] == [False] * 4 + [True] * 3


def test_duality_builds_no_lattice(lattice_builds):
    """The duality check and the flattened dual read the facet incidences, not
    the face lattice: neither builds it on the duality polytopes or on seeded
    Gaussian sets (``_vertex_cells`` is checked against the lattice's vertex
    cells in ``test_vertex_cells_and_convexity_match_loop``)."""
    rng = np.random.default_rng(22)
    cases = [np.asarray(pts, dtype=float) for pts in _duality_polytopes()]
    cases += [rng.standard_normal((n, 3)) for n in (8, 11, 14)]
    for pts in cases:
        hull = build_hull(build_configuration(pts))
        dual_combinatorics_check(hull)
        flattened_spherical_dual(hull)
    assert lattice_builds == []
    assert len(hull.faces) > 0 and lattice_builds == [hull]


def test_dual_check_requires_d3(square_hull):
    with pytest.raises(DimensionUnsupportedError):
        dual_combinatorics_check(square_hull)


def test_normals_hull_names_the_facet_limit(tmp_path, capsys):
    """600 sphere points are within the hull's limit, but their 1196 facet normals are not."""
    v = np.random.default_rng(0).standard_normal((600, 3))
    sphere = v / np.linalg.norm(v, axis=1, keepdims=True)
    hull = build_hull(build_configuration(sphere))
    assert len(hull.facets) == 1196
    with pytest.raises(TooManyPointsError, match="at most 1000 facets; this hull has 1196"):
        outer_normal_transform(hull)
    with pytest.raises(TooManyPointsError, match="at most 1000 facets; this hull has 1196"):
        dual_combinatorics_check(hull)
    src = tmp_path / "sphere.csv"
    write_points_csv(src, sphere)
    assert main(["dual", str(src), "--out", str(tmp_path / "dual.txt")]) == 2
    assert "this hull has 1196" in capsys.readouterr().err

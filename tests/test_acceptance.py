"""Acceptance suite: every criterion at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output block).  Criteria involving random sweeps use fixed
seeds so the suite is reproducible.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from hullmaps import (
    SamplePlan,
    arctan_family,
    build_configuration,
    build_hull,
    classify_directions_bulk,
    concave_turn_indices,
    degenerate_limit_probe,
    distances_to_boundary,
    dual_combinatorics_check,
    evaluate_batch_array,
    face_limit_probe,
    graph_limit_demo,
    is_nondegenerate,
    nonconvexity_probe,
    outer_normal_transform,
    theorem_sweep,
    weights_batch_array,
)
from hullmaps.cli import main
from hullmaps.fileio import (
    read_dual_descriptor,
    read_hull_document,
    read_obj_mesh,
    read_points_csv,
    read_report_csv,
    write_obj_mesh,
    write_points_csv,
)
from tests.conftest import random_configuration, truncated_tetrahedron_points
from tests.definitions import in_normal_spherical_polytope


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label}")


def _random_sweep_configs(rng, count=250):
    """Shared (config, hull) pool for criteria 1-3: d in 2..4, n <= 12."""
    out = []
    for _ in range(count):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(d + 2, 13))
        out.append(random_configuration(rng, n, d))
    return out


@pytest.fixture(scope="module")
def sweep_pool():
    rng = np.random.default_rng(20240801)
    configs = _random_sweep_configs(rng, 250)
    samples = []
    for idx, cfg in enumerate(configs):
        sub = np.random.default_rng(1000 + idx)
        dirs = sub.standard_normal((40, cfg.dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        eps = 10.0 ** sub.uniform(-4, -1, size=40)
        samples.append((cfg, eps, dirs))
    return samples


def test_criterion_01_weight_normalization(sweep_pool):
    with criterion("criterion 1: weight normalization over 10^4 random triples"):
        t0 = time.perf_counter()
        n_triples = 0
        for cfg, eps_arr, dirs in sweep_pool:
            for eps_val in np.unique(np.round(eps_arr, 12)):
                sel = np.isclose(eps_arr, eps_val)
                lam, _, _ = weights_batch_array(cfg, float(eps_val), dirs[sel])
                assert np.abs(lam.sum(axis=1) - 1.0).max() <= 1e-12
                assert np.all(lam > 0.0) and np.all(lam < 1.0)
                n_triples += int(sel.sum())
        elapsed = time.perf_counter() - t0
        assert n_triples >= 10_000
        assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"


@pytest.fixture(scope="module")
def sweep_images(sweep_pool):
    out = []
    for cfg, eps_arr, dirs in sweep_pool:
        hull = build_hull(cfg)
        images = np.vstack([
            evaluate_batch_array(cfg, float(e), v[None, :])
            for e, v in zip(eps_arr, dirs)
        ])
        out.append((cfg, hull, images))
    return out


def test_criterion_02_interior_containment(sweep_images):
    """Every image stays interior; contact is tolerated only at fp resolution.

    Deep inside a vertex cell the true boundary distance falls below what
    doubles can represent near the boundary coordinates, so a zero distance
    counts as a violation only if the point also fails closed-hull
    containment within 1e-12.
    """
    with criterion("criterion 2: interior containment of every image point"):
        violations = 0
        for cfg, hull, images in sweep_images:
            dists = distances_to_boundary(hull, images)
            suspect = np.flatnonzero(dists <= 0.0)
            for k in suspect:
                gaps = [
                    float(images[k] @ f.outward_normal - f.offset)
                    for f in hull.facets
                ]
                if max(gaps) > 1e-12:
                    violations += 1
        assert violations == 0


def test_criterion_03_limit_factor_dichotomy(sweep_images):
    with criterion("criterion 3: zero-eps factor dichotomy and vertex identity"):
        rng = np.random.default_rng(99)
        checked = 0
        for cfg, hull, _ in sweep_images[:20]:
            n, d = cfg.n_points, cfg.dim
            dirs = rng.standard_normal((10_000, d))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            factors = np.empty((dirs.shape[0], n))
            for i in range(n):
                dots = dirs @ cfg.pairwise_dirs[i].T
                relu = np.maximum(0.0, -dots)
                relu[:, i] = 1.0
                factors[:, i] = relu.prod(axis=1)
            positive = factors > 0.0
            counts = positive.sum(axis=1)
            assert counts.max() <= 1
            winners = set(np.flatnonzero(positive.any(axis=0)).tolist())
            assert winners <= set(hull.vertices)
            checked += dirs.shape[0]
        assert checked >= 10_000 * 20


def test_criterion_04_classification_oracle_equivalence():
    with criterion("criterion 4: support argmax vs inequality oracle agreement"):
        rng = np.random.default_rng(123)
        for _ in range(20):
            d = int(rng.integers(2, 4))
            cfg = random_configuration(rng, int(rng.integers(d + 2, 11)), d)
            hull = build_hull(cfg)
            dirs = rng.standard_normal((1000, d))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            ids = classify_directions_bulk(hull, dirs)
            for v, fid in zip(dirs, ids):
                s = np.sort(cfg.points @ v)  # the top two support values' gap
                if s[-1] - s[-2] <= 1e-8:
                    continue
                face = hull.faces[fid]
                assert face.dim == 0
                i = face.vertex_indices[0]
                assert in_normal_spherical_polytope(cfg, i, v, strict=True)


@pytest.fixture(scope="module")
def convergence_reports():
    rng = np.random.default_rng(42424)
    reports = []
    for k in range(10):
        d = 2 if k < 5 else 3
        n = int(rng.integers(4, 11)) if d == 2 else int(rng.integers(5, 9))
        cfg = random_configuration(rng, n, d)
        hull = build_hull(cfg)
        strategy = "uniform_grid_2d" if d == 2 else "fibonacci_3d"
        plan = SamplePlan(dim=d, strategy=strategy, count=10_000, seed=500 + k)
        t0 = time.perf_counter()
        rep = theorem_sweep(cfg, hull, [1e-1, 1e-2, 1e-3, 1e-4], plan,
                            boundary_per_facet=200, config_id=f"random-{k}")
        reports.append((rep, time.perf_counter() - t0))
    return reports


def test_criterion_05_outer_limit(convergence_reports):
    with criterion("criterion 5: outer-limit decay rate on 10 random configurations"):
        for rep, elapsed in convergence_reports:
            assert 0.8 <= rep.slope <= 1.2, f"{rep.config_id}: slope {rep.slope:.3f}"
            assert rep.records[-1].outer_dist < 0.01 * rep.diameter
            assert elapsed < 120.0, f"{rep.config_id}: {elapsed:.0f}s over budget"


def test_criterion_06_inner_limit(convergence_reports):
    with criterion("criterion 6: inner-limit coverage with cap augmentation"):
        for rep, _ in convergence_reports:
            assert rep.records[-1].inner_dist < 0.05 * rep.diameter, (
                f"{rep.config_id}: inner {rep.records[-1].inner_dist:.4f} "
                f"vs diam {rep.diameter:.3f}"
            )


def test_criterion_07_face_limits():
    with criterion("criterion 7: face-limit probes and negative control"):
        eps_list = [1e-1, 1e-2, 1e-3, 1e-4]
        # triangle edge
        tri = build_configuration([[0, 0], [1, 0], [0, 1]])
        tri_hull = build_hull(tri)
        edge = [f for f in tri_hull.faces
                if f.dim == 1 and set(f.vertex_indices) == {1, 2}][0]
        rep = face_limit_probe(tri, tri_hull, edge.face_id, eps_list, 0.4, 3000, 5)
        last = rep.records[-1]
        assert last.outer_dist < 0.05 * tri_hull.diameter
        assert last.inner_dist < 0.05 * tri_hull.diameter

        # cube facet
        cube = build_configuration(
            [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
        )
        cube_hull = build_hull(cube)
        top = [f for f in cube_hull.facets
               if np.allclose(f.outward_normal, [0, 0, 1])][0]
        rep3 = face_limit_probe(cube, cube_hull, top.face_id, eps_list, 0.3, 4000, 6)
        last3 = rep3.records[-1]
        assert last3.outer_dist < 0.05 * cube_hull.diameter
        assert last3.inner_dist < 0.05 * cube_hull.diameter

        # negative control: probe confined to one vertex's open cell
        vertex = [f for f in tri_hull.faces if f.vertex_indices == (1,)][0]
        neg = face_limit_probe(tri, tri_hull, edge.face_id, [1e-4], 0.2, 3000, 5,
                               center_face=vertex.face_id)
        edge_length = float(np.sqrt(2.0))
        assert neg.records[0].inner_dist > 0.2 * edge_length


def test_criterion_08_degenerate_remark():
    with criterion("criterion 8: degenerate configuration fills its hull"):
        cfg = build_configuration([[0.0, 0.0], [0.4, 0.0], [1.0, 0.0]])
        plan = SamplePlan(dim=2, strategy="uniform_grid_2d", count=4000, seed=2)
        rep = degenerate_limit_probe(cfg, [1e-1, 1e-2, 1e-3, 1e-4], plan)
        assert rep.span_dim == 1
        assert rep.records[-1].sym_dist < 0.02 * rep.extent


def test_criterion_09_duality_fixture_suite():
    with criterion("criterion 9: duality verdicts on the three fixtures"):
        cube = build_hull(build_configuration(
            [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
        ))
        res = dual_combinatorics_check(cube)
        assert res.equivalent is True and res.flattened_convex is True

        tet = build_hull(build_configuration(
            [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
        ))
        res = dual_combinatorics_check(tet)
        assert res.equivalent is True and res.flattened_convex is True

        tt = build_hull(build_configuration(truncated_tetrahedron_points()))
        res = dual_combinatorics_check(tt)
        assert res.equivalent is False and res.flattened_convex is False
        transform = outer_normal_transform(tt)
        assert len(transform.vertices) == 8
        assert len(transform.facets) == 6


def test_criterion_10_arctan_family_demo():
    with criterion("criterion 10: arctan-family graph convergence"):
        grid = np.linspace(-10.0, 10.0, 10001)
        recs = graph_limit_demo([0.1, 0.01, 0.001], grid)
        dists = [r.sym_dist for r in recs]
        assert all(b < a for a, b in zip(dists, dists[1:]))
        assert float(arctan_family(0.1, 0.1)) == pytest.approx(0.45, abs=1e-12)
        for r in recs:
            assert abs(r.range_hi - (1.0 - r.epsilon)) < 0.01
            assert abs(r.range_lo + (1.0 - r.epsilon)) < 0.01


def test_criterion_11_indentation():
    with criterion("criterion 11: image polyline indentation for the triangle"):
        tri = build_configuration([[0, 0], [1, 0], [0, 1]])
        plan = SamplePlan(dim=2, strategy="uniform_grid_2d", count=2000)
        idx = nonconvexity_probe(tri, 0.1, plan)
        assert len(idx) > 0
        # a single point is not a configuration at all
        with pytest.raises(ValueError):
            build_configuration([[0.0, 0.0]])
        # and the hull polygon of the 3-gon itself stays convex
        hull = build_hull(tri)
        verts = tri.points[list(hull.vertices)]
        center = verts.mean(axis=0)
        order = np.argsort(np.arctan2(*(verts - center).T[::-1]))
        assert concave_turn_indices(verts[order]) == []


def test_criterion_12_determinism_and_roundtrip(tmp_path):
    with criterion("criterion 12: CLI determinism and file round trips"):
        src = tmp_path / "tri.csv"
        write_points_csv(src, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

        # byte-identical repeated runs
        args = ["--eps", "0.01", "--samples", "600", "--seed", "11"]
        for name in ("a", "b"):
            assert main(["approx", str(src), "--out", str(tmp_path / f"{name}.csv")]
                        + args) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

        for name in ("h1", "h2"):
            assert main(["hull", str(src), "--out", str(tmp_path / f"{name}.txt")]) == 0
        assert (tmp_path / "h1.txt").read_bytes() == (tmp_path / "h2.txt").read_bytes()

        cube_src = tmp_path / "cube.csv"
        write_points_csv(
            cube_src, [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
        )
        for name in ("d1", "d2"):
            assert main(["dual", str(cube_src), "--out", str(tmp_path / f"{name}.txt")]) == 0
        assert (tmp_path / "d1.txt").read_bytes() == (tmp_path / "d2.txt").read_bytes()
        assert (tmp_path / "d1_flattened.obj").read_bytes() == \
            (tmp_path / "d2_flattened.obj").read_bytes()

        # converge: all data columns identical across runs (wall_ms is timing)
        cargs = ["--samples", "500", "--eps-list", "0.1,0.01",
                 "--boundary-per-facet", "50", "--seed", "3"]
        for name in ("r1", "r2"):
            assert main(["converge", str(src), "--out", str(tmp_path / f"{name}.csv")]
                        + cargs) == 0
        rows1 = read_report_csv(tmp_path / "r1.csv")
        rows2 = read_report_csv(tmp_path / "r2.csv")
        for a, b in zip(rows1, rows2):
            for key in ("epsilon", "outer_dist", "inner_dist", "n_samples"):
                assert a[key] == b[key]

        # round trips reproduce data exactly (well within 1e-12)
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((25, 3))
        write_points_csv(tmp_path / "p.csv", pts)
        assert np.array_equal(read_points_csv(tmp_path / "p.csv"), pts)
        write_obj_mesh(tmp_path / "p.obj", pts, ())
        assert np.array_equal(read_obj_mesh(tmp_path / "p.obj")[0], pts)
        write_obj_mesh(tmp_path / "m.obj", pts[:6], [[0, 1, 2], [3, 4, 5]])
        vb, cb = read_obj_mesh(tmp_path / "m.obj")
        assert np.array_equal(vb, pts[:6]) and cb == [[0, 1, 2], [3, 4, 5]]
        hull_doc = read_hull_document(tmp_path / "h1.txt")
        assert hull_doc["dim"] == 2 and len(hull_doc["facets"]) == 3
        dual_doc = read_dual_descriptor(tmp_path / "d1.txt")
        assert dual_doc["equivalent"] is True

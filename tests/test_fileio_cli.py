import argparse
import contextlib
import io

import numpy as np
import pytest

from hullmaps import build_configuration, build_hull, normal_fan_dual, spherical_dual
from hullmaps.cli import main
from hullmaps.fileio import (
    read_dual_descriptor,
    read_hull_document,
    read_obj_mesh,
    read_obj_points,
    read_points_csv,
    read_report_csv,
    write_dual_descriptor,
    write_hull_document,
    write_obj_mesh,
    write_obj_points,
    write_points_csv,
)
from hullmaps.normal_fan_dual import dual_combinatorics_check, flattened_spherical_dual


@pytest.fixture
def tri_csv(tmp_path):
    path = tmp_path / "tri.csv"
    write_points_csv(path, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return str(path)


@pytest.fixture
def cube_csv(tmp_path):
    path = tmp_path / "cube.csv"
    write_points_csv(path, [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    return str(path)


def test_obj_points_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((40, 3))
    path = tmp_path / "cloud.obj"
    write_obj_points(path, pts)
    back = read_obj_points(path)
    assert np.array_equal(back, pts)


def test_obj_mesh_roundtrip(tmp_path):
    verts = np.eye(3)
    cells = [[0, 1, 2]]
    path = tmp_path / "mesh.obj"
    write_obj_mesh(path, verts, cells)
    vb, cb = read_obj_mesh(path)
    assert np.array_equal(vb, verts)
    assert cb == cells


def test_hull_document_roundtrip(tmp_path, cube_hull):
    path = tmp_path / "hull.txt"
    write_hull_document(path, cube_hull)
    doc = read_hull_document(path)
    assert doc["dim"] == 3
    assert doc["vertices"] == list(cube_hull.vertices)
    assert doc["point_flags"] == list(cube_hull.vertex_flags)
    assert len(doc["facets"]) == len(cube_hull.facets)
    by_id = {f["face_id"]: f for f in doc["facets"]}
    for facet in cube_hull.facets:
        row = by_id[facet.face_id]
        assert row["points"] == list(facet.vertex_indices)
        assert np.array_equal(np.asarray(row["normal"]), facet.outward_normal)
        assert row["offset"] == facet.offset
    pairs = {(k, p) for p, kids in cube_hull.children.items() for k in kids}
    assert set(doc["containment"]) == pairs


def test_dual_descriptor_roundtrip(tmp_path, cube_hull):
    complex_ = spherical_dual(cube_hull)
    verdict = dual_combinatorics_check(cube_hull)
    path = tmp_path / "dual.txt"
    write_dual_descriptor(path, complex_, verdict)
    doc = read_dual_descriptor(path)
    assert doc["cell_counts"] == list(complex_.cell_counts)
    assert doc["equivalent"] is True and doc["flattened_convex"] is True
    assert len(doc["cells"]) == len(complex_.cells)
    assert doc["incidence"] == list(complex_.incidence)
    cell0 = complex_.cells[0]
    assert np.array_equal(
        np.asarray(doc["cells"][0]["dirs"]), cell0.vertex_dirs.ravel()
    )


def test_cmd_approx_writes_images_and_svg(tmp_path, tri_csv):
    out = str(tmp_path / "img.csv")
    code = main(["approx", tri_csv, "--out", out, "--eps", "0.01",
                 "--samples", "500", "--render", "svg"])
    assert code == 0
    images = read_points_csv(out)
    assert images.shape == (500, 2)
    svg = (tmp_path / "img.svg").read_text()
    assert svg.startswith("<svg") and "polygon" in svg and "circle" in svg


def test_cmd_approx_obj_render(tmp_path, cube_csv):
    out = str(tmp_path / "img.csv")
    code = main(["approx", cube_csv, "--out", out, "--eps", "0.01",
                 "--samples", "300", "--render", "obj"])
    assert code == 0
    cloud = read_obj_points(str(tmp_path / "img.obj"))
    assert cloud.shape == (300, 3)


def test_cmd_approx_deterministic_bytes(tmp_path, tri_csv):
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    args = ["--eps", "0.01", "--samples", "400", "--seed", "9"]
    assert main(["approx", tri_csv, "--out", out1] + args) == 0
    assert main(["approx", tri_csv, "--out", out2] + args) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_cmd_hull_document(tmp_path):
    src = tmp_path / "sq.csv"
    write_points_csv(src, [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]])
    out = str(tmp_path / "hull.txt")
    assert main(["hull", str(src), "--out", out]) == 0
    doc = read_hull_document(out)
    assert doc["vertices"] == [0, 1, 2, 3]
    assert doc["point_flags"][4] == "interior"
    assert len(doc["facets"]) == 4


def test_cmd_dual_cube(tmp_path, cube_csv):
    out = str(tmp_path / "dual.txt")
    assert main(["dual", cube_csv, "--out", out]) == 0
    doc = read_dual_descriptor(out)
    assert doc["equivalent"] is True and doc["flattened_convex"] is True
    verts, cells = read_obj_mesh(str(tmp_path / "dual_flattened.obj"))
    assert verts.shape == (6, 3) and len(cells) == 8
    tdoc = read_hull_document(str(tmp_path / "dual_transform.txt"))
    assert len(tdoc["vertices"]) == 6


def test_cmd_dual_obj_faces_index_flattened_rows(tmp_path):
    """Each OBJ face lists, in cyclic order, the rows of the normals that
    flattened_spherical_dual gives for the same vertex."""
    pts = np.random.default_rng(6).standard_normal((14, 3))
    src = tmp_path / "g.csv"
    write_points_csv(src, pts)
    assert main(["dual", str(src), "--out", str(tmp_path / "g.txt")]) == 0
    hull = build_hull(build_configuration(pts))
    cells = flattened_spherical_dual(hull)
    for mesh in ("g_spherical.obj", "g_flattened.obj"):
        verts, faces = read_obj_mesh(str(tmp_path / mesh))
        assert np.array_equal(verts, hull.normals)
        assert len(faces) == len(cells)
        for face, (_, dirs) in zip(faces, cells):
            assert np.array_equal(verts[list(face)], dirs)


def test_cmd_dual_builds_the_transform_once(tmp_path, cube_csv, monkeypatch):
    calls = []
    build = normal_fan_dual.outer_normal_transform

    def counting(hull):
        calls.append(hull)
        return build(hull)

    monkeypatch.setattr(normal_fan_dual, "outer_normal_transform", counting)
    assert main(["dual", cube_csv, "--out", str(tmp_path / "dual.txt")]) == 0
    assert len(calls) == 1


def test_cmd_dual_rejects_2d(tmp_path, tri_csv):
    assert main(["dual", tri_csv, "--out", str(tmp_path / "x.txt")]) == 2


def test_cmd_converge(tmp_path, tri_csv):
    out = str(tmp_path / "rep.csv")
    code = main(["converge", tri_csv, "--out", out, "--samples", "500",
                 "--eps-list", "0.1,0.01", "--boundary-per-facet", "40"])
    assert code == 0
    rows = read_report_csv(out)
    assert len(rows) == 2
    assert rows[0]["epsilon"] == 0.1 and rows[1]["epsilon"] == 0.01
    assert rows[1]["outer_dist"] < rows[0]["outer_dist"]
    summary = (tmp_path / "rep_summary.txt").read_text()
    assert "outer_loglog_slope" in summary


def test_cmd_converge_deterministic_data_columns(tmp_path, tri_csv):
    args = ["--samples", "400", "--eps-list", "0.1,0.01", "--boundary-per-facet",
            "30", "--seed", "4"]
    out1, out2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
    assert main(["converge", tri_csv, "--out", out1] + args) == 0
    assert main(["converge", tri_csv, "--out", out2] + args) == 0
    rows1, rows2 = read_report_csv(out1), read_report_csv(out2)
    for a, b in zip(rows1, rows2):
        for key in ("epsilon", "outer_dist", "inner_dist", "n_samples"):
            assert a[key] == b[key]  # wall_ms is the only run-dependent column


def test_cmd_converge_degenerate(tmp_path):
    src = tmp_path / "col.csv"
    write_points_csv(src, [[0, 0], [1, 1], [2, 2]])
    out = str(tmp_path / "deg.csv")
    code = main(["converge", str(src), "--out", out, "--samples", "500",
                 "--eps-list", "0.1,0.01", "--degenerate"])
    assert code == 0
    text = (tmp_path / "deg.csv").read_text()
    assert text.splitlines()[0] == "epsilon,sym_dist,n_samples,wall_ms"


def test_cmd_converge_rejects_zero_eps(tmp_path, tri_csv):
    code = main(["converge", tri_csv, "--out", str(tmp_path / "x.csv"),
                 "--eps-list", "0.1,0"])
    assert code == 2


def test_cmd_converge_empty_eps_list_exit_2(tmp_path, tri_csv, capsys):
    # an explicit empty list is an error, not a request for the default epsilons
    col = tmp_path / "col.csv"
    write_points_csv(col, [[0, 0], [1, 1], [2, 2]])
    out = tmp_path / "e.csv"
    for argv in ([tri_csv], [str(col), "--degenerate"]):
        assert main(["converge", *argv, "--out", str(out), "--samples", "50",
                     "--eps-list", ""]) == 2
        assert "need at least one epsilon" in capsys.readouterr().err
        assert not out.exists()


def test_cmd_classify(tmp_path, capsys):
    src = tmp_path / "sq.csv"
    write_points_csv(src, [[0, 0], [1, 0], [1, 1], [0, 1]])
    assert main(["classify", str(src), "--direction", "1,0"]) == 0
    out = capsys.readouterr().out
    assert "facet" in out and "{1, 2}" in out


def test_cmd_classify_near_tie_surfaced(tmp_path, capsys):
    src = tmp_path / "sq.csv"
    write_points_csv(src, [[0, 0], [1, 0], [1, 1], [0, 1]])
    code = main(["classify", str(src), "--direction", "1,1", "--tol-tie", "0.8"])
    assert code == 5
    err = capsys.readouterr().err
    assert "not a face" in err


def test_cmd_hull_degenerate_exit(tmp_path):
    src = tmp_path / "col.csv"
    write_points_csv(src, [[0, 0], [1, 1], [2, 2]])
    assert main(["hull", str(src), "--out", str(tmp_path / "h.txt")]) == 3


def test_cmd_missing_input_exit(tmp_path):
    assert main(["hull", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "h.txt")]) == 4


def test_cmd_approx_eps_domain(tmp_path, tri_csv):
    assert main(["approx", tri_csv, "--out", str(tmp_path / "x.csv"), "--eps", "0"]) == 2


def test_cmd_approx_render_dimension_checked_before_writing(tmp_path, cube_csv, tri_csv):
    out = tmp_path / "img.csv"
    assert main(["approx", cube_csv, "--out", str(out), "--render", "svg"]) == 2
    assert main(["approx", tri_csv, "--out", str(out), "--render", "obj"]) == 2
    # the svg needs the hull, so a degenerate input fails before the CSV too
    write_points_csv(tmp_path / "col.csv", [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    assert main(["approx", str(tmp_path / "col.csv"), "--out", str(out), "--render", "svg"]) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["col.csv", "cube.csv", "tri.csv"]


def test_cap_radius_without_center_exit_2(tmp_path, cube_csv, capsys):
    out = tmp_path / "cap.csv"
    assert main(["approx", cube_csv, "--out", str(out), "--cap-radius", "0.3"]) == 2
    assert "--cap-radius" in capsys.readouterr().err
    assert main(["approx", cube_csv, "--out", str(out), "--cap-center", "0,0,1",
                 "--cap-radius", "0"]) == 2
    assert "cap_radius must lie in (0, pi]" in capsys.readouterr().err
    assert not out.exists()


def test_cap_center_sampling(tmp_path, cube_csv):
    out = str(tmp_path / "cap.csv")
    code = main(["approx", cube_csv, "--out", out, "--eps", "0.01",
                 "--samples", "200", "--cap-center", "0,0,1", "--cap-radius", "0.2"])
    assert code == 0
    images = read_points_csv(out)
    # images of a cap around the top facet normal stay near the top facet
    assert images[:, 2].min() > 0.5
    # the center is scaled to unit length, as classify's --direction is
    for center, expected in (("1,1,1", 0), ("0,0,0", 2), ("nan,0,1", 2)):
        assert main(["approx", cube_csv, "--out", out, "--samples", "20",
                     "--cap-center", center, "--cap-radius", "0.3"]) == expected


def test_malformed_number_lists_exit_2(tmp_path, cube_csv, capsys):
    out = str(tmp_path / "x.csv")
    for args in (["approx", cube_csv, "--out", out, "--cap-center", "1,a,2",
                  "--cap-radius", "0.3"],
                 ["converge", cube_csv, "--out", out, "--eps-list", "0.1,x"],
                 ["classify", cube_csv, "--direction", "0,0,z"]):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "not a list of numbers" in capsys.readouterr().err
    # an empty center is an error, not a request for uniform sampling
    assert main(["approx", cube_csv, "--out", out, "--cap-center", "",
                 "--cap-radius", "0.3"]) == 2


@pytest.mark.parametrize("bad", ["-1", "nan"])
def test_bad_distinctness_tolerance_exit_2(tmp_path, cube_csv, bad):
    out = tmp_path / "o.csv"
    assert main(["approx", cube_csv, "--out", str(out), "--tol-distinct", bad]) == 2
    assert main(["hull", cube_csv, "--out", str(out), "--tol-distinct", bad]) == 2
    assert not out.exists()


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_points_exit_2(tmp_path, bad):
    src = tmp_path / "p.csv"
    src.write_text(f"dim,2\n0,0\n1,0\n0,1\n{bad},0.5\n")
    out = str(tmp_path / "o.csv")
    assert main(["approx", str(src), "--out", out, "--samples", "10"]) == 2
    assert main(["hull", str(src), "--out", out]) == 2
    assert main(["converge", str(src), "--out", out, "--samples", "10",
                 "--eps-list", "0.1"]) == 2
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("argv", [["approx", "--out", "o.csv", "--samples", "10"],
                                  ["hull", "--out", "o.txt"],
                                  ["dual", "--out", "o.txt"],
                                  ["converge", "--out", "o.csv", "--samples", "10"],
                                  ["classify", "--direction", "0,0,1"]])
def test_points_beyond_the_size_contract_exit_2(tmp_path, capsys, argv):
    src = tmp_path / "p.csv"
    write_points_csv(src, np.random.default_rng(0).standard_normal((1001, 3)))
    sub, *flags = argv
    flags = [str(tmp_path / f) if f.startswith("o.") else f for f in flags]
    assert main([sub, str(src), *flags]) == 2
    assert "n <= 1000, d <= 6; got n = 1001, d = 3" in capsys.readouterr().err
    assert not list(tmp_path.glob("o*"))


# the flags each subcommand registers, all of which it reads
SUBCOMMAND_FLAGS = {
    "approx": {"--out", "--tol-distinct", "--tol-coplanar", "--seed", "--eps", "--samples",
               "--strategy", "--cap-center", "--cap-radius", "--render"},
    "hull": {"--out", "--tol-distinct", "--tol-coplanar"},
    "dual": {"--out", "--tol-distinct", "--tol-coplanar"},
    "converge": {"--out", "--tol-distinct", "--tol-coplanar", "--seed", "--eps-list",
                 "--samples", "--strategy", "--boundary-per-facet", "--degenerate"},
    "classify": {"--out", "--tol-distinct", "--tol-coplanar", "--tol-tie", "--direction"},
}


def _subparsers():
    from hullmaps.cli import build_parser

    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return parser, sub.choices


class _ReadRecorder(argparse.Namespace):
    """A namespace that records which of its attributes are read."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "__dict__").setdefault("_read", set()).add(name)
        return object.__getattribute__(self, name)


def test_each_subcommand_registers_exactly_the_flags_it_reads(tmp_path, cube_csv, tri_csv):
    from hullmaps import cli

    parser, subs = _subparsers()
    assert set(subs) == set(SUBCOMMAND_FLAGS)
    for name, sub in subs.items():
        flags = {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        assert flags == SUBCOMMAND_FLAGS[name], name
    out = str(tmp_path / "o.csv")
    runs = {  # together, these take every branch that reads a flag
        "approx": [["approx", tri_csv, "--out", out, "--samples", "20", "--render", "svg"],
                   ["approx", cube_csv, "--out", out, "--samples", "20",
                    "--cap-center", "0,0,1", "--cap-radius", "0.3"]],
        "hull": [["hull", cube_csv, "--out", out]],
        "dual": [["dual", cube_csv, "--out", out]],
        "converge": [["converge", tri_csv, "--out", out, "--samples", "50",
                      "--eps-list", "0.1", "--boundary-per-facet", "5"]],
        "classify": [["classify", cube_csv, "--direction", "0,0,1"]],
    }
    for name, argvs in runs.items():
        read = set()
        for argv in argvs:
            args = parser.parse_args(argv, namespace=_ReadRecorder())
            args.__dict__.pop("_read", None)
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli._HANDLERS[name](args) == 0
            read |= args.__dict__.get("_read", set())
        dests = {a.dest for a in subs[name]._actions} - {"help", "input"}
        assert dests <= read, (name, dests - read)


@pytest.mark.parametrize("subcommand, flag, value", [
    ("approx", "--tol-tie", "0.1"), ("hull", "--tol-tie", "0.1"), ("dual", "--tol-tie", "0.1"),
    ("converge", "--tol-tie", "0.1"), ("hull", "--seed", "1"), ("dual", "--seed", "1"),
    ("classify", "--seed", "1"),
])
def test_dropped_flags_are_usage_errors(tmp_path, cube_csv, capsys, subcommand, flag, value):
    extra = ["--direction", "0,0,1"] if subcommand == "classify" else []
    with pytest.raises(SystemExit) as exc:
        main([subcommand, cube_csv, "--out", str(tmp_path / "o.txt"), flag, value] + extra)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cube.csv"]


def test_cap_center_of_wrong_dimension_exit_2(tmp_path, cube_csv, capsys):
    out = tmp_path / "cap.csv"
    for center in ("0,1", "0,0,0,1"):
        assert main(["approx", cube_csv, "--out", str(out), "--cap-center", center,
                     "--cap-radius", "0.3"]) == 2
        assert "the points have d = 3" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cube.csv"]


def test_cap_with_strategy_exit_2(tmp_path, cube_csv, capsys):
    """The cap sampler has its own scheme per dimension, so a strategy is refused."""
    out = tmp_path / "cap.csv"
    assert main(["approx", cube_csv, "--out", str(out), "--cap-center", "0,0,1",
                 "--cap-radius", "0.3", "--strategy", "gaussian_random"]) == 2
    assert "--strategy does not apply" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cube.csv"]


def test_classify_direction_of_wrong_dimension_exit_2(tmp_path, cube_csv, capsys):
    out = tmp_path / "face.txt"
    for direction in ("1,0", "0,0,0,1"):
        assert main(["classify", cube_csv, "--out", str(out), "--direction", direction]) == 2
        assert "a direction in R^3 must have shape (3,)" in capsys.readouterr().err
    assert not out.exists()

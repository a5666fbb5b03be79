"""Command-line surface tying the library together.

Subcommands: approx, hull, dual, converge, classify.  Exit codes:
0 success, 2 validation error (including input beyond the size contract
n <= 1000, d <= 6), 3 degenerate configuration, 4 I/O error, 5 ambiguous
classification.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import boundary_map, fileio, normal_fan_dual, set_metrics
from .errors import (
    AmbiguousTieError,
    DegenerateConfigurationError,
    DimensionMismatchError,
    DimensionUnsupportedError,
    HullMapsError,
    RequiresDegenerateError,
)
from .geom_core import build_configuration, read_points_csv
from .hull_oracle import build_hull, classify_direction
from .sphere_sampling import SamplePlan, default_strategy, sample, sample_near

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4
EXIT_NUMERIC = 5


def _make_plan(args: argparse.Namespace, dim: int) -> SamplePlan:
    return SamplePlan(dim=dim, strategy=args.strategy or default_strategy(dim),
                      count=args.samples, seed=args.seed)


def _load_config(args: argparse.Namespace):
    pts = read_points_csv(args.input)
    return build_configuration(pts, args.tol_distinct)


def cmd_approx(args: argparse.Namespace) -> int:
    if (args.cap_center is None) != (args.cap_radius is None):
        raise ValueError("--cap-center and --cap-radius must be given together")
    if args.cap_center is not None and args.strategy is not None:
        raise ValueError("--strategy does not apply to a cap sample (--cap-center)")
    config = _load_config(args)
    render_dim = {"svg": 2, "obj": 3}.get(args.render)
    if render_dim is not None and config.dim != render_dim:
        raise DimensionUnsupportedError(f"{args.render} render needs d = {render_dim} input")
    hull = build_hull(config, args.tol_coplanar) if args.render == "svg" else None
    if args.cap_center is not None:
        center = _unit_direction(args.cap_center)
        if center.shape[0] != config.dim:
            raise DimensionMismatchError(
                f"--cap-center has {center.shape[0]} components; the points have d = {config.dim}")
        dirs = sample_near(center, args.cap_radius, args.samples, args.seed)
    else:
        dirs = sample(_make_plan(args, config.dim))
    images = boundary_map.evaluate_batch_array(config, args.eps, dirs)
    fileio.write_points_csv(args.out, images)
    if args.render == "svg":
        fileio.write_svg(_with_suffix(args.out, ".svg"), config, hull, images)
    elif args.render == "obj":
        fileio.write_obj_points(_with_suffix(args.out, ".obj"), images)
    print(f"wrote {images.shape[0]} image points to {args.out}")
    return EXIT_OK


def _with_suffix(path: str, suffix: str) -> str:
    base = path[: path.rfind(".")] if "." in path.split("/")[-1] else path
    return base + suffix


def cmd_hull(args: argparse.Namespace) -> int:
    config = _load_config(args)
    hull = build_hull(config, args.tol_coplanar)
    fileio.write_hull_document(args.out, hull)
    n_by_dim = {}
    for f in hull.faces:
        n_by_dim[f.dim] = n_by_dim.get(f.dim, 0) + 1
    summary = " ".join(f"dim{d}:{n_by_dim[d]}" for d in sorted(n_by_dim))
    print(f"hull: {len(hull.vertices)} vertices, {len(hull.facets)} facets ({summary})")
    if config.dim == 3:
        v = n_by_dim.get(0, 0)
        e = n_by_dim.get(1, 0)
        fcount = n_by_dim.get(2, 0)
        print(f"euler check: V - E + F = {v - e + fcount}")
    return EXIT_OK


def cmd_dual(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if config.dim != 3:
        raise DimensionUnsupportedError("dual exports are defined for d = 3")
    hull = build_hull(config, args.tol_coplanar)
    complex_ = normal_fan_dual.spherical_dual(hull)
    transform = normal_fan_dual.outer_normal_transform(hull)
    # one OBJ face per hull vertex: the rows of hull.normals of its facets, in cyclic order
    index_cells = [positions for _, positions in normal_fan_dual._vertex_cells(hull)]
    verdict = normal_fan_dual._dual_check(
        hull, index_cells, {frozenset(f.vertex_indices) for f in transform.facets})

    fileio.write_obj_mesh(_with_suffix(args.out, "_spherical.obj"), hull.normals, index_cells)
    fileio.write_obj_mesh(_with_suffix(args.out, "_flattened.obj"), hull.normals, index_cells)

    fileio.write_hull_document(_with_suffix(args.out, "_transform.txt"), transform)
    fileio.write_dual_descriptor(args.out, complex_, verdict)
    print(f"equivalent: {str(verdict.equivalent).lower()}")
    print(f"flattened_convex: {str(verdict.flattened_convex).lower()}")
    return EXIT_OK


def cmd_converge(args: argparse.Namespace) -> int:
    config = _load_config(args)
    plan = _make_plan(args, config.dim)
    if args.degenerate:
        report = set_metrics.degenerate_limit_probe(
            config, args.eps_list, plan, config_id=args.input)
        fileio.write_degenerate_csv(args.out, report)
        print(f"span dim {report.span_dim}; "
              f"final sym distance {report.records[-1].sym_dist:.6g}")
        return EXIT_OK
    hull = build_hull(config, args.tol_coplanar)
    report = set_metrics.theorem_sweep(
        config, hull, args.eps_list, plan, args.boundary_per_facet, config_id=args.input)
    fileio.write_report_csv(args.out, report)
    fileio.write_report_summary(_with_suffix(args.out, "_summary.txt"), report)
    print(f"outer slope {report.slope:.4f} (residual {report.slope_residual:.4f})")
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    config = _load_config(args)
    d = _unit_direction(args.direction)
    hull = build_hull(config, args.tol_coplanar)
    face = classify_direction(hull, d, args.tol_tie)
    kind = {0: "vertex", 1: "edge"}.get(face.dim, f"{face.dim}-face")
    if face.dim == config.dim - 1:
        kind = "facet"
    print(f"{kind} {{{', '.join(str(i) for i in face.vertex_indices)}}} "
          f"(face id {face.face_id}, dim {face.dim})")
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(f"face_id,{face.face_id}\ndim,{face.dim}\npoints,"
                     + " ".join(str(i) for i in face.vertex_indices) + "\n")
    return EXIT_OK


def _unit_direction(components) -> np.ndarray:
    """A direction given on the command line, scaled to unit length."""
    d = np.asarray(components, dtype=float)
    nrm = np.linalg.norm(d)
    if not (np.isfinite(nrm) and nrm > 0):
        raise ValueError("direction must be finite and nonzero")
    return d / nrm


def _parse_floats(text: str) -> tuple:
    """A comma- or space-separated list of numbers, as an argparse type."""
    try:
        return tuple(float(t) for t in text.replace(",", " ").split())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of numbers: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hullmaps",
        description="Sphere-to-hull boundary maps, duals, and convergence sweeps.",
        epilog="exit codes: 0 ok, 2 validation, 3 degenerate input, 4 I/O, 5 ambiguous tie",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, needs_out=True):
        p.add_argument("input", help="points CSV (dim,<d> header)")
        if needs_out:
            p.add_argument("--out", required=True, help="output path")
        else:
            p.add_argument("--out", default="", help="optional output path")
        p.add_argument("--tol-distinct", type=float, default=None)
        p.add_argument("--tol-coplanar", type=float, default=None)

    p = sub.add_parser("approx", help="evaluate the map over a direction sample")
    common(p)
    p.add_argument("--seed", type=int, default=0,
                   help="drawn from only by gaussian_random plans and by caps in d >= 4")
    p.add_argument("--eps", type=float, default=1e-2)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--strategy", choices=["uniform_grid_2d", "fibonacci_3d", "gaussian_random"])
    p.add_argument("--cap-center", type=_parse_floats, default=None,
                   help="comma-separated direction for targeted sampling")
    p.add_argument("--cap-radius", type=float, default=None)
    p.add_argument("--render", choices=["svg", "obj", "none"], default="none")

    p = sub.add_parser("hull", help="write the hull document")
    common(p)

    p = sub.add_parser("dual", help="spherical/flattened duals, transform, verdict (d=3)")
    common(p)

    p = sub.add_parser("converge", help="epsilon sweep of boundary distances")
    common(p)
    p.add_argument("--seed", type=int, default=0,
                   help="drawn from only by gaussian_random plans and by caps in d >= 4")
    p.add_argument("--eps-list", type=_parse_floats, default=set_metrics.DEFAULT_EPSILONS,
                   help="comma-separated decreasing epsilons")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--strategy", choices=["uniform_grid_2d", "fibonacci_3d", "gaussian_random"])
    p.add_argument("--boundary-per-facet", type=int, default=200)
    p.add_argument("--degenerate", action="store_true",
                   help="measure against the full lower-dimensional hull")

    p = sub.add_parser("classify", help="face of the normal-fan cell containing a direction")
    common(p, needs_out=False)
    p.add_argument("--tol-tie", type=float, default=None)
    p.add_argument("--direction", type=_parse_floats, required=True,
                   help="comma-separated direction components")

    return parser


_HANDLERS = {
    "approx": cmd_approx,
    "hull": cmd_hull,
    "dual": cmd_dual,
    "converge": cmd_converge,
    "classify": cmd_classify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.subcommand](args)
    except (FileNotFoundError, PermissionError, IsADirectoryError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (DegenerateConfigurationError, RequiresDegenerateError) as exc:
        print(f"degenerate-configuration error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except AmbiguousTieError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, HullMapsError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())

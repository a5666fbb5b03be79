"""File formats: OBJ exports, hull documents, report CSVs, and SVG renders.

All numeric output uses 17 significant digits, so write-then-read round trips
reproduce doubles exactly.  The SVG writer is a render, not a data format.
"""

from __future__ import annotations

import numpy as np

from .geom_core import read_points_csv, write_points_csv  # noqa: F401 (re-exported)
from .hull_oracle import HullDescription, _segment_ends


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_lines(path, lines) -> None:
    """Write ``lines`` to ``path``, each ended by a Unix newline on every platform."""
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_obj_mesh(path, vertices, cells) -> None:
    """OBJ mesh: ``v`` lines plus one (1-based) ``f`` line per cell."""
    pts = np.atleast_2d(np.asarray(vertices, dtype=float))
    lines = []
    for row in pts:
        coords = list(row) + [0.0] * (3 - len(row))
        lines.append("v " + " ".join(_fmt(c) for c in coords[:3]))
    for cell in cells:
        lines.append("f " + " ".join(str(int(i) + 1) for i in cell))
    _write_lines(path, lines)


def read_obj_mesh(path):
    """(vertices, cells) of an OBJ file: the ``v`` rows and the 0-based ``f`` lines."""
    verts, cells = [], []
    with open(path) as fh:
        for ln in fh:
            parts = ln.split()
            if not parts:
                continue
            if parts[0] == "v":
                verts.append([float(p) for p in parts[1:4]])
            elif parts[0] == "f":
                cells.append([int(p.split("/")[0]) - 1 for p in parts[1:]])
    return np.asarray(verts, dtype=float), cells


def write_hull_document(path, hull: HullDescription) -> None:
    """Structured-text hull description: vertices, facets, lattice edges."""
    lines = [f"hull dim={hull.dim} n_points={hull.config.n_points}"]
    lines.append("vertices: " + " ".join(str(i) for i in hull.vertices))
    lines.append("point_flags: " + " ".join(hull.vertex_flags))
    for facet in hull.facets:
        lines.append(
            f"facet {facet.face_id}: points "
            + " ".join(str(i) for i in facet.vertex_indices)
            + " normal " + " ".join(_fmt(c) for c in facet.outward_normal)
            + " offset " + _fmt(facet.offset)
        )
    for face in hull.faces:
        lines.append(
            f"face {face.face_id}: dim {face.dim} points "
            + " ".join(str(i) for i in face.vertex_indices)
        )
    pairs = []
    for fid, kids in sorted(hull.children.items()):
        pairs.extend(f"{kid}<{fid}" for kid in kids)
    lines.append("containment: " + " ".join(pairs))
    _write_lines(path, lines)


def read_hull_document(path) -> dict:
    """Parse the hull document back into plain data."""
    out = {"facets": [], "faces": [], "containment": []}
    with open(path) as fh:
        for ln in fh:
            ln = ln.strip()
            if not ln:
                continue
            if ln.startswith("hull "):
                for tok in ln.split()[1:]:
                    key, val = tok.split("=")
                    out[key] = int(val)
            elif ln.startswith("vertices:"):
                out["vertices"] = [int(t) for t in ln.split(":", 1)[1].split()]
            elif ln.startswith("point_flags:"):
                out["point_flags"] = ln.split(":", 1)[1].split()
            elif ln.startswith("facet "):
                head, rest = ln.split(":", 1)
                fid = int(head.split()[1])
                toks = rest.split()
                inorm = toks.index("normal")
                ioff = toks.index("offset")
                out["facets"].append({
                    "face_id": fid,
                    "points": [int(t) for t in toks[1:inorm]],
                    "normal": [float(t) for t in toks[inorm + 1:ioff]],
                    "offset": float(toks[ioff + 1]),
                })
            elif ln.startswith("face "):
                head, rest = ln.split(":", 1)
                fid = int(head.split()[1])
                toks = rest.split()
                dim = int(toks[1])
                out["faces"].append({
                    "face_id": fid,
                    "dim": dim,
                    "points": [int(t) for t in toks[3:]],
                })
            elif ln.startswith("containment:"):
                for pair in ln.split(":", 1)[1].split():
                    kid, parent = pair.split("<")
                    out["containment"].append((int(kid), int(parent)))
    return out


REPORT_COLUMNS = ("epsilon", "outer_dist", "inner_dist", "n_samples", "wall_ms")
DEGENERATE_COLUMNS = ("epsilon", "sym_dist", "n_samples", "wall_ms")


def write_report_csv(path, report, columns=REPORT_COLUMNS) -> None:
    """One row per record: the record attribute named by each column."""
    lines = [",".join(columns)]
    for r in report.records:
        lines.append(",".join(str(getattr(r, k)) if k == "n_samples" else _fmt(getattr(r, k))
                              for k in columns))
    _write_lines(path, lines)


def read_report_csv(path) -> list:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        vals = ln.split(",")
        rows.append({k: (int(v) if k == "n_samples" else float(v))
                     for k, v in zip(header, vals)})
    return rows


def write_report_summary(path, report) -> None:
    lines = [
        f"config: {report.config_id}",
        f"diameter: {_fmt(report.diameter)}",
        f"outer_loglog_slope: {_fmt(report.slope)}",
        f"slope_fit_residual: {_fmt(report.slope_residual)}",
    ]
    for r in report.records:
        lines.append(
            f"eps={_fmt(r.epsilon)} outer={_fmt(r.outer_dist)} inner={_fmt(r.inner_dist)}"
        )
    _write_lines(path, lines)


def write_dual_descriptor(path, complex_, verdict=None) -> None:
    """Combinatorial descriptor of the spherical dual: counts plus incidences."""
    lines = ["cell_counts: " + " ".join(str(c) for c in complex_.cell_counts)]
    for cell in complex_.cells:
        lines.append(
            f"cell {cell.face_id}: face_dim {cell.face_dim} cell_dim {cell.cell_dim} "
            "dirs " + " ".join(_fmt(c) for c in cell.vertex_dirs.ravel())
        )
    lines.append("incidence: " + " ".join(f"{a}<{b}" for a, b in complex_.incidence))
    if verdict is not None:
        lines.append(f"equivalent: {str(verdict.equivalent).lower()}")
        lines.append(f"flattened_convex: {str(verdict.flattened_convex).lower()}")
    _write_lines(path, lines)


def read_dual_descriptor(path) -> dict:
    out = {"cells": [], "incidence": []}
    with open(path) as fh:
        for ln in fh:
            ln = ln.strip()
            if not ln:
                continue
            if ln.startswith("cell_counts:"):
                out["cell_counts"] = [int(t) for t in ln.split(":", 1)[1].split()]
            elif ln.startswith("cell "):
                head, rest = ln.split(":", 1)
                toks = rest.split()
                idirs = toks.index("dirs")
                out["cells"].append({
                    "face_id": int(head.split()[1]),
                    "face_dim": int(toks[1]),
                    "cell_dim": int(toks[3]),
                    "dirs": [float(t) for t in toks[idirs + 1:]],
                })
            elif ln.startswith("incidence:"):
                for pair in ln.split(":", 1)[1].split():
                    a, b = pair.split("<")
                    out["incidence"].append((int(a), int(b)))
            elif ln.startswith("equivalent:"):
                out["equivalent"] = ln.split(":", 1)[1].strip() == "true"
            elif ln.startswith("flattened_convex:"):
                out["flattened_convex"] = ln.split(":", 1)[1].strip() == "true"
    return out


def write_svg(path, config, hull, images) -> None:
    """Plot of a planar configuration, its hull edges, and the image polyline."""
    pts = config.points
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    margin = 0.10 * float((hi - lo).max())
    lo = lo - margin
    hi = hi + margin
    size = 800.0
    scale = size / float((hi - lo).max())

    def tx(p):
        return (p[0] - lo[0]) * scale, size - (p[1] - lo[1]) * scale

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(size)}" '
        f'height="{int(size)}" viewBox="0 0 {int(size)} {int(size)}">'
    ]
    if images is not None and len(images):
        path_pts = " ".join(f"{tx(p)[0]:.3f},{tx(p)[1]:.3f}" for p in images)
        lines.append(
            f'<polygon points="{path_pts}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>'
        )
    for facet in hull.facet_points:
        a, b = map(tx, _segment_ends(hull.config.points[list(facet)]))
        lines.append(
            f'<line x1="{a[0]:.3f}" y1="{a[1]:.3f}" x2="{b[0]:.3f}" y2="{b[1]:.3f}" '
            'stroke="#888888" stroke-width="1" stroke-dasharray="4 3"/>'
        )
    for p in pts:
        x, y = tx(p)
        lines.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="4" fill="#d62728"/>')
    lines.append("</svg>")
    _write_lines(path, lines)

"""The benchmark's four workloads: inputs from a seed, one timed pass, output checks.

A workload makes its inputs from the seed, does its library set-up once
(``setup``) and then runs identical timed passes (``run_pass``).  A pass
returns one status per operation: ``ok``, ``failed`` (an output check failed
or the call raised) or ``overrun`` (abandoned at its deadline).  Checks run
inside ``checking()``, whose time is excluded from the pass time and shows
in a trace as ``bench.check`` spans.
"""

from __future__ import annotations

import contextlib
import io
import math
import signal
import sys
import time
import traceback

import numpy as np
from scipy.spatial import ConvexHull

from hullmaps import boundary_map, cli, geom_core, hull_oracle, normal_fan_dual, set_metrics
from hullmaps.sphere_sampling import SamplePlan, sample

REFERENCE_SEED = 0
REFERENCE_RTOL = 1e-6  # relative tolerance against values recorded at the parent commit
CASE_DEADLINE_S = 1.0  # per duality case: hull build plus dual check
INSIDE_TOL_REL = 1e-9  # approx images may sit this share of the diameter outside Qhull's facets
QUALITY_SUBSET = 16    # directions used for the zero-weight count
BASE_SEED = 20200706   # draws the fixed sweep configurations


def _close(value, ref) -> bool:
    return math.isclose(value, ref, rel_tol=REFERENCE_RTOL, abs_tol=0.0)


class Workload:
    """Common bookkeeping: check time, the optional tracer, reference values."""

    def __init__(self, seed: int, workdir, reference):
        self.seed = seed
        self.reference = reference if seed == REFERENCE_SEED else None
        self.tracer = None
        self.check_s = 0.0

    def prepare(self) -> None:
        """Untimed, untraced work before each pass."""

    def quality(self) -> dict:
        """Per-layer values measured outside the timed passes, as {name: (value, unit)}."""
        raise NotImplementedError

    @contextlib.contextmanager
    def checking(self):
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                yield
            else:
                with self.tracer.span("bench.check"):
                    yield
        finally:
            self.check_s += time.perf_counter() - t0

    def _report_exception(self, what: str) -> None:
        print(f"{self.name}: {what} raised", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


def _sweep_points(seed: int, n: int, dim: int, n_vertices: int, n_facets: int) -> np.ndarray:
    """A fixed Gaussian configuration of the given hull size, turned by a seeded rotation.

    The base is the first draw from ``BASE_SEED`` whose Qhull hull has the
    requested vertex and (simplicial) facet counts.  Boundary-distance and
    arc-tube work depend on the hull's shape, so a shape drawn per seed would
    spread the pass time by 10-17% across seeds; a rotation keeps the shape
    and still changes every input coordinate and every sampled direction's
    position relative to the hull.
    """
    rng = np.random.default_rng(BASE_SEED)
    while True:
        base = rng.standard_normal((n, dim))
        qh = ConvexHull(base)
        if len(qh.vertices) == n_vertices and len(qh.simplices) == n_facets:
            break
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
    return base @ (q * np.sign(np.diag(r))).T


class Sweep(Workload):
    """``theorem_sweep`` over a fixed eps list; one operation per eps step."""

    def __init__(self, name, seed, workdir, reference, *, dim, n, n_vertices, n_facets,
                 epsilons, strategy, global_count, cap_count, ladder_count,
                 boundary_per_facet):
        super().__init__(seed, workdir, reference)
        self.name = name
        self.epsilons = epsilons
        self.n_facets = n_facets
        self.plan = SamplePlan(dim=dim, strategy=strategy, count=global_count, seed=seed)
        self.sweep_kwargs = dict(cap_count_per_facet=cap_count, ladder_cap_count=ladder_count,
                                 boundary_seed=seed, config_id=name)
        self.boundary_per_facet = boundary_per_facet
        self.points = _sweep_points(seed, n, dim, n_vertices, n_facets)
        self._steps = []
        self.images_seen = 0
        self.images_interior = 0
        # theorem_sweep looks the kernel up in its own module globals at call
        # time; route it through the image check.  The hook calls the kernel
        # through boundary_map, so a tracer installed later still sees it.
        set_metrics.evaluate_batch_array = self._checked_kernel

    def setup(self) -> None:
        self.config = geom_core.build_configuration(self.points)
        self.hull = hull_oracle.build_hull(self.config)
        if len(self.hull.facets) != self.n_facets:
            raise RuntimeError(f"{self.name}: expected {self.n_facets} facets, "
                               f"build_hull found {len(self.hull.facets)}")
        self.normals = np.asarray([f.outward_normal for f in self.hull.facets])
        self.offsets = np.asarray([f.offset for f in self.hull.facets])

    def prepare(self) -> None:
        # The hull fills per-face caches during a sweep; a fresh hull per pass
        # makes every pass pay for that, as a user's single sweep does.
        self.hull = hull_oracle.build_hull(self.config)

    def _checked_kernel(self, config, epsilon, dirs):
        images = boundary_map.evaluate_batch_array(config, epsilon, dirs)
        with self.checking():
            slack_ok, interior = True, 0
            for start in range(0, images.shape[0], 32768):
                # slack = offset - <outward normal, x>, per image and facet
                slack = self.offsets - images[start:start + 32768] @ self.normals.T
                slack_ok &= bool(np.all(slack >= -self.hull.coplanarity_tol))
                interior += int(np.count_nonzero(np.all(slack > 0.0, axis=1)))
            self._steps.append((slack_ok, len(dirs)))
            self.images_seen += images.shape[0]
            self.images_interior += interior
        return images

    def run_pass(self) -> list:
        self._steps = []
        try:
            report = set_metrics.theorem_sweep(self.config, self.hull, self.epsilons, self.plan,
                                               self.boundary_per_facet, **self.sweep_kwargs)
        except Exception:
            self._report_exception("theorem_sweep")
            return ["failed"] * len(self.epsilons)
        with self.checking():
            statuses = []
            for k, eps in enumerate(self.epsilons):
                ok = k < len(report.records) and k < len(self._steps)
                if ok:
                    rec = report.records[k]
                    slack_ok, n_dirs = self._steps[k]
                    ok = (slack_ok and rec.epsilon == eps and rec.n_samples == n_dirs
                          and all(math.isfinite(v) and v > 0.0
                                  for v in (rec.outer_dist, rec.inner_dist)))
                if ok and self.reference is not None:
                    ref = self.reference["steps"][k]
                    ok = (rec.n_samples == ref["n_samples"]
                          and _close(rec.outer_dist, ref["outer_dist"])
                          and _close(rec.inner_dist, ref["inner_dist"]))
                statuses.append("ok" if ok else "failed")
            self.last_report = report
        return statuses

    def fingerprint(self) -> dict:
        return {"steps": [{"epsilon": r.epsilon, "n_samples": r.n_samples,
                           "outer_dist": r.outer_dist, "inner_dist": r.inner_dist}
                          for r in self.last_report.records]}

    def quality(self) -> dict:
        dirs = sample(self.plan)[:QUALITY_SUBSET]
        lam, _, _ = boundary_map.weights_batch_array(self.config, self.epsilons[-1], dirs)
        return {"boundary_map.interior_frac": (self.images_interior / self.images_seen, "ratio"),
                "boundary_map.zero_weight_frac": (float(np.mean(lam == 0.0)), "ratio"),
                "normal_fan_dual.cases": (0, "count")}


class Approx(Workload):
    """``hullmaps approx`` run in-process on a large points CSV; one operation per direction."""

    name = "approx-n1000"
    n_points = 1000
    epsilon = 1e-2
    n_dirs = 100

    def __init__(self, seed, workdir, reference):
        super().__init__(seed, workdir, reference)
        self.points = np.random.default_rng(seed).standard_normal((self.n_points, 3))
        self.in_path = workdir / f"approx_in_seed{seed}.csv"
        self.out_path = workdir / f"approx_out_seed{seed}.csv"
        self.argv = ["approx", str(self.in_path), "--out", str(self.out_path),
                     "--eps", repr(self.epsilon), "--samples", str(self.n_dirs),
                     "--strategy", "gaussian_random", "--seed", str(seed)]
        geom_core.write_points_csv(self.in_path, self.points)

    def setup(self) -> None:
        qh = ConvexHull(self.points)
        self.equations = qh.equations  # rows (outward normal, b): inside means n.x + b <= 0
        hull_pts = self.points[qh.vertices]
        self.diameter = max(float(np.linalg.norm(hull_pts - p, axis=1).max()) for p in hull_pts)

    def run_pass(self) -> list:
        self.out_path.unlink(missing_ok=True)
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout):
                code = cli.main(self.argv)
        except Exception:
            self._report_exception("hullmaps approx")
            return ["failed"] * self.n_dirs
        with self.checking():
            if code != 0 or not self.out_path.exists():
                print(f"{self.name}: exit code {code}", file=sys.stderr)
                return ["failed"] * self.n_dirs
            images = np.loadtxt(self.out_path, delimiter=",", skiprows=1, ndmin=2)
            if images.shape != (self.n_dirs, 3):
                return ["failed"] * self.n_dirs
            excess = images @ self.equations[:, :3].T + self.equations[:, 3]
            ok = (np.all(np.isfinite(images), axis=1)
                  & np.all(excess <= INSIDE_TOL_REL * self.diameter, axis=1))
            if self.reference is not None:
                ref = np.asarray(self.reference["images"])
                ok &= np.all(np.abs(images - ref) <= REFERENCE_RTOL * self.diameter, axis=1)
            self.images = images
            self.interior = int(np.count_nonzero(np.all(excess < 0.0, axis=1)))
        return ["ok" if v else "failed" for v in ok]

    def fingerprint(self) -> dict:
        return {"images": self.images.tolist()}

    def quality(self) -> dict:
        config = geom_core.build_configuration(self.points)
        plan = SamplePlan(dim=3, strategy="gaussian_random", count=self.n_dirs, seed=self.seed)
        lam, _, _ = boundary_map.weights_batch_array(config, self.epsilon,
                                                     sample(plan)[:QUALITY_SUBSET])
        return {"boundary_map.interior_frac": (self.interior / self.n_dirs, "ratio"),
                "boundary_map.zero_weight_frac": (float(np.mean(lam == 0.0)), "ratio"),
                "normal_fan_dual.cases": (0, "count")}


def _ngon(k: int, z: float) -> list:
    """Regular k-gon on the unit circle at height z."""
    return [[math.cos(2 * math.pi * i / k), math.sin(2 * math.pi * i / k), z] for i in range(k)]


def _fixtures() -> list:
    """(name, points, known verdict or None) for the fixed part of the battery."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    tetra = [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
    cube = [[x, y, z] for x in (-1.0, 1.0) for y in (-1.0, 1.0) for z in (-1.0, 1.0)]
    base = np.asarray(tetra)
    truncated = [(base[i] + (base[j] - base[i]) / 3.0).tolist()
                 for i in range(4) for j in range(4) if i != j]
    ico, dodeca = [], list(cube)
    for a in (-1.0, 1.0):
        for b in (-1.0, 1.0):
            ico += [[0.0, a, b * phi], [a, b * phi, 0.0], [b * phi, 0.0, a]]
            dodeca += [[0.0, a / phi, b * phi], [a / phi, b * phi, 0.0], [b * phi, 0.0, a / phi]]
    octa = [[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0], [0, 0, 1.0], [0, 0, -1.0]]
    return [
        ("tetrahedron", tetra, True),
        ("cube", cube, True),
        ("octahedron", octa, True),
        ("truncated_tetrahedron", truncated, False),
        ("triangular_prism", _ngon(3, -1.0) + _ngon(3, 1.0), True),
        ("pentagonal_prism", _ngon(5, -1.0) + _ngon(5, 1.0), True),
        ("square_pyramid", _ngon(4, 0.0) + [[0.0, 0.0, 1.3]], True),
        ("pentagonal_pyramid", _ngon(5, 0.0) + [[0.0, 0.0, 1.3]], True),
        ("pentagonal_bipyramid", _ngon(5, 0.0) + [[0.0, 0.0, 1.2], [0.0, 0.0, -1.2]], True),
        ("icosahedron", ico, True),
        ("dodecahedron", dodeca, True),
    ]


class _CaseDeadline(Exception):
    pass


def _raise_deadline(signum, frame):
    raise _CaseDeadline()


class Duality(Workload):
    """``build_hull`` + ``dual_combinatorics_check`` over a battery; one operation per case."""

    name = "duality"
    n_random = 8

    def __init__(self, seed, workdir, reference):
        super().__init__(seed, workdir, reference)
        rng = np.random.default_rng(seed)
        self.cases = _fixtures() + [
            (f"random{k}", rng.standard_normal((int(rng.integers(8, 15)), 3)).tolist(), None)
            for k in range(self.n_random)
        ]
        self.verdicts = {}

    def setup(self) -> None:
        self.configs = [geom_core.build_configuration(pts) for _, pts, _ in self.cases]
        signal.signal(signal.SIGALRM, _raise_deadline)

    def _run_case(self, config):
        """(result, overran): the case is abandoned after CASE_DEADLINE_S."""
        try:
            signal.setitimer(signal.ITIMER_REAL, CASE_DEADLINE_S)
            try:
                hull = hull_oracle.build_hull(config)
                return normal_fan_dual.dual_combinatorics_check(hull), False
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
        except _CaseDeadline:
            return None, True

    def run_pass(self) -> list:
        statuses = []
        for (name, _, known), config in zip(self.cases, self.configs):
            try:
                result, overran = self._run_case(config)
            except Exception:
                self._report_exception(name)
                statuses.append("failed")
                continue
            if overran:
                statuses.append("overrun")
                continue
            with self.checking():
                verdict = [result.equivalent, result.flattened_convex]
                ok = verdict[0] == verdict[1] and (known is None or verdict[0] == known)
                if self.reference is not None and name in self.reference["verdicts"]:
                    ok &= verdict == self.reference["verdicts"][name]
                self.verdicts[name] = verdict
                statuses.append("ok" if ok else "failed")
        return statuses

    def fingerprint(self) -> dict:
        return {"verdicts": dict(self.verdicts)}

    def quality(self) -> dict:
        # no map images are computed on this workload
        return {"boundary_map.interior_frac": (0.0, "ratio"),
                "boundary_map.zero_weight_frac": (0.0, "ratio"),
                "normal_fan_dual.cases": (len(self.cases), "count")}


def make(name: str, seed: int, workdir, references: dict) -> Workload:
    ref = references.get(name)
    if name == "sweep-d3":
        return Sweep(name, seed, workdir, ref, dim=3, n=20, n_vertices=12, n_facets=20,
                     epsilons=(1e-1, 1e-2, 1e-3, 1e-4), strategy="fibonacci_3d",
                     global_count=1250, cap_count=375, ladder_count=188,
                     boundary_per_facet=200)
    if name == "sweep-d4":
        return Sweep(name, seed, workdir, ref, dim=4, n=8, n_vertices=8, n_facets=16,
                     epsilons=(1e-2, 1e-3), strategy="gaussian_random",
                     global_count=32, cap_count=4, ladder_count=2,
                     boundary_per_facet=200)
    if name == "approx-n1000":
        return Approx(seed, workdir, ref)
    if name == "duality":
        return Duality(seed, workdir, ref)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sweep-d3", "sweep-d4", "approx-n1000", "duality")

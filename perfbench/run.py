"""hullmaps benchmark: one workload, its end-to-end metrics or its per-layer trace.

    python3 perfbench/run.py --workload sweep-d3 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; ``hullmaps`` is imported from the
checkout's ``src/``, so nothing needs installing.  The workload repeats
identical timed passes for about ``--seconds`` seconds (at least three) in one
process making sequential calls.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
separate processes of the time from process start to the first timed call),
``run_s`` (median pass time, output checks excluded), ``peak_rss_mb`` and
``done_frac``.  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics from the spans of one traced set-up plus the
mean traced pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans, the
environment stamp and the result are also written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_trace import LAYERS, TARGETS, Tracer, summarize

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
MIN_PASSES = 3
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help="internal: do the set-up, print 'ready' and exit")
    p.add_argument("--record-reference", action="store_true",
                   help="run one pass and store its outputs as the seed's reference values")
    return p.parse_args(argv)


def _environment(seed: int) -> dict:
    import numpy as np
    import scipy

    import hullmaps

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "hullmaps").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    head = ROOT / ".git" / "HEAD"
    git_sha = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            git_sha = ref_path.read_text().strip() if ref_path.is_file() else None
        else:
            git_sha = ref
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
        "kernel_backend": hullmaps.kernel_backend(),
    }


def _probe_setup_times(args) -> list:
    """Wall time from spawning a fresh process to its first timed call, per probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--probe-setup"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit code {proc.returncode})")
        times.append(elapsed)
    return times


def _timed_pass(workload, tracer=None):
    """(statuses, pass time with checks excluded, root span id or None)."""
    workload.prepare()
    check0 = workload.check_s
    t0 = time.perf_counter()
    if tracer is None:
        statuses = workload.run_pass()
        root = None
    else:
        workload.tracer = tracer
        tracer.install()
        try:
            with tracer.span("bench.pass") as rec:
                statuses = workload.run_pass()
            root = rec[0]
        finally:
            tracer.uninstall()
            workload.tracer = None
    elapsed = time.perf_counter() - t0 - (workload.check_s - check0)
    return statuses, elapsed, root


def _run_passes(workload, seconds: float, tracer=None):
    """Untraced passes, or alternating untraced/traced passes when a tracer is given."""
    plain, traced, statuses, roots = [], [], [], []
    t_start = time.perf_counter()
    while True:
        use_tracer = tracer is not None and len(traced) < len(plain)
        st, elapsed, root = _timed_pass(workload, tracer if use_tracer else None)
        statuses += st
        (traced if use_tracer else plain).append(elapsed)
        if root is not None:
            roots.append(root)
        done = len(plain) + len(traced)
        if tracer is not None and not traced:
            continue
        if done >= MIN_PASSES and (time.perf_counter() - t_start
                                   + statistics.median(plain + traced)) > seconds:
            return plain, traced, statuses, roots


def _layer_metrics(workload, tracer, setup_root, setup_counts, roots, statuses,
                   plain, traced) -> dict:
    """Per-layer values for one traced set-up plus the mean traced pass."""
    k = len(roots)
    setup = summarize(tracer.spans, {setup_root})
    runs = summarize(tracer.spans, set(roots))

    def value(key):
        return setup.get(key, 0.0) + runs.get(key, 0.0) / k

    def count(key):
        at_setup = setup_counts.get(key, 0)
        return at_setup + (tracer.counts.get(key, 0) - at_setup) / k

    m = {}
    for name, *_ in TARGETS:
        m[name + ".s"] = (value(name + ".s"), "s")
    for name in ("boundary_map.evaluate_batch_array", "geom_core.build_configuration",
                 "hull_oracle.build_hull", "sphere_sampling.sample_near"):
        m[name + ".calls"] = (count(name + ".calls"), "count")
    for name in ("set_metrics.theorem_sweep", "normal_fan_dual.dual_combinatorics_check"):
        m[name + ".self_s"] = (value(name + ".self_s"), "s")
    for layer in LAYERS:
        m[layer + ".self_s"] = (value(layer + ".self_s"), "s")
    for key in ("boundary_map.dirs", "boundary_map.pair_factors",
                "hull_oracle.distances_to_boundary.points", "geom_core.pair_dirs",
                "hull_oracle.facets", "sphere_sampling.dirs",
                "set_metrics.arc_tube_directions.dirs"):
        m[key] = (count(key), "count")
    kernel_s = m["boundary_map.evaluate_batch_array.s"][0]
    m["boundary_map.pair_factors_per_s"] = (
        m["boundary_map.pair_factors"][0] / kernel_s if kernel_s > 0 else 0.0, "1/s")
    m["normal_fan_dual.deadline_overruns"] = (
        statuses.count("overrun") / (len(plain) + len(traced)), "count")
    m.update(workload.quality())
    traced_run = statistics.fmean(traced)
    plain_run = statistics.fmean(plain)
    setup_s = setup.get("bench.setup.s", 0.0)
    layer_sum = sum(m[layer + ".self_s"][0] for layer in LAYERS)
    m["trace.run_s"] = (traced_run, "s")
    m["trace.setup_s"] = (setup_s, "s")
    m["trace.untraced_run_s"] = (plain_run, "s")
    m["trace.overhead_frac"] = (traced_run / plain_run - 1.0, "ratio")
    m["trace.unattributed_s"] = (value("bench.setup.self_s") + value("bench.pass.self_s"), "s")
    m["trace.attributed_frac"] = (layer_sum / (setup_s + traced_run), "ratio")
    return m


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "hullmaps" / "__init__.py").is_file():
        print(f"no hullmaps sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    nproc = str(_nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, nproc)
    sys.path.insert(0, str(SRC))

    import bench_workloads

    if args.workload not in bench_workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {bench_workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    references = json.loads((BENCH_DIR / "reference.json").read_text())
    if args.record_reference:
        if args.seed != bench_workloads.REFERENCE_SEED:
            print(f"reference values are kept for seed {bench_workloads.REFERENCE_SEED} only",
                  file=sys.stderr)
            return 2
        references.pop(args.workload, None)
    workload = bench_workloads.make(args.workload, args.seed, OUT_DIR, references)

    if args.probe_setup:
        workload.setup()
        print("ready", flush=True)
        return 0

    setup_times = [] if args.record_reference else _probe_setup_times(args)
    tracer = Tracer() if args.trace else None
    if tracer is None:
        workload.setup()
        setup_root = None
    else:
        tracer.install()
        try:
            with tracer.span("bench.setup") as rec:
                workload.setup()
        finally:
            tracer.uninstall()
        setup_root = rec[0]
        setup_counts = dict(tracer.counts)

    if args.record_reference:
        workload.run_pass()
        references[args.workload] = workload.fingerprint()
        (BENCH_DIR / "reference.json").write_text(json.dumps(references, indent=1) + "\n")
        print(f"recorded reference values for {args.workload} at seed {args.seed}")
        return 0

    plain, traced, statuses, roots = _run_passes(workload, args.seconds, tracer)
    attempted = len(statuses)
    failed = statuses.count("failed")
    done = statuses.count("ok")

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "run_s": (statistics.median(plain), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "done_frac": (done / attempted, "ratio"),
        }
    else:
        metrics = _layer_metrics(workload, tracer, setup_root, setup_counts, roots, statuses,
                                 plain, traced)

    env = _environment(args.seed)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    detail = {"env": env, "setup_probe_s": setup_times, "untraced_pass_s": plain,
              "traced_pass_s": traced, "overruns": statuses.count("overrun"), "result": result}
    if tracer is not None:
        detail["spans"] = tracer.export()
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail) + "\n")

    print("env " + json.dumps(env))
    print(f"{args.workload}: {len(plain)} untraced + {len(traced)} traced passes, "
          f"{attempted} operations, {failed} failed, {statuses.count('overrun')} overran")
    for key, (val, unit) in metrics.items():
        print(f"  {key:48s} {val:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

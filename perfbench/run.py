"""geotile benchmark: one closed-loop driver, 4 Ray CPUs, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload join_stream --seed 1 --seconds 10 --trace 0

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
reports the per-layer metrics from a separate traced run, including the
tracing overhead. Everything else (Ray and Ray Data logs included) goes
to stderr. Inputs, caches, Ray's session files and trace files stay in
dot-directories of the repository root.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CACHE = ROOT / ".bench_cache"
NUM_CPUS = 4
SETUP_REPS = 3
MIN_PASSES = 2
OBJECT_STORE_BYTES = 768 * 1024 * 1024


def metric_units(kind: str) -> dict[str, str]:
    """{name: unit} of BENCHMARK.json's ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def ray_temp_dir() -> str | None:
    """Ray's session directory inside the checkout, unless that path is
    too long for the Unix sockets Ray creates under it (108 bytes,
    ~62 of which Ray appends); then Ray's default is used."""
    temp = str(ROOT / ".bench_ray")
    if len(temp) + 62 < 108:
        return temp
    print(f"{temp} is too long for Ray's socket paths; using Ray's default", file=sys.stderr)
    return None


def start_ray() -> None:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES, _temp_dir=ray_temp_dir())
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    for name in ("ray", "ray.data"):
        logging.getLogger(name).setLevel(logging.ERROR)


def ray_pids() -> tuple[int, list[int]]:
    """(raylet pid, every process this Ray session started)."""
    import ray

    from perfbench import procinfo

    node = ray._private.worker._global_node
    procs = [p.process.pid for ps in node.all_processes.values() for p in ps]
    raylet = node.all_processes["raylet"][0].process.pid
    return raylet, procs + procinfo.children(raylet)


def stop_ray() -> None:
    """Shut Ray down and wait until every process it started is gone."""
    import ray

    from perfbench import procinfo

    _, pids = ray_pids()
    ray.shutdown()
    deadline = time.monotonic() + 15
    while time.monotonic() < deadline and any(procinfo.alive(p) for p in pids):
        time.sleep(0.1)
    for p in pids:
        if procinfo.alive(p):
            try:
                os.kill(p, signal.SIGKILL)
            except ProcessLookupError:
                pass


def measure(workload, seconds: float, traced: bool, tracer) -> dict:
    """Set up SETUP_REPS times, then run closed-loop passes for
    ``seconds`` of pass time (at least MIN_PASSES), checking each.

    Times are reported with the CPU share the hypervisor stole during
    each timed block removed (``procinfo.StealClock``): on a shared VM
    steal can hold at 30-50% for minutes and would otherwise dominate
    the run-to-run spread. The raw pass time is the per-layer
    ``host.raw_wall_s``."""
    from perfbench.procinfo import (
        StealClock, cpu_seconds, driver_peak_rss_mb, peak_rss_mb, ray_workers)

    tracer.enabled = traced
    with StealClock() as ray_start:
        start_ray()
    try:
        setups = []
        for _ in range(SETUP_REPS):
            with StealClock() as c:
                workload.setup()
            setups.append(c)
        raylet, _ = ray_pids()
        passes, busy, errors = [], [], []
        failed = 0
        while len(passes) < MIN_PASSES or sum(c.wall for c, _ in passes) < seconds:
            # a traced run alternates traced and untraced passes, so the
            # difference of their medians is the tracing overhead
            tracer.enabled = traced and len(passes) % 2 == 0
            cpu0 = cpu_seconds(ray_workers(raylet))
            errs = []
            with StealClock() as c:
                try:
                    with tracer.span("pass"):
                        out = workload.run_pass()
                except Exception:  # a pass that raises counts as failed
                    errs = [traceback.format_exc()]
            if not errs:
                try:
                    errs = workload.check(out)
                except Exception:
                    errs = [traceback.format_exc()]
            cpu1 = cpu_seconds(ray_workers(raylet))
            busy.append(sum(v - cpu0.get(p, 0.0) for p, v in cpu1.items()))
            passes.append((c, tracer.enabled))
            if errs:
                failed += 1
                errors.extend(errs)
        tracer.enabled = traced
        untraced = [c for c, t in passes if not t]
        stolen = sum(c.steal for c, _ in passes) / max(sum(c.wanted for c, _ in passes), 1)
        layer = {
            "host.steal_frac": stolen,
            "host.raw_wall_s": statistics.median(c.wall for c in untraced),
            # worker high-water marks vary ~15% between identical runs,
            # too much for an end-to-end bound
            "ray.worker_peak_rss_mb": peak_rss_mb(ray_workers(raylet)),
        }
        if traced:
            layer.update(workload.probe())
            layer.update(workload.span_metrics())
            layer["raydata.cpu_util"] = sum(busy) / (sum(c.wall for c, _ in passes) * NUM_CPUS)
            layer["trace.overhead_frac"] = (
                statistics.median(c.adjusted for c, t in passes if t)
                / statistics.median(c.adjusted for c in untraced) - 1.0)
    finally:
        t = time.perf_counter()
        stop_ray()
        ray_stop = time.perf_counter() - t
    print(f"set-up reps {[round(c.adjusted, 2) for c in setups]} s, "
          f"ray start {ray_start.adjusted:.2f} s, "
          f"passes {[round(c.adjusted, 2) for c, _ in passes]} s "
          f"(raw {[round(c.wall, 2) for c, _ in passes]} s, "
          f"host steal {layer['host.steal_frac']:.1%}), ray stop {ray_stop:.2f} s",
          file=sys.stderr)
    for e in errors[:5]:
        print(f"check failed: {e}", file=sys.stderr)
    wall = statistics.median(c.adjusted for c in untraced)
    return {
        "attempted": len(passes),
        "failed": failed,
        "e2e": {
            "setup_s": ray_start.adjusted + statistics.median(c.adjusted for c in setups),
            "wall_s": wall,
            "rows_per_s": workload.rows_per_pass / wall,
            "driver_peak_rss_mb": driver_peak_rss_mb(),
        },
        "layer": layer,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "geotile" / "__init__.py").is_file():
        print(f"geotile sources not found under {ROOT}", file=sys.stderr)
        return 2

    # The result line is the only thing written to the real stdout:
    # everything else, native writes from Ray included, goes to stderr.
    result_out = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    # Ray workers import geotile and the benchmark's consumers by module
    # path, so they need the repository root on their import path.
    sys.path.insert(0, str(ROOT))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

    from perfbench.trace import Tracer
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    tracer = Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
    workload = WORKLOADS[args.workload](ROOT, CACHE, tracer)
    t0 = time.perf_counter()
    workload.prepare(args.seed)
    print(f"prepared inputs in {time.perf_counter() - t0:.2f} s", file=sys.stderr)
    res = measure(workload, args.seconds, bool(args.trace), tracer)

    if args.trace:
        tracer.write(ROOT / ".bench_out" / f"trace-{tracer.run_id}.json")
        units = metric_units("per_layer")
        missing = set(res["layer"]) - set(units)
        if missing:
            raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {sorted(missing)}")
        # a layer this workload does not exercise reads 0
        metrics = {k: {"value": float(res["layer"].get(k, 0.0)), "unit": u}
                   for k, u in units.items()}
    else:
        metrics = {k: {"value": float(res["e2e"][k]), "unit": u}
                   for k, u in metric_units("end_to_end").items()}
    for k, m in metrics.items():
        print(f"{args.workload:18s} {k:32s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}), file=result_out)
    result_out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

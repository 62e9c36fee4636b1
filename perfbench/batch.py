"""Child process for the batch workloads (``replay``, ``timing``).

Run by ``run.py`` as ``python perfbench/batch.py JOB.json OUT.json``.
It does one of two jobs, so that each measured phase has a process
(and a peak RSS) of its own:

* ``setup``: simulate the workload's traces into an empty trace cache,
  repeatedly, and time each repetition.  With ``trace`` set it records
  layer spans of one repetition instead.
* ``run``: answer passes of the workload's requests through a batch
  ``repro.api.Session`` for the given seconds, timing each request and
  checking each response against its pinned digest.  With ``trace``
  set every other pass records layer spans; one traced pass of the
  ops the workload does not send follows, so every layer is measured,
  and then the engine fan-out ladder.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import layers
import loads
from hostspeed import HostSpeed

from repro import api
from repro.eval import engine
from repro.trace import cache as trace_cache
from repro.workloads import suite


def _fill_cache(job: dict, speed: HostSpeed) -> float:
    """Simulate every trace into an empty cache; the (host-speed
    normalised) seconds it took."""
    directory = Path(job["cache"])
    shutil.rmtree(directory, ignore_errors=True)
    suite.clear_caches()
    cache = trace_cache.configure(directory)
    seconds = 0.0
    for name in job["workload"]["traces"]:
        before = speed.refresh()
        started = time.monotonic()
        cache.fetch(name, job["workload"]["scale"])
        suite.evict(name, job["workload"]["scale"])
        seconds += speed.scaled(time.monotonic() - started, before)
    return seconds


def setup(job: dict) -> dict:
    speed = HostSpeed()
    if job["trace"]:
        recorder = layers.Recorder()
        recorder.install()
        try:
            seconds = _fill_cache(job, speed)
        finally:
            recorder.uninstall()
        return {"setup_s": [seconds],
                "layers": layers.setup_layers(
                    layers.LayerTotals(recorder.spans))}
    times = []
    while len(times) < job["min_reps"] or (
            sum(times) < job["budget_s"] and len(times) < job["max_reps"]):
        times.append(_fill_cache(job, speed))
    return {"setup_s": times, "slowdown": speed.samples}


def _one_pass(session, cycles, speed: HostSpeed, order: list, job: dict,
              pinned: dict, tally: dict) -> dict:
    """Answer one pass; its host-speed normalised seconds and good
    answers."""
    scale = job["workload"]["scale"]
    done = {"seconds": 0.0, "ok": 0}
    for request in order:
        before = speed.refresh()
        sent = time.monotonic()
        try:
            text = loads.session_call(session, request, scale, cycles)
        except Exception as exc:     # counted, reported, never fatal
            print(f"perfbench: {loads.key(request, scale)}: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            text = None
        elapsed = speed.scaled(time.monotonic() - sent, before)
        done["seconds"] += elapsed
        tally["attempted"] += 1
        if text is None or \
                loads.digest(text) != pinned.get(loads.key(request, scale)):
            tally["failed"] += 1
        else:
            done["ok"] += 1
    return done


def run(job: dict) -> dict:
    trace_cache.configure(job["cache"])
    session = api.Session(resident=False, jobs=1)
    cycles = loads.CycleLog()
    pinned = loads.digests(job["digests"])
    requests = loads.base_requests(job["workload"])
    tally = {"rounds": [], "attempted": 0, "failed": 0,
             "traced_pass_s": [], "traced_wall_s": 0.0}
    recorder = layers.Recorder() if job["trace"] else None
    speed = HostSpeed()
    deadline = time.monotonic() + job["seconds"]
    for index, order in enumerate(loads.passes(requests, job["seed"])):
        traced = recorder is not None and index % 2 == 1
        if traced:
            recorder.install()
        started = time.monotonic()
        try:
            done = _one_pass(session, cycles, speed, order, job, pinned,
                             tally)
        finally:
            if traced:
                recorder.uninstall()
                tally["traced_wall_s"] += time.monotonic() - started
        if traced:
            tally["traced_pass_s"].append(done["seconds"])
        else:
            tally["rounds"].append(done)
        if time.monotonic() >= deadline and (
                recorder is None or tally["traced_pass_s"]):
            break
    if recorder is not None:
        recorder.install()
        started = time.monotonic()
        try:
            _one_pass(session, cycles, speed,
                      loads.complement_requests(job["workload"]), job,
                      pinned, tally)
        finally:
            recorder.uninstall()
            tally["traced_wall_s"] += time.monotonic() - started
    cycles.close()
    tally["slowdown"] = speed.samples
    tally["peak_rss_mib"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder is not None:
        tally["layers"] = run_layers(job, recorder, tally)
    return tally


def run_layers(job: dict, recorder: layers.Recorder, tally: dict) -> dict:
    totals = layers.LayerTotals(recorder.spans)
    stats = trace_cache.active_cache().stats
    out = {
        "trace.cache.fetch_s": totals.total_s["trace.cache.fetch"]
        / totals.calls["trace.cache.fetch"],
        "trace.cache.load_mib_per_s": totals.mib_per_s("trace.cache.load"),
        "trace.cache.hit_ratio": stats.hits / (stats.hits + stats.misses),
        "eval.engine.cell_overhead_ms":
            totals.self_s["eval.engine.run_cells"]
            / totals.rows["eval.engine.run_cells"] * 1e3,
        "bench.trace_overhead":
            statistics.median(tally["traced_pass_s"])
            / statistics.median(r["seconds"] for r in tally["rounds"]) - 1,
        "trace.columns_s": totals.per_call("trace.columns"),
        "trace.records_s": totals.per_call("trace.records"),
        "trace.regions.mrows_per_s": totals.rate("trace.regions", 1e6),
        "trace.windows.mrows_per_s": totals.rate("trace.windows", 1e6),
        "predictor.evaluate_s": totals.per_call("predictor.evaluate"),
        "predictor.mrows_per_s": totals.rate("predictor.evaluate", 1e6),
        "timing.simulate_s": totals.per_call("timing.simulate"),
        "timing.kinsn_per_s": totals.rate("timing.simulate", 1e3),
        "timing.configs": totals.calls["timing.simulate"]
        / totals.calls["api.timing"],
        "eval.engine.pool_speedup": pool_speedup(job),
    }
    # Spans nest on one thread, so their self times tile the traced
    # passes without overlap; the sum can only exceed the traced wall
    # time through a bookkeeping error.
    out["span_self_sum_s"] = totals.self_sum_s
    out["traced_run_s"] = tally["traced_wall_s"]
    return out


def pool_speedup(job: dict, repeats: int = 3) -> float:
    """``run_cells`` on the workload's predict cells, jobs=1 over
    jobs=2 (medians of alternating repeats, untraced)."""
    names = job["workload"]["traces"]
    scale = job["workload"]["scale"]
    times = {1: [], 2: []}
    for _ in range(repeats):
        for jobs in (1, 2):
            started = time.monotonic()
            engine.run_cells(api.predict_cell, names, scale,
                             loads.DEFAULT_SCHEME, jobs=jobs)
            times[jobs].append(time.monotonic() - started)
    return statistics.median(times[1]) / statistics.median(times[2])


def main(argv) -> int:
    job = json.loads(Path(argv[1]).read_text())
    result = setup(job) if job["mode"] == "setup" else run(job)
    Path(argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""The repository benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload replay --seed 1 --seconds 40 --trace 0

Workloads (``workloads.json`` records why each was chosen, its loop,
clients, requests, and the layers it loads and leaves idle):

* ``replay``: batch ``Session.predict`` / ``Session.regions`` requests
  over a trace cache filled in set-up.
* ``timing``: batch ``Session.timing`` requests (8 Figure 8 configs).

Set-up simulates the workload's traces into an empty trace cache; it is
repeated and its median reported as ``setup_s``.  The measured phase
then runs for ``--seconds``, and every response is checked against a
digest pinned from the seed code (``digests.json``, rebuilt by
``pin.py``).  Times are normalised by the host's speed (``hostspeed``).

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` makes a separate traced run and prints every per-layer
metric: besides the workload's own passes that run answers the ops the
workload does not send once, loads a ``repro serve`` daemon and
decomposes one memo-hit request.  A run that cannot report every metric
of its mode fails without a result.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(each ``{"value", "unit"}``); the line before it gives each metric's
sample count and the run's median host slowdown.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import hostspeed
import loads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up repeats at least this often, and on until this many seconds
#: of set-up have been measured or the repeat cap is reached.
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 25
SETUP_BUDGET_S = 8.0

#: Wall-clock limit of one run: past it the run stops its children and
#: daemons and exits non-zero, well inside the 180 s a run may take.
ALARM_S = 160

#: Round trips per step of the serve decomposition ladder.
LADDER_REPEATS = 2000

#: Sizes the self-test runs at: fewer traces and shorter passes.
TINY = {"traces": 1, "setup_reps": 1,
        "serve": {"requests_per_pass": 100, "seconds": 2}}


class Report:
    """The metrics of one run, with units from ``BENCHMARK.json``."""

    def __init__(self, benchmark: dict) -> None:
        self.wanted = {
            key: [m["name"] for m in benchmark[key]]
            for key in ("end_to_end", "per_layer")}
        self.units = {m["name"]: m["unit"]
                      for m in benchmark["end_to_end"]
                      + benchmark["per_layer"]}
        self.metrics = {}
        self.samples = {}
        self.slowdown = []

    def add(self, name: str, value: float, samples: int = 1) -> None:
        self.metrics[name] = {"value": value, "unit": self.units[name]}
        self.samples[name] = samples

    def check(self, trace: int) -> None:
        """Every metric of the run's mode is reported, and no other."""
        wanted = self.wanted["per_layer" if trace else "end_to_end"]
        if sorted(self.metrics) != sorted(wanted):
            raise RuntimeError(
                f"reported {sorted(self.metrics)}, but BENCHMARK.json "
                f"names {sorted(wanted)}")


def _env() -> dict:
    """The environment for every child: ``src`` importable, no
    ``REPRO_*`` settings inherited from the caller, one string-hash
    seed so dict layouts repeat run to run, and glibc's mmap and trim
    thresholds fixed where its dynamic rule settles once large arrays
    have been freed.  Left dynamic, whether the threshold has risen
    depends on the order earlier arrays were freed, and runs of
    identical code split into two modes 8% apart in time and in peak
    RSS."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 << 20)
    env["MALLOC_TRIM_THRESHOLD_"] = str(64 << 20)
    return env


def _batch_child(job: dict, workdir: Path, timeout: float) -> dict:
    job_path = workdir / f"{job['mode']}-job.json"
    out_path = workdir / f"{job['mode']}-out.json"
    job_path.write_text(json.dumps(job))
    subprocess.run([sys.executable, str(HERE / "batch.py"), str(job_path),
                    str(out_path)], env=_env(), cwd=ROOT, timeout=timeout,
                   check=True, stdin=subprocess.DEVNULL)
    return json.loads(out_path.read_text())


def run_batch(workload: dict, args, workdir: Path, report: Report):
    """``replay`` / ``timing``: set-up child, then run child."""
    job = {"workload": workload, "cache": str(workdir / "cache"),
           "trace": args.trace, "seed": args.seed,
           "seconds": args.seconds, "digests": args.digests,
           "min_reps": args.setup_reps, "max_reps": SETUP_MAX_REPS,
           "budget_s": SETUP_BUDGET_S if args.size == "full" else 0.0}
    setup = _batch_child(dict(job, mode="setup"), workdir, ALARM_S)
    run = _batch_child(dict(job, mode="run"), workdir, ALARM_S)
    attempted, failed = run["attempted"], run["failed"]
    if args.trace:
        metrics = dict(setup["layers"], **run["layers"])
        _check_self_time(metrics.pop("span_self_sum_s"),
                         metrics.pop("traced_run_s"))
        served, more, bad = _serve_layers(
            workload, args, workdir, loads.digests(args.digests))
        metrics.update(served)
        attempted += more
        failed += bad
        for name in report.wanted["per_layer"]:
            report.add(name, metrics[name])
    else:
        report.add("setup_s", statistics.median(setup["setup_s"])
                   / hostspeed.residual(setup["slowdown"]),
                   len(setup["setup_s"]))
        report.add("run_s", statistics.median(
            r["seconds"] for r in run["rounds"])
            / hostspeed.residual(run["slowdown"]), len(run["rounds"]))
        report.add("peak_rss_mib", run["peak_rss_mib"])
        report.add("success_rate",
                   (run["attempted"] - run["failed"]) / run["attempted"],
                   run["attempted"])
    report.slowdown = setup.get("slowdown", []) + run["slowdown"]
    return attempted, failed


def _check_self_time(self_sum_s: float, wall_s: float) -> None:
    """Layer self times must fit in the traced wall time they cover."""
    print(f"perfbench: span self times {self_sum_s:.3f}s within traced "
          f"{wall_s:.3f}s", file=sys.stderr)
    if self_sum_s > wall_s:
        raise RuntimeError(f"span self times {self_sum_s:.3f}s exceed "
                           f"the traced wall time {wall_s:.3f}s")


def _serve_layers(workload: dict, args, workdir: Path, pinned: dict):
    """The serve and api layers, against a ``repro serve`` daemon warmed
    from the workload's filled trace cache: a short closed-loop load for
    the daemon's own counters, then the decomposition ladder.
    ``(metrics, attempted, failed)``."""
    import serveload
    plan = loads.serve_workload(workload)
    daemon = serveload.Daemon(workdir, plan, _env(), workdir / "cache")
    try:
        daemon.start()
        primed, bad = serveload.prime(daemon, pinned)
        result = serveload.load(daemon, args.seed, plan["seconds"], pinned)
        counters = serveload.counters(daemon)
        metrics = serveload.ladder(daemon, LADDER_REPEATS)
    finally:
        daemon.stop()
    memo = {kind: sum(v for k, v in counters.items()
                      if k.startswith("api.") and k.endswith(f".memo.{kind}"))
            for kind in ("hits", "misses")}
    metrics.update({
        "api.memo_hit_ratio": memo["hits"] / (memo["hits"] + memo["misses"]),
        "serve.rejected": counters.get("serve.rejected", 0)
        + counters.get("serve.shed", 0),
        "serve.retries": result["retries"],
        "serve.errors": counters.get("serve.errors", 0),
    })
    return (metrics, primed + result["attempted"],
            bad + result["failed"])


def _parse(argv):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="'tiny' runs fewer traces and shorter passes "
                             "(the self-test)")
    parser.add_argument("--digests", default=str(HERE / "digests.json"),
                        help="pinned response digests to check against")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no repro package under {SRC}; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    document = loads.spec()
    if args.workload not in document["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{sorted(document['workloads'])}", file=sys.stderr)
        return 2
    workload = document["workloads"][args.workload]
    args.setup_reps = SETUP_MIN_REPS
    if args.size == "tiny":
        workload["traces"] = workload["traces"][:TINY["traces"]]
        workload["serve"].update(TINY["serve"])
        args.setup_reps = TINY["setup_reps"]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = Report(benchmark)
    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    # A SIGTERM or the alarm unwinds like an exception, so daemons and
    # children stop.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    signal.signal(signal.SIGALRM, lambda signum, frame: sys.exit(124))
    signal.alarm(ALARM_S)
    try:
        attempted, failed = run_batch(workload, args, workdir, report)
        report.check(args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"samples": report.samples,
                      "host_slowdown": statistics.median(report.slowdown)}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": report.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

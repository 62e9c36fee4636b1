"""A ``repro serve`` daemon, its load, and the serve decomposition.

:class:`Daemon` owns one daemon subprocess on an ephemeral port and
always tears it down, process group and all, on failure too, so no run
inherits an earlier run's daemon.  :func:`load` drives it closed-loop
from at most two persistent connections in this process, counting
failures honestly: a 503, a 504, a retried request or a wrong payload
fails, and a connection that dies fails everything it had left to send.
:func:`ladder` splits one memo-hit request into transport and compute.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import loads

from repro import api
from repro.serve import ServeClient
from repro.trace import cache as trace_cache

BOOT_TIMEOUT_S = 60.0



class Daemon:
    """One ``repro serve`` subprocess warmed from a trace cache."""

    def __init__(self, workdir: Path, workload: dict, env: dict,
                 cache: Path) -> None:
        self.workload = workload
        self.cache = cache
        self.port_file = workdir / "daemon.port"
        self.log = workdir / "daemon.log"
        self.env = env
        self.proc = None
        self.address = None

    def command(self) -> list:
        args = ["serve", "--port", "0", "--port-file", str(self.port_file),
                "--trace-cache", str(self.cache),
                "--scale", f"{self.workload['scale']:g}"]
        for name in self.workload["traces"]:
            args += ["--warm", name]
        return [sys.executable, "-m", "repro.cli"] + args

    def start(self) -> None:
        """Boot the daemon; return once it has warmed and listens."""
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                self.command(), stdin=subprocess.DEVNULL, stdout=log,
                stderr=subprocess.STDOUT, env=self.env,
                start_new_session=True)
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while True:
            if self.port_file.exists():
                text = self.port_file.read_text().strip()
                if text:
                    self.address = ("127.0.0.1", int(text))
                    return
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with "
                                   f"{self.proc.returncode}: "
                                   f"{self._log_tail()}")
            if time.monotonic() > deadline:
                raise RuntimeError("repro serve did not come up within "
                                   f"{BOOT_TIMEOUT_S:.0f}s")
            time.sleep(0.01)

    def _log_tail(self) -> str:
        try:
            return self.log.read_text(errors="replace")[-2000:]
        except OSError:
            return ""

    def stop(self) -> None:
        """Shut the daemon down and wait for it; kill it if it lingers."""
        if self.proc is None:
            return
        try:
            if self.address is not None and self.proc.poll() is None:
                try:
                    with ServeClient(self.address, timeout=5.0) as client:
                        client.call("shutdown")
                except (OSError, ConnectionError):
                    pass
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
        finally:
            for sig in (signal.SIGTERM, signal.SIGKILL):
                if self.proc.poll() is not None:
                    break
                try:
                    os.killpg(self.proc.pid, sig)
                except ProcessLookupError:
                    break
                try:
                    self.proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    pass
            self.proc.wait()
            self.port_file.unlink(missing_ok=True)


def check(response: dict, request: dict, scale: float,
          pinned: dict) -> bool:
    """A response answered OK with exactly the pinned payload."""
    try:
        text = loads.lines_text(response["result"]["lines"])
    except (KeyError, TypeError):
        return False
    return response.get("ok") is True and \
        loads.digest(text) == pinned.get(loads.key(request, scale))


def prime(daemon: Daemon, pinned: dict) -> tuple:
    """Answer the primed requests once; ``(attempted, failed)``."""
    scale = daemon.workload["scale"]
    primed = loads.primed_requests(daemon.workload)
    failed = 0
    with ServeClient(daemon.address, timeout=60.0) as client:
        for request in primed:
            response = client.call(request["op"],
                                   **loads.serve_params(request, scale))
            failed += not check(response, request, scale, pinned)
    return len(primed), failed


class _Connection:
    """One closed-loop connection's tally."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.retries = 0
        self.alive = True


class _Load:
    """Closed-loop load in lock-step passes.

    Every connection sends one pass, then all meet at a barrier, where
    the run decides, for all at once, whether to go on.  So the passes
    a dead connection did not send are known exactly.
    """

    def __init__(self, daemon: Daemon, seed: int, seconds: float,
                 pinned: dict) -> None:
        self.workload = daemon.workload
        self.address = daemon.address
        self.pinned = pinned
        count = self.workload["connections"]
        self.plans = [loads.ServePlan(self.workload, c, count, seed)
                      for c in range(count)]
        self.tallies = [_Connection() for _ in range(count)]
        self.barrier = threading.Barrier(count, action=self._between)
        self.stop = False
        self.error = None
        self._deadline = time.monotonic() + seconds

    def _between(self) -> None:
        self.stop = time.monotonic() >= self._deadline or \
            not any(t.alive for t in self.tallies)

    def run(self) -> None:
        threads = [threading.Thread(target=self._drive, args=(c,),
                                    name=f"perfbench-conn-{c}")
                   for c in range(len(self.plans))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if self.error is not None:
            raise RuntimeError("load generator failed") from self.error

    def _drive(self, connection: int) -> None:
        plan, out = self.plans[connection], self.tallies[connection]
        scale = self.workload["scale"]
        client = None
        try:
            client = ServeClient(self.address, timeout=30.0, retries=1)
        except OSError as exc:
            print(f"perfbench: connect failed: {exc}", file=sys.stderr)
            out.alive = False
        try:
            while not self.stop:
                order = plan.next_pass()
                if out.alive:
                    self._send(client, order, scale, out)
                else:
                    # A dead connection fails every request it still
                    # had to send, pass by pass, until the run ends.
                    out.attempted += len(order)
                    out.failed += len(order)
                self.barrier.wait()
        except BaseException as exc:
            # Release the other connections from the barrier, and let
            # run() re-raise the first failure.
            if self.error is None:
                self.error = exc
            self.barrier.abort()
        finally:
            if client is not None:
                client.close()

    def _send(self, client: ServeClient, order: list, scale: float,
              out: _Connection) -> None:
        for index, (request, _) in enumerate(order):
            retries = client.retry_total
            try:
                response = client.call(request["op"],
                                       **loads.serve_params(request, scale))
            except (OSError, ConnectionError) as exc:
                left = len(order) - index
                print(f"perfbench: connection died ({exc}); its "
                      f"{left} remaining requests in this pass and all "
                      f"later ones fail", file=sys.stderr)
                out.attempted += left
                out.failed += left
                out.retries += client.retry_total - retries
                out.alive = False
                return
            out.attempted += 1
            out.retries += client.retry_total - retries
            if client.retry_total != retries or \
                    not check(response, request, scale, self.pinned):
                out.failed += 1


def load(daemon: Daemon, seed: int, seconds: float, pinned: dict) -> dict:
    """Closed-loop load from the plan's connections for ``seconds``:
    requests attempted and failed, and client retries."""
    run = _Load(daemon, seed, seconds, pinned)
    run.run()
    return {key: sum(getattr(t, key) for t in run.tallies)
            for key in ("attempted", "failed", "retries")}


def counters(daemon: Daemon) -> dict:
    """The daemon's ``serve.*`` / ``api.*`` counters."""
    with ServeClient(daemon.address, timeout=30.0) as client:
        snapshot = client.stats()["metrics"]
    return {name: entry["value"] for name, entry in snapshot.items()
            if entry.get("kind") == "counter"}


def ladder(daemon: Daemon, repeats: int) -> dict:
    """Decompose one memo-hit request, step by step.

    A ``health`` round trip (transport and protocol only), then a
    memo-hit ``predict`` round trip, then the same ``predict`` as an
    in-process memo hit on a resident ``Session``; medians of
    alternating repeats.
    """
    scale = daemon.workload["scale"]
    request = loads.primed_requests(daemon.workload)[0]
    params = loads.serve_params(request, scale)
    noop, hit = [], []
    with ServeClient(daemon.address, timeout=30.0) as client:
        for _ in range(repeats):
            started = time.monotonic()
            client.call("health")
            noop.append(time.monotonic() - started)
            started = time.monotonic()
            client.call(request["op"], **params)
            hit.append(time.monotonic() - started)
    trace_cache.configure(daemon.cache)
    session = api.Session(resident=True)
    query = api.PredictRequest(names=(request["name"],), scale=scale,
                               scheme=request["scheme"])
    session.predict(query)
    memo = []
    for _ in range(repeats):
        started = time.monotonic()
        session.predict(query)
        memo.append(time.monotonic() - started)
    session.close()
    trace_cache.reset()
    hit_us = statistics.median(hit) * 1e6
    memo_us = statistics.median(memo) * 1e6
    return {"serve.noop_rtt_us": statistics.median(noop) * 1e6,
            "serve.hit_rtt_us": hit_us,
            "api.memo_hit_us": memo_us,
            "serve.transport_share": (hit_us - memo_us) / hit_us}

"""Request generation and output checking shared by every workload.

A request is a small dict (``op``, ``name``, ``scheme`` for predict);
its :func:`key` names the pinned digest its response must match.  The
program only ever sees the generated requests: the seed never reaches
it.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: The scheme a ``predict`` request gets when it names none.
DEFAULT_SCHEME = "1bit-hybrid"

#: Every request op, in the order a pass lists them.
OPS = ("predict", "regions", "timing")


def spec() -> dict:
    """The workload specification (``workloads.json``), with the
    shared ``scale`` and ``schemes`` copied into every workload."""
    document = json.loads((HERE / "workloads.json").read_text())
    for workload in document["workloads"].values():
        workload["scale"] = document["scale"]
        workload["schemes"] = document["schemes"]
    return document


def digests(path=None) -> dict:
    """The pinned response digests, by request key."""
    return json.loads(Path(path or HERE / "digests.json").read_text())


def key(request: dict, scale: float) -> str:
    """The digest key of one request."""
    parts = [request["op"], request["name"], f"{scale:g}"]
    if request["op"] == "predict":
        parts.append(request["scheme"])
    return "|".join(parts)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def lines_text(lines) -> str:
    """A response payload as the batch CLI prints it."""
    return "".join(line + "\n" for line in lines)


def base_requests(workload: dict) -> list:
    """One pass of a batch workload, in its canonical order."""
    requests = []
    for name in workload["traces"]:
        for op in workload["ops"]:
            if op == "predict":
                requests.extend({"op": op, "name": name, "scheme": s}
                                for s in workload["schemes"])
            else:
                requests.append({"op": op, "name": name})
    return requests


def complement_requests(workload: dict) -> list:
    """The requests of every op the workload does not send, on its
    first trace.  A traced run answers them once, so that it measures
    every layer, the ones the workload leaves idle too."""
    ops = [op for op in OPS if op not in workload["ops"]]
    return base_requests(dict(workload, traces=workload["traces"][:1],
                              ops=ops))


def serve_workload(workload: dict) -> dict:
    """The workload as its traced run's ``serve`` load sees it."""
    return dict(workload, **workload["serve"])


def every_request(workload: dict) -> list:
    """Every request a run of the workload can send."""
    return (base_requests(workload) + complement_requests(workload)
            + base_requests(serve_workload(workload)))


def passes(requests: list, seed: int):
    """Endless passes over ``requests``, each in a seeded order."""
    rng = random.Random(seed)
    while True:
        order = list(requests)
        rng.shuffle(order)
        yield order


class ServePlan:
    """The seeded request mix of one ``serve`` connection.

    ``primed`` keys are answered during set-up, so they are memo hits
    from the first pass.  The connection's share of the remaining keys
    are first-time requests (memo misses): one lands at a seeded
    position in every ``miss_every``-th pass until they are spent, the
    connections offset so that no two misses share a pass (the
    session computes misses one at a time, so overlapping ones would
    queue behind each other).  Every other request repeats a key this
    connection has already sent, picked by the seeded generator, so it
    is a memo hit.
    """

    def __init__(self, workload: dict, connection: int, connections: int,
                 seed: int) -> None:
        primed = primed_requests(workload)
        pool = [r for r in base_requests(workload) if r not in primed]
        self.misses = pool[connection::connections]
        self.per_pass = workload["requests_per_pass"]
        self.miss_every = workload["miss_every"]
        self._offset = connection * self.miss_every // connections
        self._rng = random.Random(seed * 7919 + connection)
        self._rng.shuffle(self.misses)
        self._seen = primed
        self._pass = 0

    def next_pass(self) -> list:
        """The next pass: ``(request, is_miss)`` pairs."""
        rng = self._rng
        miss, due = divmod(self._pass - self._offset, self.miss_every)
        miss_at = -1
        if due == 0 and 0 <= miss < len(self.misses):
            miss_at = rng.randrange(self.per_pass)
        out = []
        for i in range(self.per_pass):
            if i == miss_at:
                request = self.misses[miss]
                self._seen.append(request)
                out.append((request, True))
            else:
                out.append((rng.choice(self._seen), False))
        self._pass += 1
        return out


def primed_requests(workload: dict) -> list:
    """The requests ``serve`` set-up answers before the measured run."""
    return [{"op": "predict", "name": name, "scheme": DEFAULT_SCHEME}
            for name in workload["traces"]]


class CycleLog:
    """Observes the exact cycle count of every timing simulation.

    A Figure 8 block rounds IPC to two places, so a one-cycle change in
    the timing machine can leave it unchanged; a ``timing`` answer's
    digest covers these counts as well.  The observer is one call per
    simulated config (16 per ``timing`` pass), negligible against the
    seconds each simulation takes.
    """

    def __init__(self) -> None:
        from repro.api import session as module
        self._module = module
        self._original = original = module.simulate
        self._cycles = []

        def observed(trace, config, *args, **kwargs):
            result = original(trace, config, *args, **kwargs)
            self._cycles.append(f"{config.name} {result.cycles}\n")
            return result

        module.simulate = observed

    def take(self) -> str:
        """The counts observed since the last call, one per line."""
        text = "".join(self._cycles)
        self._cycles.clear()
        return text

    def close(self) -> None:
        self._module.simulate = self._original


def session_call(session, request: dict, scale: float,
                 cycles: CycleLog = None) -> str:
    """Answer one request through a ``repro.api.Session``; the text its
    digest covers (a ``timing`` answer needs ``cycles``)."""
    from repro import api
    names = (request["name"],)
    if request["op"] == "predict":
        return session.predict(api.PredictRequest(
            names=names, scale=scale, scheme=request["scheme"])).text
    if request["op"] == "regions":
        return session.regions(api.RegionsRequest(names=names,
                                                  scale=scale)).text
    text = session.timing(api.TimingRequest(names=names, scale=scale)).text
    return text + cycles.take()


def serve_params(request: dict, scale: float) -> dict:
    """The ``repro serve`` params of one request."""
    params = {"names": [request["name"]], "scale": scale}
    if request["op"] == "predict":
        params["scheme"] = request["scheme"]
    return params

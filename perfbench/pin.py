"""Pin the response digests the benchmark checks against.

Usage, from the root of a checkout: ``python3 perfbench/pin.py``.
Answers every request any workload can send through a batch
``repro.api.Session`` and writes the SHA-256 of each response payload
to ``perfbench/digests.json``.  Run it only on code whose outputs are
known good (the digests were pinned from the seed commit): a later run
on changed code would pin that code's answers instead.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(1, str(HERE.parent / "src"))

import loads  # noqa: E402
from repro import api  # noqa: E402
from repro.trace import cache as trace_cache  # noqa: E402


def main() -> int:
    document = loads.spec()
    pinned = {}
    work = HERE.parent / ".perfbench"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as directory:
        trace_cache.configure(directory)
        session = api.Session(resident=False, jobs=1)
        cycles = loads.CycleLog()
        for workload in document["workloads"].values():
            scale = workload["scale"]
            for request in loads.every_request(workload):
                name = loads.key(request, scale)
                if name not in pinned:
                    text = loads.session_call(session, request, scale,
                                              cycles)
                    pinned[name] = loads.digest(text)
        cycles.close()
    try:
        work.rmdir()
    except OSError:
        pass
    (HERE / "digests.json").write_text(
        json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pinned)} digests", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

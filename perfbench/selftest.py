"""Self-test of the benchmark.

Usage, from the root of a checkout: ``python3 perfbench/selftest.py``.
Runs every workload at the tiny size (``--size tiny``) with a fixed
seed and checks that:

* every end-to-end metric of ``BENCHMARK.json`` (``--trace 0``) and
  every per-layer metric (``--trace 1``) is reported, with its unit,
  on every workload;
* a deliberately wrong pinned digest drives ``success_rate`` below 1;
* without the program beside it, the benchmark fails without a result.

Exits 1 on the first failed check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import loads  # noqa: E402

SEED = 7


def run(workload: str, trace: int, seconds: float, *extra, cwd=ROOT):
    command = [sys.executable, str(Path("perfbench") / "run.py"),
               "--workload", workload, "--seed", str(SEED),
               "--seconds", str(seconds), "--trace", str(trace),
               "--size", "tiny", *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def result(workload: str, trace: int, seconds: float, *extra):
    """The result of one run; raises on a failed run."""
    done = run(workload, trace, seconds, *extra)
    if done.returncode != 0:
        raise AssertionError(f"{workload} --trace {trace} exited "
                             f"{done.returncode}:\n{done.stderr[-3000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)
    print(f"ok   {message}")


def check_metrics(name: str, trace: int, wanted: list, units: dict,
                  document: dict) -> None:
    metrics = document["metrics"]
    check(set(metrics) == set(wanted),
          f"{name} --trace {trace} reports exactly {sorted(wanted)}")
    for metric, entry in metrics.items():
        check(entry["unit"] == units[metric]
              and isinstance(entry["value"], (int, float)),
              f"{name} {metric} = {entry['value']:.6g} {entry['unit']}")


def wrong_digest(name: str, workload: dict) -> None:
    """Alter the digest of one request the workload sends."""
    pinned = loads.digests()
    victim = loads.key(loads.base_requests(workload)[0], workload["scale"])
    pinned[victim] = "0" * 64
    path = ROOT / ".perfbench" / f"selftest-{name}-digests.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(pinned))
    try:
        document = result(name, 0, 2, "--digests", str(path))
    finally:
        path.unlink()
    rate = document["metrics"]["success_rate"]["value"]
    check(rate < 1 and not document["correct"] and document["failed"] > 0,
          f"{name}: a wrong digest for {victim} gives success_rate "
          f"{rate:.4f}, correct={document['correct']}")


def without_program() -> None:
    """Only BENCHMARK.json and perfbench/: no result, non-zero exit."""
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = run("replay", 0, 1, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(done.returncode != 0 and '"metrics"' not in done.stdout,
          f"without the program: exit {done.returncode}, no result")


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    try:
        without_program()
        for name, workload in loads.spec()["workloads"].items():
            for trace, key, seconds in ((0, "end_to_end", 3),
                                        (1, "per_layer", 6)):
                out = result(name, trace, seconds)
                check(out["correct"] and out["attempted"] >= 1,
                      f"{name} --trace {trace}: correct, "
                      f"{out['attempted']} attempted")
                check_metrics(name, trace,
                              [m["name"] for m in benchmark[key]], units,
                              out)
            wrong_digest(name, workload)
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    finally:
        try:
            (ROOT / ".perfbench").rmdir()
        except OSError:
            pass
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

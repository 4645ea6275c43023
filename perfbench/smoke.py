"""The benchmark's own smoke check; runs in seconds.

    python3 perfbench/smoke.py

Checks, at a tiny size:

1. every workload emits every ``end_to_end`` metric of
   ``BENCHMARK.json`` with its unit (``--trace 0``), and every
   ``per_layer`` metric with its unit (``--trace 1``);
2. the correctness gate fails on a wrong pinned digest and passes on
   the real one;
3. in a traced round, the spans' self times add up to the root spans'
   totals, and the layer shares to one;
4. without the program's sources beside it, ``run.py`` exits non-zero
   and prints no result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)


def run(*args: str, cwd: str = CHECKOUT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_metrics(spec: dict, failures: list) -> None:
    import workloads

    for workload in workloads.WORKLOADS:
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            done = run("--workload", workload, "--seed", "1",
                       "--seconds", "1", "--trace", trace, "--tiny")
            if done.returncode != 0:
                failures.append(f"{workload} --trace {trace} exited "
                                f"{done.returncode}: {done.stderr}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed",
                               "metrics"}:
                failures.append(f"{workload}: result keys {set(result)}")
            wanted = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: metric["unit"]
                   for name, metric in result["metrics"].items()}
            if got != wanted:
                failures.append(f"{workload} --trace {trace}: emitted "
                                f"{sorted(got.items())}, expected "
                                f"{sorted(wanted.items())}")


def check_gate(failures: list) -> None:
    import workloads

    root = os.path.join(HERE, "out", f"smoke-{os.getpid()}")
    try:
        workload = workloads.CampaignLocal(1, root, tiny=True)
        workload.setup()
        pinned = workloads.PINNED["campaign_local"]
        workload.gate(pinned)
        if workload.errors:
            failures.append(f"gate failed on its own pins: "
                            f"{workload.errors}")
        workload.errors.clear()
        wrong = {key: "0" * 64 for key in pinned}
        workload.gate(wrong)
        if not workload.errors:
            failures.append("gate passed a wrong pinned digest")
    finally:
        shutil.rmtree(root, ignore_errors=True)


def check_self_times(failures: list) -> None:
    import spans
    import workloads

    root = os.path.join(HERE, "out", f"smoke-{os.getpid()}")
    tracer = spans.Tracer()
    try:
        with tracer:
            workload = workloads.SweepRemote(1, root, tiny=True)
            workload.setup()
            workload.round(0, workloads.Recorder(tracer))
            workload.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    selfs = sum(spans.self_times(tracer.spans))
    roots = spans.root_total(tracer.spans)
    if abs(selfs - roots) > 1e-9 * max(1, len(tracer.spans)):
        failures.append(f"self times sum to {selfs}, roots to {roots}")
    metrics = spans.layer_metrics(tracer, 1, 0, 0, 1, 1)
    shares = sum(value for name, (value, _) in metrics.items()
                 if name.startswith("share."))
    if abs(shares - 1.0) > 1e-6:
        failures.append(f"layer shares sum to {shares}")
    if not any(span[spans.NAME] == "auth.verify"
               for span in tracer.spans):
        failures.append("no server-side span was recorded")


def check_bare_directory(failures: list) -> None:
    bare = os.path.join(HERE, "out", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out",
                                                      "__pycache__"))
        shutil.copy(os.path.join(CHECKOUT, "BENCHMARK.json"), bare)
        done = run("--workload", "campaign_local", "--seed", "1",
                   "--seconds", "1", "--trace", "0", cwd=bare)
        if done.returncode == 0 or done.stdout.strip():
            failures.append("run.py produced a result without sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(CHECKOUT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, os.path.join(CHECKOUT, "src"))
    sys.path.insert(0, HERE)
    failures: list = []
    check_metrics(spec, failures)
    check_gate(failures)
    check_self_times(failures)
    check_bare_directory(failures)
    for failure in failures:
        print(f"smoke: FAIL {failure}")
    print("smoke: ok" if not failures else
          f"smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

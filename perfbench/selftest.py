#!/usr/bin/env python3
"""Self-test of the cmpsim benchmark. Run from the root of a cmpsim git checkout:

    python3 perfbench/selftest.py              # contract and hygiene checks (~1 min)
    python3 perfbench/selftest.py --reference  # also the full committed-figure check (~3 min)

Checks that the correctness checks can fail: stubbed `cmpsim` runs that exit
badly, write no, broken, incomplete or cache-served results, and probe
outputs with cell errors must each count as failed operations. Then checks
that a short run of each kind prints exactly the metrics BENCHMARK.json
names and a correct verdict, that running leaves `git status` unchanged, and
that the benchmark refuses to run (exit code not 0, no result line) in a
directory holding only BENCHMARK.json and perfbench/. With --reference it
also runs the FIMI and mix7 sweeps at the committed scale and seed, where
every sweep point must equal results/fig4_scmp.json and results/fig6_lcmp.json.
"""

import argparse
import importlib.util
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def git_status():
    return subprocess.run(["git", "status", "--porcelain", "--untracked-files=all"], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def check_run(workload, trace, extra=()):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
                 *extra)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in want), result["metrics"]
    for m in want:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values()), result["metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, \
        done.stderr[-2000:]
    print(f"ok   {workload} --trace {trace} {' '.join(extra)}: "
          f"{result['attempted']} operations checked")


def load_runner():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


STUB = """#!{python}
import sys
text = {text!r}
if text is not None:
    with open("out.json", "w") as f:
        f.write(text)
sys.exit({code})
"""


def grid_doc(cells, points=7, **config):
    curve = [{"llc_bytes": 1 << (16 + i), "mpki": 1.5, "misses": 10 + i, "instructions": 1000}
             for i in range(points)]
    return {"manifest": {"config": dict(runner_ok=len(cells), **config)},
            "results": [{"workload": w, "points": curve} for w in cells]}


def check_failures_are_counted():
    """Each broken output must fail the operation; a well-formed one must not."""
    run = load_runner()
    args = argparse.Namespace(workload="fimi-sweep-cold", seed=3, seconds=1, trace=0,
                              scale="1/64")
    good = grid_doc(["FIMI"], trace_captures=1)
    cases = [
        ("well-formed results", 0, json.dumps(good), 0),
        ("non-zero exit", 3, json.dumps(good), 1),
        ("no results file", 0, None, 1),
        ("unreadable results", 0, "{not json", 1),
        ("results without a manifest", 0, json.dumps({"results": good["results"]}), 1),
        ("cache-served cell", 0, json.dumps(grid_doc(["FIMI"], trace_captures=1,
                                                     runner_cached=1)), 1),
        ("replayed cell", 0, json.dumps(grid_doc(["FIMI"], trace_captures=1,
                                                 runner_replayed=1)), 1),
        ("missing cell", 0, json.dumps(dict(good, results=[])), 1),
        ("short sweep", 0, json.dumps(grid_doc(["FIMI"], points=6, trace_captures=1)), 1),
        ("no capture", 0, json.dumps(grid_doc(["FIMI"])), 1),
    ]
    for what, code, text, want_failed in cases:
        bench = run.Bench(args)
        bench.work.mkdir(parents=True)
        try:
            stub = bench.work / "cmpsim-stub"
            stub.write_text(STUB.format(python=sys.executable, text=text, code=code))
            stub.chmod(0o755)
            bench.cmpsim = str(stub)
            bench.cold_op("stub")
            attempted, failed = bench.fails.totals()
        finally:
            shutil.rmtree(bench.work)
        assert attempted >= 1 and failed == want_failed, (what, attempted, failed)
    print(f"ok   {len(cases) - 1} broken cmpsim outputs each count as a failure")

    curve = good["results"][0]["points"]
    want = run.curves_of(good)

    def probe_doc(errors=(), cells_failed=0, results=True, captures=1):
        return {"cells_failed": cells_failed, "failures": ["FIMI: panicked"] * cells_failed,
                "broker_captures": captures, "broker_disk_loads": 0,
                "results": [{"workload": "FIMI", "points": curve, "errors": list(errors)}]
                if results else []}

    probes = [
        ("well-formed probe", probe_doc(), 0),
        ("probe cell error", probe_doc(errors=["FIMI: 1-board replay disagrees"]), 1),
        ("probe validation errors", probe_doc(errors=["FIMI: bad mpki", "FIMI: bad sum"]), 1),
        ("failed probe cell", probe_doc(cells_failed=1, results=False), 2),
        ("probe loaded instead of capturing", probe_doc(captures=0), 1),
    ]
    for what, doc, want_failed in probes:
        bench = run.Bench(args)
        bench.fails.attempt(1)  # the probe's one cell, as `traced` counts it
        bench.check_probe(doc, want)
        _, failed = bench.fails.totals()
        assert bench.fails.failed == want_failed, (what, bench.fails.failed)
        assert failed == min(want_failed, bench.fails.attempted), (what, failed)
    print(f"ok   {len(probes) - 1} broken probe outputs each count as a failure")


def check_refuses_outside_checkout():
    with tempfile.TemporaryDirectory(dir=ROOT / "perfbench" / ".work") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "target"))
        done = bench("--workload", "fimi-sweep-cold", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp)
    assert done.returncode != 0 and "correct" not in done.stdout, done
    print("ok   refuses to run without the cmpsim sources")


def main():
    (ROOT / "perfbench" / ".work").mkdir(parents=True, exist_ok=True)
    before = git_status()
    check_failures_are_counted()
    check_refuses_outside_checkout()
    for workload in [w["name"] for w in SPEC["workloads"]]:
        check_run(workload, 0)
    check_run("mix7-lcmp-service", 1)
    check_run("fimi-sweep-warm", 1)
    if "--reference" in sys.argv:
        for workload in ("fimi-sweep-cold", "mix7-lcmp-cold"):
            check_run(workload, 0, ("--scale", "1/16", "--seed", "2007"))
    assert git_status() == before, "a benchmark run changed the repository's files"
    print("ok   git status unchanged")


if __name__ == "__main__":
    main()

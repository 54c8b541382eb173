#!/usr/bin/env python3
"""The cmpsim benchmark: Figure 4/6 cache-size sweeps, end to end and layer by layer.

Run from the root of a cmpsim checkout:

    python3 perfbench/run.py --workload fimi-sweep-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20     # table of every workload

With --trace 0 each timed operation is one `cmpsim grid` (or `cmpsim submit`)
child process, and the end-to-end metrics are medians over the operations of
the run. With --trace 1 the run makes one untraced operation and then one
traced run of the in-process layer probe (perfbench/probe) on the same inputs,
and reports the per-layer metrics. Every run checks the results it produced
(see perfbench/README.md). The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Everything a run writes goes under perfbench/.work/ and is removed at exit,
except the ledger and spans of the last traced run of each workload.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

MIX7 = ["SNP", "SVM-RFE", "MDS", "SHOT", "VIEWTYPE", "PLSA", "RSEARCH"]

# Every workload runs the Figure 4/6 7-size LLC sweep through `cmpsim grid`.
WORKLOADS = {
    "fimi-sweep-cold": dict(cores=8, cells=["FIMI"], mode="cold", ref="fig4_scmp",
                            grid=["--jobs", "1", "--replay-shards", "1"]),
    "fimi-sweep-warm": dict(cores=8, cells=["FIMI"], mode="warm", ref="fig4_scmp",
                            grid=["--jobs", "1", "--replay-shards", "2"]),
    "mix7-lcmp-cold": dict(cores=32, cells=MIX7, mode="cold", ref="fig6_lcmp",
                           grid=["--jobs", "2"]),
    "mix7-lcmp-service": dict(cores=32, cells=MIX7, mode="service", ref="fig6_lcmp",
                              grid=["--jobs", "2"]),
}

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("sim_minstr_per_s", "Minstr/s"), ("trace_store_mb", "MB"), ("setup_s", "s")]

PER_LAYER = [
    ("workloads.build_s", "s"), ("softsdv.run_s", "s"), ("softsdv.minstr_per_s", "Minstr/s"),
    ("softsdv.instructions", "count"), ("softsdv.fsb_txns", "count"),
    ("trace.encode_s", "s"), ("trace.bytes_per_txn", "B/txn"), ("trace.decode_s", "s"),
    ("trace.decode_mtxn_per_s", "Mtxn/s"), ("core.store_write_s", "s"),
    ("core.store_load_s", "s"), ("core.broker_captures", "count"),
    ("core.broker_disk_loads", "count"), ("core.validate_s", "s"),
    ("dragonhead.replay_s", "s"), ("dragonhead.ns_per_txn_board", "ns"),
    ("dragonhead.ns_per_txn_board_1", "ns"), ("dragonhead.llc_misses", "count"),
    ("runner.sharded_replay_s", "s"), ("runner.shard_speedup", "ratio"),
    ("runner.cells_failed", "count"), ("runner.cell_wall_max_s", "s"),
    ("service.overhead_s", "s"), ("unattributed_s", "s"), ("trace_overhead_s", "s"),
    ("fail_ratio", "ratio"),
]

# The committed figure results were made at this scale and seed.
REFERENCE_SCALE, REFERENCE_SEED = "1/16", 2007
# A cheap cell checked against the committed results in every run.
ANCHOR_CELL = "SVM-RFE"
# Set-up is repeated and its median reported. A cold set-up (a fresh
# directory and one start of the binary) takes milliseconds, so it is
# repeated often; a store prefill is a whole cold sweep, so it is repeated
# least.
SETUP_REPEATS = {"cold": 301, "warm": 4, "service": 21}
STEP_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850
MIB = float(1 << 20)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


LIBC = ctypes.CDLL(None, use_errno=True)


def _die_with_parent():
    """Child pre-exec hook: the kernel kills the child if this process dies."""
    LIBC.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


class Failures:
    """Counts attempted operations (grid cells and result comparisons) and failed ones.

    `attempt` adds operations; `fail` marks operations already attempted as
    failed. `totals` reports at most every attempted operation as failed.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, ops):
        self.attempted += ops

    def fail(self, bad, reason):
        if bad:
            self.failed += bad
            log(f"FAILED: {reason}")
        return not bad

    def check(self, ok, reason):
        self.attempt(1)
        return self.fail(0 if ok else 1, reason)

    def totals(self):
        """(attempted, failed), with failed capped at attempted."""
        return self.attempted, min(self.failed, self.attempted)


def spawn(argv, cwd, log_path):
    """Starts a child that dies with us; stdout is discarded, stderr logged."""
    with open(log_path, "ab") as err:
        return subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err,
                                preexec_fn=_die_with_parent)


def reap(proc, timeout):
    """Waits for `proc` and returns (exit status, rusage of it and its children).

    A child still running after `timeout` seconds is killed and reported as
    status -9.
    """
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def timed(argv, cwd, log_path, timeout=STEP_TIMEOUT_S):
    """Runs one child to completion; returns (exit code, wall s, cpu s, peak RSS MB)."""
    start = time.perf_counter()
    code, usage = reap(spawn(argv, cwd, log_path), timeout)
    wall = time.perf_counter() - start
    return code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def dir_mb(path):
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total / MIB


def proc_cpu_s(pid):
    """CPU seconds of a live process plus its reaped children, from /proc."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    # utime, stime, cutime, cstime are fields 14-17 (1-based) of stat.
    return sum(int(x) for x in fields[11:15]) / os.sysconf("SC_CLK_TCK")


def curves_of(doc):
    """The sweep points of a results JSON, as {workload: [(bytes, mpki, misses, instr)]}."""
    return {r["workload"]: [(p["llc_bytes"], p["mpki"], p["misses"], p["instructions"])
                            for p in r["points"]] for r in doc["results"]}


class Bench:
    def __init__(self, args):
        self.args = args
        self.spec = WORKLOADS[args.workload]
        self.root = Path.cwd()
        target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        self.target = target if target.is_absolute() else self.root / target
        self.cmpsim = str(self.target / "release" / "cmpsim")
        self.probe = str(self.target / "release" / "cmpsim-perfbench-probe")
        self.work = self.root / "perfbench" / ".work" / f"{args.workload}-{os.getpid()}"
        self.log = self.work / "children.log"
        self.fails = Failures()
        self.daemon = None
        self.addr = None
        self.store = None  # the prefilled trace store of the warm workload
        self.prov = None
        self.counter = 0

    # ---- building and provenance -------------------------------------------------

    def build(self):
        env = dict(os.environ, CARGO_TARGET_DIR=str(self.target))
        for argv in (["cargo", "build", "--release", "--offline", "-p", "cmpsim-bench",
                      "--bin", "cmpsim"],
                     ["cargo", "build", "--release", "--offline", "--manifest-path",
                      "perfbench/probe/Cargo.toml"]):
            done = subprocess.run(argv, cwd=self.root, env=env, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
            if done.returncode != 0:
                raise SystemExit(f"perfbench: build failed: {' '.join(argv)}")

    def stamp_provenance(self):
        """Records where and on what this run measures, for every output it writes."""
        def first_line(argv):
            try:
                out = subprocess.run(argv, cwd=self.root, capture_output=True, text=True,
                                     timeout=30)
                return out.stdout.strip().splitlines()[0] if out.returncode == 0 else None
            except (OSError, IndexError, subprocess.TimeoutExpired):
                return None

        cpu = None
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
        digest = hashlib.sha256()
        for path in sorted(self.root.glob("crates/**/*")) + [self.root / "Cargo.lock"]:
            if path.is_file():
                digest.update(str(path.relative_to(self.root)).encode())
                digest.update(path.read_bytes())
        self.prov = {
            "workload": self.args.workload, "seed": self.args.seed,
            "scale": self.args.scale, "seconds": self.args.seconds, "trace": self.args.trace,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "host": platform.node(), "rustc": first_line(["rustc", "--version"]),
            "git_commit": first_line(["git", "rev-parse", "HEAD"])
            if (self.root / ".git").exists() else None,
            "source_sha256": digest.hexdigest()[:16],
        }

    # ---- cmpsim invocations ------------------------------------------------------

    def fresh_dir(self, name):
        self.counter += 1
        d = self.work / f"{self.counter:03d}-{name}"
        d.mkdir(parents=True)
        return d

    def grid_argv(self, cells, seed, scale, trace_dir=None, extra=()):
        argv = [self.cmpsim, "grid", "--cores", str(self.spec["cores"]),
                "--workloads", ",".join(cells), "--scale", scale, "--seed", str(seed),
                "--no-cache", "--quiet", "--metrics-out", "out.json"]
        if trace_dir is not None:
            argv += ["--trace-dir", str(trace_dir)]
        return argv + list(extra)

    def operation(self, name, argv_of, cells, counters):
        """One timed `cmpsim` run in a fresh directory, checked for completeness.

        `argv_of(dir, store)` gives the command for the operation's directory
        and its fresh trace-store path; `counters` maps manifest counters to
        their required values. Returns (measures, curves or None, directory).
        """
        d = self.fresh_dir(name)
        store = d / "store"
        cpu0 = proc_cpu_s(self.daemon.pid) if self.daemon else 0.0
        code, wall, cpu, rss = timed(argv_of(d, store), d, self.log)
        if self.daemon:
            cpu += proc_cpu_s(self.daemon.pid) - cpu0
        m = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
             "trace_store_mb": dir_mb(store) if store.exists() else 0.0}
        self.fails.attempt(len(cells))
        if not self.fails.fail(len(cells) if code else 0, f"{name}: exit code {code}"):
            return m, None, d
        try:
            doc = json.loads((d / "out.json").read_text())
            curves = curves_of(doc)
            config = doc["manifest"].get("config", {})
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as e:
            self.fails.fail(len(cells), f"{name}: unreadable results: {e!r}")
            return m, None, d
        # Every cell must have run: failed, timed-out, poisoned, skipped
        # and cache-served cells all count as failed.
        bad = len(cells) - min(config.get("runner_ok", 0), len(curves))
        bad += sum(config.get(k, 0) for k in ("runner_cached", "runner_replayed"))
        if not self.fails.fail(min(bad, len(cells)),
                               f"{name}: {bad} cells failed or were not computed ({config})"):
            return m, None, d
        self.fails.check(sorted(curves) == sorted(cells) and
                         all(len(p) == 7 for p in curves.values()),
                         f"{name}: results do not cover the 7-size sweep of {cells}")
        for key, value in counters.items():
            self.fails.check(config.get(key, 0) == value,
                             f"{name}: manifest {key}={config.get(key, 0)}, want {value}")
        m["sim_minstr_per_s"] = sum(p[0][3] for p in curves.values()) / 1e6 / wall
        return m, curves, d

    def cold_op(self, name):
        cells = self.spec["cells"]
        return self.operation(
            name,
            lambda d, store: self.grid_argv(cells, self.args.seed, self.args.scale, store,
                                            self.spec["grid"]),
            cells, {"trace_captures": len(cells)})

    def warm_op(self, name, store, extra=None):
        cells = self.spec["cells"]
        return self.operation(
            name,
            lambda d, _: self.grid_argv(cells, self.args.seed, self.args.scale, store,
                                        self.spec["grid"] if extra is None else extra),
            cells, {"trace_disk_loads": len(cells), "trace_captures": 0})

    def service_op(self, name):
        cells = self.spec["cells"]
        return self.operation(
            name,
            lambda d, store: ["submit" if a == "grid" else a for a in
                              self.grid_argv(cells, self.args.seed, self.args.scale, store,
                                             self.spec["grid"])] + ["--connect", self.addr],
            cells, {})

    # ---- set-up ------------------------------------------------------------------

    def start_daemon(self):
        d = self.fresh_dir("daemon")
        port = d / "port"
        start = time.perf_counter()
        self.daemon = spawn([self.cmpsim, "serve", "--listen", "127.0.0.1:0", "--workers", "2",
                             "--no-cache", "--journal-dir", str(d / "journal"),
                             "--port-file", str(port)], d, self.log)
        deadline = start + 30
        while time.perf_counter() < deadline and self.daemon.poll() is None:
            if port.exists() and port.read_text().strip():
                self.addr = port.read_text().strip()
                done = subprocess.run([self.cmpsim, "status", "--connect", self.addr, "--json"],
                                      cwd=d, capture_output=True, timeout=30)
                if done.returncode == 0:
                    return time.perf_counter() - start
            time.sleep(0.002)
        raise RuntimeError("cmpsim serve did not come up")

    def stop_daemon(self):
        """Drains the daemon; returns (exit code, peak RSS MB of it and its workers)."""
        if self.daemon is None:
            return 0, 0.0
        daemon, self.daemon = self.daemon, None
        if daemon.returncode is not None:
            return daemon.returncode, 0.0
        daemon.send_signal(signal.SIGTERM)
        code, usage = reap(daemon, 30)
        return code, usage.ru_maxrss / 1024.0

    def drain_daemon(self):
        """Stops the daemon as a checked operation; returns its peak RSS (MB)."""
        code, rss = self.stop_daemon()
        self.fails.check(code == 0, f"cmpsim serve exited with {code}")
        return rss

    def setup(self, repeats):
        """Prepares the workload `repeats` times; returns (set-up seconds, reference curves).

        The repeats of a cold or service set-up are checked as one operation.
        """
        mode = self.spec["mode"]
        times, codes, reference = [], [], None
        for i in range(repeats):
            if mode == "warm":
                # The store prefill is a cold sweep; its results are the cold
                # reference every warm operation must match.
                m, curves, d = self.cold_op("prefill")
                times.append(m["wall_s"])
                if curves is not None:
                    if reference is not None:
                        self.fails.check(curves == reference, "prefill results differ")
                    reference = curves
                    if i + 1 < repeats:
                        shutil.rmtree(d)
                    else:
                        self.store = d / "store"
            elif mode == "service":
                if self.daemon is not None:
                    codes.append(self.stop_daemon()[0])
                times.append(self.start_daemon())
            else:
                # `cmpsim list` exits within milliseconds: a plain spawn, as
                # the pre-exec hook of `spawn` would time Python's fork, and a
                # blocking reap, as `wait(timeout)` polls in steps of 0.5-2 ms.
                start = time.perf_counter()
                d = self.fresh_dir("setup")
                proc = subprocess.Popen([self.cmpsim, "list"], cwd=d, stdin=subprocess.DEVNULL,
                                        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
                codes.append(reap(proc, 30)[0])
                times.append(time.perf_counter() - start)
        if mode == "warm" and reference is None:
            raise RuntimeError("store prefill failed")
        if mode != "warm":
            self.fails.check(not any(codes), f"set-up exit codes {sorted(set(codes))}")
        return statistics.median(times), reference

    # ---- correctness -------------------------------------------------------------

    def committed(self, name):
        doc = json.loads((self.root / "results" / f"{name}.json").read_text())
        return curves_of(doc)

    def check_anchor(self):
        """A cheap cell at the committed scale and seed must match the committed figure."""
        cells = [ANCHOR_CELL]
        m, curves, _ = self.operation(
            "anchor",
            lambda d, _: self.grid_argv(cells, REFERENCE_SEED, REFERENCE_SCALE),
            cells, {})
        ref = self.committed(self.spec["ref"])
        if curves is not None:
            self.fails.check(curves[ANCHOR_CELL] == ref[ANCHOR_CELL],
                             f"{ANCHOR_CELL} at seed {REFERENCE_SEED} differs from "
                             f"results/{self.spec['ref']}.json")

    def check_reference(self, curves):
        """At the committed scale and seed the whole sweep must match the committed figure."""
        if (self.args.scale, self.args.seed) != (REFERENCE_SCALE, REFERENCE_SEED):
            return
        ref = self.committed(self.spec["ref"])
        for cell in self.spec["cells"]:
            self.fails.check(curves.get(cell) == ref[cell],
                             f"{cell} differs from results/{self.spec['ref']}.json")

    def check_twin(self, curves, last_dir):
        """The other execution path of the same sweep must give identical results."""
        mode = self.spec["mode"]
        if mode == "cold":
            _, twin, _ = self.warm_op("twin-warm", last_dir / "store",
                                      extra=self.spec["grid"][:2] + ["--replay-shards", "2"])
            what = "warm replay of the cold store"
        elif mode == "service":
            _, twin, _ = self.cold_op("twin-local")
            what = "local cold grid"
        else:
            return  # warm operations were each compared with the cold prefill
        if twin is not None:
            self.fails.check(twin == curves, f"{what} differs from the timed results")

    def check_probe(self, probe, want):
        """The probe's cells, whose attempts are counted already, and its comparisons."""
        errors = [e for c in probe["results"] for e in c["errors"]]
        bad = probe["cells_failed"] + sum(1 for c in probe["results"] if c["errors"])
        self.fails.fail(bad, f"probe: {probe['failures'] + errors}")
        warm = self.spec["mode"] == "warm"
        key = "broker_disk_loads" if warm else "broker_captures"
        self.fails.check(probe[key] == len(self.spec["cells"]),
                         f"probe {key}={probe[key]}, want {len(self.spec['cells'])}")
        self.fails.check(curves_of(probe) == want, "probe results differ from cmpsim grid")

    # ---- the two kinds of run ----------------------------------------------------

    def measure(self, op):
        """Repeats the workload's operation for --seconds; returns median end-to-end metrics."""
        setup_s, reference = self.setup(SETUP_REPEATS[self.spec["mode"]])
        ops, last_dir, first_curves = [], None, reference
        start = time.perf_counter()
        while not ops or time.perf_counter() - start < self.args.seconds:
            m, curves, d = op(f"op{len(ops)}")
            ops.append(m)
            if curves is not None:
                if first_curves is None:
                    first_curves = curves
                    self.check_reference(curves)
                else:
                    self.fails.check(curves == first_curves,
                                     f"op{len(ops) - 1} results differ from the "
                                     f"{'cold prefill' if reference else 'first operation'}")
            if last_dir is not None:
                shutil.rmtree(last_dir)
            last_dir = d
        log(f"{len(ops)} operations in {time.perf_counter() - start:.2f} s")
        metrics = {k: statistics.median(m[k] for m in ops if k in m) if
                   any(k in m for m in ops) else 0.0 for k, _ in END_TO_END if k != "setup_s"}
        if self.spec["mode"] == "warm":
            metrics["trace_store_mb"] = dir_mb(self.store)
        if self.spec["mode"] == "service":
            metrics["peak_rss_mb"] = max(metrics["peak_rss_mb"], self.drain_daemon())
        metrics["setup_s"] = setup_s
        if first_curves is not None:
            self.check_twin(first_curves, last_dir)
        self.check_anchor()
        return metrics

    def traced(self, op):
        """One untraced operation, then the layer probe on the same inputs."""
        setup_s, reference = self.setup(1)
        m, curves, _ = op("untraced")
        service_overhead = 0.0
        if self.spec["mode"] == "service":
            cold, cold_curves, _ = self.cold_op("untraced-local")
            service_overhead = m["wall_s"] - cold["wall_s"]
            if curves is not None and cold_curves is not None:
                self.fails.check(curves == cold_curves, "service results differ from local")
            self.drain_daemon()
        d = self.fresh_dir("probe")
        warm = self.spec["mode"] == "warm"
        store = self.store if warm else d / "store"
        argv = [self.probe, "--cores", str(self.spec["cores"]),
                "--workloads", ",".join(self.spec["cells"]), "--scale", self.args.scale,
                "--seed", str(self.args.seed), "--store", str(store),
                "--mode", "warm" if warm else "cold"]
        out = d / "probe.json"
        with open(out, "wb") as f, open(self.log, "ab") as err:
            proc = subprocess.Popen(argv, cwd=d, stdin=subprocess.DEVNULL, stdout=f,
                                    stderr=err, preexec_fn=_die_with_parent)
            code, _ = reap(proc, STEP_TIMEOUT_S)
        cells = self.spec["cells"]
        self.fails.attempt(len(cells))
        if not self.fails.fail(len(cells) if code else 0, f"probe exit code {code}"):
            return layer_metrics(None, m, service_overhead)
        try:
            probe = json.loads(out.read_text())
            self.check_probe(probe, curves if curves is not None else reference)
        except (ValueError, KeyError, TypeError) as e:
            self.fails.fail(len(cells), f"probe: unreadable output: {e!r}")
            return layer_metrics(None, m, service_overhead)
        self.check_anchor()
        metrics, ledger = layer_metrics(probe, m, service_overhead)
        keep = self.root / "perfbench" / ".work" / f"last-{self.args.workload}.json"
        spans = [dict(s, cell=c["workload"]) for c in probe["results"] for s in c["spans"]]
        keep.write_text(json.dumps({"provenance": self.prov, "ledger": ledger,
                                    "metrics": metrics, "spans": spans}, indent=1))
        log("self-time ledger (s): " + ", ".join(f"{k} {v:.3f}" for k, v in ledger.items()))
        return metrics, ledger

    def run(self):
        op = {"cold": self.cold_op, "warm": lambda n: self.warm_op(n, self.store),
              "service": self.service_op}[self.spec["mode"]]
        self.work.mkdir(parents=True)
        try:
            if self.args.trace:
                metrics, _ = self.traced(op)
                attempted, failed = self.fails.totals()
                metrics["fail_ratio"] = failed / max(1, attempted)
                units = dict(PER_LAYER)
            else:
                metrics = self.measure(op)
                units = dict(END_TO_END)
        finally:
            self.stop_daemon()
            shutil.rmtree(self.work, ignore_errors=True)
        return {k: {"value": metrics[k], "unit": units[k]} for k in units}


def layer_metrics(probe, untraced, service_overhead):
    """Per-layer metrics and the self-time ledger from the probe's measures."""
    metrics = {k: 0.0 for k, _ in PER_LAYER}
    metrics["service.overhead_s"] = service_overhead
    if probe is None:
        return metrics, {}
    cells = [c["measures"] for c in probe["results"]]

    def total(key, where=lambda c: True):
        return sum(c[key] for c in cells if where(c))

    loaded = lambda c: not c["captured"]
    # The capture call builds the workload and runs the platform again
    # before it encodes: its time is split between the three layers, at
    # the cost the standalone build and platform calls measured.
    split = [(b, p, c["capture_s"] - b - p) for c in cells if c["captured"]
             for b in [min(c["build_s"], c["capture_s"])]
             for p in [min(c["platform_s"], c["capture_s"] - b)]]
    encode = sum(e for _, _, e in split)
    txns, decode = total("txns"), total("decode_s")
    replay = sum(c["replay7_s"] - c["decode_s"] for c in cells)
    replay1 = sum(c["replay1_s"] - c["decode_s"] for c in cells)
    run_s = total("platform_s")
    metrics.update({
        "workloads.build_s": total("build_s"),
        "softsdv.run_s": run_s,
        "softsdv.minstr_per_s": total("instructions") / run_s / 1e6 if run_s else 0.0,
        "softsdv.instructions": total("instructions"),
        "softsdv.fsb_txns": total("fsb_txns"),
        "trace.encode_s": encode,
        "trace.bytes_per_txn": total("bytes") / txns if txns else 0.0,
        "trace.decode_s": decode,
        "trace.decode_mtxn_per_s": txns / decode / 1e6 if decode else 0.0,
        "core.store_write_s": sum(c["broker_s"] - c["capture_s"] for c in cells if c["captured"]),
        "core.store_load_s": total("broker_s", loaded),
        "core.broker_captures": probe["broker_captures"],
        "core.broker_disk_loads": probe["broker_disk_loads"],
        "core.validate_s": total("validate_s"),
        "dragonhead.replay_s": replay,
        "dragonhead.ns_per_txn_board": replay / sum(c["txns"] * c["boards"] for c in cells) * 1e9,
        "dragonhead.ns_per_txn_board_1": replay1 / txns * 1e9,
        "dragonhead.llc_misses": total("llc_misses"),
        "runner.sharded_replay_s": total("sharded_s"),
        "runner.shard_speedup": total("sharded1_s") / total("sharded_s"),
        "runner.cells_failed": probe["cells_failed"],
        "runner.cell_wall_max_s": probe["cell_wall_max_s"],
        "trace_overhead_s": probe["wall_s"] - untraced["wall_s"],
    })
    # Self time per layer; every replay decodes the stream once more, at the
    # cost the standalone decode pass measured.
    ledger = {
        "workloads": metrics["workloads.build_s"] + sum(b for b, _, _ in split),
        "softsdv": run_s + sum(p for _, p, _ in split),
        "trace": encode + 3 * decode,
        "core": metrics["core.store_write_s"] + metrics["core.store_load_s"]
        + metrics["core.validate_s"],
        "dragonhead": replay + replay1,
        "runner": probe["grid_s"] - total("cell_s") + total("sharded1_s") + total("sharded_s"),
    }
    ledger["unattributed"] = probe["wall_s"] - sum(ledger.values())
    ledger["wall"] = probe["wall_s"]
    metrics["unattributed_s"] = ledger["unattributed"]
    return metrics, ledger


def run_all(args):
    """Runs every workload in its own process and prints one table."""
    rows, verdict = [], True
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            rows.append((name, "-", "-", "run failed"))
            verdict = False
            continue
        result = json.loads(lines[-1])
        verdict &= result["correct"]
        fail_ratio = result["failed"] / result["attempted"]
        for key, m in result["metrics"].items():
            rows.append((name, key, f"{m['value']:.6g}", m["unit"]))
        rows.append((name, "fail_ratio", f"{fail_ratio:.6g}", "ratio"))
    width = max(len(r[0]) for r in rows)
    for r in rows:
        print(f"{r[0]:<{width}}  {r[1]:<32} {r[2]:>14} {r[3]}")
    print(f"correct: {str(verdict).lower()}")
    return 0 if verdict else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", default="1/64",
                    help="workload scale; 1/16 with --seed 2007 checks the committed figures")
    args = ap.parse_args()
    root = Path.cwd()
    missing = [p for p in ("Cargo.toml", "crates", "results/fig4_scmp.json",
                           "results/fig6_lcmp.json", "perfbench/probe/Cargo.toml")
               if not (root / p).exists()]
    if missing:
        print(f"perfbench: run from the root of a cmpsim checkout (missing: "
              f"{', '.join(missing)})", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    bench = Bench(args)
    bench.build()
    bench.stamp_provenance()
    metrics = bench.run()
    attempted, failed = bench.fails.totals()
    print("provenance: " + json.dumps(bench.prov))
    for key, m in metrics.items():
        print(f"{args.workload}  {key:<32} {m['value']:>14.6g} {m['unit']}")
    print(f"{args.workload}  correct: {str(failed == 0).lower()} "
          f"({failed} of {attempted} operations failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

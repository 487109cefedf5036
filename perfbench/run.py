#!/usr/bin/env python3
"""End-to-end benchmark of `vft run` on compiled -fsanitize=thread binaries.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds, on first use, the vft targets the benchmark needs (into
.bench_build/vft, from the repository's own CMakeLists) and the
benchmark's own binaries (perfbench/CMakeLists.txt, into
.bench_build/perfbench). Then:

  --trace 0  runs the workload's program natively, under GCC TSan and
             under `vft run`, round-robin, for S seconds, checks every
             output, and prints the end-to-end metrics.
  --trace 1  runs the per-layer ladder (perfbench/ladder plus the rows it
             reuses from bench_scaling and bench_hotpath), then the
             workload under `vft run` with the trace shim in front of
             libvft_preload, alternating with untraced runs, and prints
             the per-layer metrics.

The last line of standard output is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Every target run counts as attempted; a run that fails any check counts
as failed and is never retried or dropped. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
VFT_BUILD = os.path.join(BUILD, "vft")
PB_BUILD = os.path.join(BUILD, "perfbench")

VFT = os.path.join(VFT_BUILD, "tools", "vft")
PRELOAD = os.path.join(VFT_BUILD, "src", "interpose", "libvft_preload.so")
BENCH_SCALING = os.path.join(VFT_BUILD, "bench", "bench_scaling")
BENCH_HOTPATH = os.path.join(VFT_BUILD, "bench", "bench_hotpath")
SHIM = os.path.join(PB_BUILD, "libvft_trace_shim.so")
LADDER = os.path.join(PB_BUILD, "ladder")
MEASURE = os.path.join(PB_BUILD, "measure")

VFT_TARGETS = ["vft", "vft_preload", "vft_abi", "bench_hotpath", "bench_scaling"]
# The programs fix their own sizes and run TARGET_THREADS threads (the
# kernels program runs sor, lufact and sparse at scale 1, the stencil
# sweeps a 34x128 grid) and take only the seed and the amount of work.
# THREADS is the largest T of the ladder and bench_hotpath.
TARGET_THREADS = 2
THREADS = 4
KERNEL_COUNT = 3
STENCIL_SWEEPS = 200
TARGET_TIMEOUT_S = 60
BENCH_TIMEOUT_S = 120
# relax_row has three store sites (two boundary columns and the
# interior loop); the racy halo row races at each of them.
RACY_CONTEXTS = 3

WORKLOADS = {
    "kernels": {"program": "kernels", "vft_flags": [], "racy": False},
    "kernels-budget5": {"program": "kernels", "vft_flags": ["--budget", "5"],
                        "racy": False},
    "stencil": {"program": "stencil", "vft_flags": [], "racy": False},
    "stencil-racy": {"program": "stencil", "vft_flags": [], "racy": True},
}

# ---------------------------------------------------------------------------
# Metric definitions (name, unit). The JSON result carries END_TO_END for
# --trace 0 and PER_LAYER for --trace 1: the figures measured on every
# workload. The human-readable tables also print TABLE_ONLY untraced and
# TRACE_ONLY traced.
# ---------------------------------------------------------------------------

# Times in the JSON are CPU seconds (user + system, from wait4). The
# kernel leaves out the time the hypervisor gave other guests, so on a
# shared host they stay put while wall times follow the host's load.
END_TO_END = [
    ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"), ("rss_x", "x"),
]

# Ratios to the native and TSan runs, wall-time figures, and figures
# that exist on some workloads only. The native and TSan runs last
# milliseconds, mostly process start-up, whose CPU time grows with the
# host's load, so the ratios stay out of the JSON.
TABLE_ONLY = [
    ("cpu_slowdown_x", "x"), ("cpu_vs_tsan_x", "x"),
    ("run_s", "s"), ("slowdown_x", "x"), ("vs_tsan_x", "x"),
    ("setup_wall_s", "s"), ("phase_p50_ms", "ms"), ("phase_p95_ms", "ms"),
    ("failed_frac", "frac"), ("race_contexts", "count"),
    ("budget_overhead_pct", "%"), ("sampling_rate", "frac"),
]

INTERPOSE = [
    ("interpose.plain_calls", "count"),
    ("interpose.atomic_relaxed_calls", "count"),
    ("interpose.mutex_calls", "count"),
    ("interpose.cond_calls", "count"),
    ("interpose.thread_calls", "count"),
    ("interpose.func_calls", "count"),
    ("interpose.range_bytes", "bytes"),
    ("interpose.internal_mutex_calls", "count"),
    ("interpose.plain_ns", "ns"),
    ("interpose.mutex_ns", "ns"),
    ("interpose.explained_share", "frac"),
    ("trace.overhead_x", "x"),
]

# Shim figures some workloads never produce: no workload makes an
# ordered atomic call, the stencils make no relaxed one, and their few
# range calls are never among the timed 64th. A mean over no timed call
# is n/a, not 0, so these are printed in the table and left out of the
# JSON.
TRACE_ONLY = [
    ("interpose.atomic_ordered_calls", "count"),
    ("interpose.atomic_relaxed_ns", "ns"),
    ("interpose.atomic_ordered_ns", "ns"),
    ("interpose.range_ns_per_kib", "ns/KiB"),
]

# Ladder rungs the benchmark's own ladder binary prints.
LADDER_OWN = (
    [f"vft.cell_read_{p}_t{t}_ns" for p in ("excl", "shared") for t in (1, 4)]
    + ["runtime.space_read_excl_t4_ns"]
    + [f"vft.rule_read_excl_t{t}_ns" for t in (1, 4)]
    + [f"runtime.session_read_{p}_t{t}_ns" for p in ("excl", "shared")
       for t in (1, 4)]
    + ["abi.read8_excl_t4_ns"]
    + [f"abi.write8_excl_t{t}_ns" for t in (1, 4)]
    + [f"vft.stats_bump_t{t}_ns" for t in (1, 4)]
    + [f"abi.atomic_load_{o}_t4_ns" for o in ("relaxed", "acquire")]
    + [f"abi.atomic_store_{o}_t{t}_ns" for o in ("relaxed", "release")
       for t in (1, 4)]
    + [f"abi.mutex_pair_t{t}_ns" for t in (1, 4)]
    + ["vft.vc_copy_n4_ns", "vft.vc_copy_n64_ns", "abi.thread_cycle_us",
       "abi.range_read_4k_ns", "abi.free_hint_4k_ns", "vft.sampling_admit_ns",
       "vft.report_add_ns", "vft.stack_capture_ns",
       "runtime.shadow_bytes_per_word"]
)

# Rungs reused from the existing benches: metric -> (bench, section,
# row name, column). Column "{isa}_ns" takes the active ISA's column.
LADDER_REUSED = {
    "vft.rule_read_shared_t1_ns": ("scaling", "read_shared_ns_access", "threads_1", "v2"),
    "vft.rule_read_shared_t4_ns": ("scaling", "read_shared_ns_access", "threads_4", "v2"),
    "runtime.space_read_shared_t1_ns": ("scaling", "read_shared_ns_access", "threads_1", "packed"),
    "runtime.space_read_shared_t4_ns": ("scaling", "read_shared_ns_access", "threads_4", "packed"),
    "abi.read8_shared_t1_ns": ("scaling", "read_shared_ns_access", "threads_1", "abi"),
    "abi.read8_shared_t4_ns": ("scaling", "read_shared_ns_access", "threads_4", "abi"),
    "runtime.space_read_excl_t1_ns": ("hotpath", "packed_cell", "VerifiedFT-v2_w4k", "packed_read_ns"),
    "abi.read8_excl_t1_ns": ("hotpath", "abi_dispatch", "read8", "abi_ns"),
    "abi.atomic_load_relaxed_t1_ns": ("hotpath", "atomic_dispatch", "load", "relaxed_ns"),
    "abi.atomic_load_acquire_t1_ns": ("hotpath", "atomic_dispatch", "load", "acquire_ns"),
    "vft.vc_join_n4_ns": ("hotpath", "vc_join", "n4", "{isa}_ns"),
    "vft.vc_join_n64_ns": ("hotpath", "vc_join", "n64", "{isa}_ns"),
    "vft.history_record_ns": ("hotpath", "history", "spill_write", "overhead_ns"),
}


def ladder_unit(name):
    if name.endswith("_us"):
        return "us"
    if name.endswith("_per_word"):
        return "bytes/word"
    return "ns"


PER_LAYER = INTERPOSE + [(n, ladder_unit(n))
                         for n in sorted(LADDER_OWN + list(LADDER_REUSED))]


# ---------------------------------------------------------------------------
# Build.
# ---------------------------------------------------------------------------

def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        log("perfbench: the vft sources (CMakeLists.txt, src/) are not next "
            "to perfbench/; run from a full checkout of the repository")
        sys.exit(2)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(VFT_BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", VFT_BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", VFT_BUILD, "-j", jobs, "--target"]
                 + VFT_TARGETS)
    if not os.path.isfile(os.path.join(PB_BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", PB_BUILD,
                      "-DVFT_SOURCE_DIR=" + ROOT,
                      "-DVFT_BINARY_DIR=" + VFT_BUILD])
    steps.append(["cmake", "--build", PB_BUILD, "-j", jobs])
    build_log = os.path.join(BUILD, "build.log")
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(build_log, "w") as out:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                                 env=env)
            if rc != 0:
                log(f"perfbench: build step failed ({' '.join(cmd)}); "
                    f"see {build_log}")
                sys.exit(2)


# ---------------------------------------------------------------------------
# Running one target.
# ---------------------------------------------------------------------------

class Run:
    """One measured target process and the checks it failed."""

    def __init__(self, variant, exit_code, wall_s, cpu_s, rss_kb, stdout,
                 stderr):
        self.variant = variant
        self.exit_code = exit_code
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.rss_kb = rss_kb
        self.stdout = stdout
        self.stderr = stderr
        self.zero_work = False
        self.problems = []
        self.phases_ms = []
        self.report = None
        self.trace = None

    @property
    def ok(self):
        return not self.problems


def launch(cmd, work, variant, tag, env=None, timeout=TARGET_TIMEOUT_S):
    """Run cmd under `measure` in its own process group; always reaped."""
    out_path = os.path.join(work, tag + ".measure")
    proc = subprocess.Popen([MEASURE, out_path, "--"] + cmd, cwd=work,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, start_new_session=True, text=True,
                            errors="replace")
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        run = Run(variant, -1, float(timeout), 0.0, 0, stdout, stderr)
        run.problems.append(f"timed out after {timeout}s")
        return run
    m = None
    if os.path.exists(out_path):
        with open(out_path) as f:
            m = re.match(r"exit=(-?\d+) wall_s=([\d.]+) cpu_s=([\d.]+) "
                         r"maxrss_kb=(\d+)", f.read())
    if m is None:
        run = Run(variant, -1, 0.0, 0.0, 0, stdout, stderr)
        run.problems.append("measure wrote no result")
        return run
    return Run(variant, int(m.group(1)), float(m.group(2)), float(m.group(3)),
               int(m.group(4)), stdout, stderr)


class Workload:
    def __init__(self, name, seed, work):
        self.name = name
        self.seed = seed
        self.work = work
        spec = WORKLOADS[name]
        self.program = spec["program"]
        self.vft_flags = spec["vft_flags"]
        self.racy = spec["racy"]
        self.reference = None  # native output signature
        self.runs = []

    def args(self, zero_work=False):
        if self.program == "kernels":
            return ["--seed", str(self.seed), "--reps", "0" if zero_work else "1"]
        a = ["--seed", str(self.seed),
             "--sweeps", "0" if zero_work else str(STENCIL_SWEEPS)]
        return a + (["--racy"] if self.racy else [])

    def binary(self, variant):
        return os.path.join(PB_BUILD, f"{self.program}_{variant}")

    def run(self, variant, zero_work=False, traced=False):
        n = len(self.runs)
        tag = f"{variant}{'-setup' if zero_work else ''}{'-traced' if traced else ''}-{n}"
        env = dict(os.environ, TMPDIR=self.work)
        if variant == "vft":
            report = os.path.join(self.work, f"report-{n}.json")
            trace_out = os.path.join(self.work, f"trace-{n}.txt")
            preload = f"{SHIM}:{PRELOAD}" if traced else PRELOAD
            cmd = ([VFT, "run", "--preload", preload]
                   + self.vft_flags + ["--report", report, "--",
                                       self.binary("vft")]
                   + self.args(zero_work))
            if traced:
                env["VFT_TRACE_OUT"] = trace_out
            run = launch(cmd, self.work, variant, tag, env)
            self.check_vft(run, report, zero_work)
            if traced:
                run.trace = read_trace(trace_out)
                if run.trace is None:
                    run.problems.append("trace shim wrote no counts")
        else:
            run = launch([self.binary(variant)] + self.args(zero_work),
                         self.work, variant, tag, env)
            self.check_exit(run)
        run.zero_work = zero_work
        if not zero_work:
            self.check_output(run)
        self.runs.append(run)
        if run.problems:
            log(f"perfbench: {self.name} {tag} FAILED: {'; '.join(run.problems)}")
        return run

    # --- checks -----------------------------------------------------------

    def check_exit(self, run):
        tsan_races = "WARNING: ThreadSanitizer: data race" in run.stderr
        if run.variant == "tsan" and self.racy:
            if run.exit_code != 66 or not tsan_races:
                run.problems.append(
                    f"GCC TSan should report the planted race and exit 66 "
                    f"(exit {run.exit_code})")
            return
        if run.exit_code != 0:
            run.problems.append(f"exit code {run.exit_code}")
        if tsan_races or "WARNING: ThreadSanitizer" in run.stderr:
            run.problems.append("GCC TSan reported on a race-free program")

    def check_vft(self, run, report_path, zero_work):
        if run.exit_code != 0:
            run.problems.append(f"vft run exit code {run.exit_code}")
        try:
            with open(report_path) as f:
                report = json.load(f)
        except (OSError, ValueError) as e:
            run.problems.append(f"no readable report ({e})")
            return
        run.report = report
        summary = report.get("summary", {})
        if report.get("clean_exit") is not True:
            run.problems.append("report lacks clean_exit")
        races = summary.get("races", -1)
        contexts = summary.get("contexts", -1)
        if self.racy and not zero_work:
            if races < 1 or contexts != RACY_CONTEXTS:
                run.problems.append(
                    f"expected >= 1 race in exactly {RACY_CONTEXTS} contexts, "
                    f"got races={races} contexts={contexts}")
        elif races != 0:
            run.problems.append(f"{races} race(s) on a race-free run")

    def signature(self, run):
        """The output that must match native: checksums and validity."""
        lines = [l for l in run.stdout.splitlines()
                 if l.startswith("kernel ") or l.startswith("stencil ")]
        sig = []
        for line in lines:
            fields = dict(f.split("=", 1) for f in line.split()[1:] if "=" in f)
            name = line.split()[1] if line.startswith("kernel ") else "stencil"
            if line.startswith("kernel ") and fields.get("valid") != "1":
                run.problems.append(f"kernel {name} reports valid=0")
            sig.append((name, fields.get("checksum")))
        return sig

    def check_output(self, run):
        sig = self.signature(run)
        expected = KERNEL_COUNT if self.program == "kernels" else 1
        if len(sig) != expected:
            run.problems.append(f"expected {expected} result line(s), got {len(sig)}")
            return
        if self.program == "stencil":
            m = re.search(r"^phase_us((?: [\d.]+)*)$", run.stdout, re.M)
            phases = [float(x) / 1000.0 for x in m.group(1).split()] if m else []
            if len(phases) != STENCIL_SWEEPS:
                run.problems.append("phase latencies missing")
            run.phases_ms = phases
        else:
            # One phase per run: the whole kernel pass as the program
            # times it, without process start-up and report write.
            run.phases_ms = [sum(float(m) for m in re.findall(
                r"^kernel \S+ ms=([\d.]+)", run.stdout, re.M))]
        if self.reference is None and run.variant == "native" and run.ok:
            self.reference = sig
        if self.reference is not None and sig != self.reference:
            run.problems.append(f"checksums differ from native: {sig} vs "
                                f"{self.reference}")


def read_trace(path):
    try:
        with open(path) as f:
            return {k: int(v) for k, v in (l.split() for l in f if l.strip())}
    except (OSError, ValueError):
        return None


# ---------------------------------------------------------------------------
# Statistics.
# ---------------------------------------------------------------------------

def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def tail(values):
    """(label, value) of the highest percentile with >= 10 samples above it."""
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100.0 >= 10:
            return f"p{p}", percentile(values, p)
    return None, None


# ---------------------------------------------------------------------------
# Passes.
# ---------------------------------------------------------------------------

# Runs of each variant per round. The native, TSan and zero-work runs
# are short next to a `vft run`, so they take more samples per round;
# "setup" is the vft variant given zero work.
ROUND = {"native": 6, "tsan": 3, "vft": 1, "setup": 4}


def untraced_pass(wl, seconds):
    """Round-robin native/TSan/vft runs; returns the end-to-end metrics."""
    def one(variant):
        if variant == "setup":
            return wl.run("vft", zero_work=True)
        return wl.run(variant)

    for variant in ROUND:  # warm-up: checked, not timed
        one(variant)
    warm = len(wl.runs)
    order = list(ROUND)
    rounds = 0
    deadline = time.monotonic() + seconds
    while rounds < 3 or time.monotonic() < deadline:
        k = rounds % len(order)
        for variant in order[k:] + order[:k]:
            for _ in range(ROUND[variant]):
                one(variant)
        rounds += 1

    timed = wl.runs[warm:]

    def ok(variant, zero_work=False):
        return [r for r in timed if r.ok and r.variant == variant
                and r.zero_work == zero_work]

    table = {}  # name -> (unit, median, tail label, tail value, n)

    def add(name, unit, samples):
        if samples:
            label, t = tail(samples)
            table[name] = (unit, statistics.median(samples), label, t,
                           len(samples))

    def ratio(name, clock, base):
        v = [getattr(r, clock) for r in ok("vft")]
        b = [getattr(r, clock) for r in ok(base)]
        if v and b:
            table[name] = ("x", statistics.median(v) / statistics.median(b),
                           None, None, len(v))

    add("cpu_s", "s", [r.cpu_s for r in ok("vft")])
    add("run_s", "s", [r.wall_s for r in ok("vft")])
    add("setup_s", "s", [r.cpu_s for r in ok("vft", zero_work=True)])
    add("setup_wall_s", "s", [r.wall_s for r in ok("vft", zero_work=True)])
    for prefix, clock in (("cpu_", "cpu_s"), ("", "wall_s")):
        ratio(prefix + "slowdown_x", clock, "native")
        ratio(prefix + "vs_tsan_x", clock, "tsan")
    rss = [r.rss_kb / 1024.0 for r in ok("vft")]
    native_rss = [r.rss_kb / 1024.0 for r in ok("native")]
    add("peak_rss_mib", "MiB", rss)
    if rss and native_rss:
        table["rss_x"] = ("x", statistics.median(rss) / statistics.median(native_rss),
                          None, None, len(rss))
    # The stencil times 200 phases per run: each vft run's own phase
    # percentiles, then their median over runs, so host preemption that
    # hits one run moves its tail, not the result. p95 is the highest
    # percentile with ten phases beyond it in one run. The kernels time
    # one phase per run, so their percentiles are over the pass's runs.
    per_run = [r.phases_ms for r in ok("vft")]
    pooled = [ms for p in per_run for ms in p]
    for name, pct in (("phase_p50_ms", 50), ("phase_p95_ms", 95)):
        if len(pooled) < 2:
            break
        if wl.program == "stencil":
            value = statistics.median(percentile(p, pct) for p in per_run)
        else:
            value = percentile(pooled, pct)
        table[name] = ("ms", value, None, None, len(pooled))
    attempted = len(wl.runs)
    failed = sum(1 for r in wl.runs if not r.ok)
    table["failed_frac"] = ("frac", failed / attempted, None, None, attempted)
    contexts = [r.report["summary"]["contexts"] for r in ok("vft") if r.report]
    add("race_contexts", "count", contexts)
    if wl.vft_flags:
        rates, overheads = [], []
        for r in ok("vft"):
            m = re.search(r"sampling achieved: rate=([\d.]+) .*overhead=([\d.]+)%",
                          r.stdout)
            if m:
                rates.append(float(m.group(1)))
                overheads.append(float(m.group(2)))
        add("budget_overhead_pct", "%", overheads)
        add("sampling_rate", "frac", rates)
    print_table(wl, table)
    return {name: table[name][1] for name, _ in END_TO_END if name in table}


def run_ladder(wl, isa):
    """Every ladder rung: own binary, then the reused bench rows.

    Each of the three binaries counts as an attempted run. One that
    exits non-zero (a failed VFT_CHECK, a crash, a timeout) or prints
    nothing readable counts as failed, and its rungs stay missing.
    """
    values = {}

    def attempt(variant, cmd, env, parse):
        run = launch(cmd, wl.work, variant, f"{variant}-{len(wl.runs)}",
                     dict(os.environ, TMPDIR=wl.work, **env), BENCH_TIMEOUT_S)
        if not run.problems and run.exit_code != 0:
            run.problems.append(f"exit code {run.exit_code}")
        if not run.problems:
            try:
                parse(run)
            except (OSError, ValueError, KeyError, IndexError) as e:
                run.problems.append(f"unreadable output ({e!r})")
        wl.runs.append(run)
        if run.problems:
            log(f"perfbench: {variant} FAILED: {'; '.join(run.problems)}")

    def parse_ladder(run):
        for line in run.stdout.splitlines():
            name, value = line.split()
            values[name] = float(value)

    attempt("ladder", [LADDER], {}, parse_ladder)
    for bench, exe, env in (
            ("scaling", BENCH_SCALING, {"VFT_BENCH_SCALE": "1"}),
            ("hotpath", BENCH_HOTPATH, {"VFT_HOTPATH_MAXTHREADS": str(THREADS)})):
        path = os.path.join(wl.work, f"BENCH_{bench}.json")

        def parse_bench(run, bench=bench, path=path):
            with open(path) as f:
                records = json.load(f)["records"]
            for name, (b, section, row, column) in LADDER_REUSED.items():
                if b != bench:
                    continue
                rec = [r for r in records
                       if r["section"] == section and r["name"] == row]
                values[name] = float(rec[0][column.format(isa=isa)])

        attempt(f"bench_{bench}", [exe], dict(env, VFT_BENCH_JSON=path),
                parse_bench)
    return values


def traced_pass(wl, seconds, isa):
    deadline = time.monotonic() + seconds
    values = run_ladder(wl, isa)
    wl.run("native")  # the reference output the vft runs are checked against
    traced, plain = [], []
    while len(traced) < 2 or time.monotonic() < deadline:
        traced.append(wl.run("vft", traced=True))
        plain.append(wl.run("vft"))
    traced_ok = [r for r in traced if r.ok]
    plain_ok = [r for r in plain if r.ok]
    # Plain and atomic call counts must repeat exactly for a fixed seed
    # and thread count; a traced run that disagrees with the first fails.
    for r in traced_ok[1:]:
        for key in ("plain.calls", "atomic_relaxed.calls", "atomic_ordered.calls"):
            if r.trace[key] != traced_ok[0].trace[key]:
                r.problems.append(f"{key} {r.trace[key]} != {traced_ok[0].trace[key]}")
    traced_ok = [r for r in traced_ok if r.ok]
    if traced_ok and plain_ok:
        first = traced_ok[0].trace
        total = {k: sum(r.trace[k] for r in traced_ok) for k in first}

        def mean_ns(cat):
            """Mean sampled ns per call; None when no call was timed."""
            timed = total[f"{cat}.timed"]
            return total[f"{cat}.timed_ns"] / timed if timed else None

        for cat in ("plain", "atomic_relaxed", "atomic_ordered", "mutex",
                    "cond", "thread", "func", "internal_mutex"):
            values[f"interpose.{cat}_calls"] = float(first[f"{cat}.calls"])
        values["interpose.range_bytes"] = float(first["range.bytes"])
        for cat in ("plain", "atomic_relaxed", "atomic_ordered", "mutex"):
            values[f"interpose.{cat}_ns"] = mean_ns(cat)
        timed_kib = total["range.timed_bytes"] / 1024.0
        values["interpose.range_ns_per_kib"] = (
            total["range.timed_ns"] / timed_kib if timed_kib else None)
        traced_run_s = statistics.median(r.wall_s for r in traced_ok)
        # A category with calls but no timed one adds nothing: its calls
        # are too few to matter next to the others.
        explained_ns = sum(first[f"{c}.calls"] * (mean_ns(c) or 0.0) for c in
                           ("plain", "atomic_relaxed", "atomic_ordered",
                            "mutex", "range"))
        values["interpose.explained_share"] = explained_ns / 1e9 / traced_run_s
        values["trace.overhead_x"] = traced_run_s / statistics.median(
            r.wall_s for r in plain_ok)
    print(f"workload {wl.name} traced (seed {wl.seed}, "
          f"{TARGET_THREADS} threads; "
          f"{len(traced_ok)} traced runs):")
    for name, unit in PER_LAYER + TRACE_ONLY:
        v = values.get(name)
        shown = "n/a" if v is None else f"{v:.6g}"
        print(f"  {name:<36} {shown:>12}  {unit}")
    return {n: v for n, v in values.items() if v is not None}


def print_table(wl, table):
    print(f"workload {wl.name} (seed {wl.seed}, {TARGET_THREADS} threads; "
          f"vft run {' '.join(wl.vft_flags) or '(exact)'}):")
    print(f"  {'metric':<20} {'median':>12} {'tail':>16} {'n':>6}  unit")
    for name, _ in END_TO_END + TABLE_ONLY:
        if name not in table:
            print(f"  {name:<20} {'n/a':>12}")
            continue
        unit, med, label, t, n = table[name]
        tail_s = f"{label}={t:.6g}" if label else "-"
        print(f"  {name:<20} {med:>12.6g} {tail_s:>16} {n:>6}  {unit}")


def steal_jiffies():
    """(steal, total) CPU jiffies from /proc/stat; (0, 0) where absent."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        return fields[7], sum(fields)
    except (OSError, ValueError, IndexError):
        return 0, 0


def fingerprint(isa, traced):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        gcc = subprocess.run(["gcc", "--version"], capture_output=True,
                             text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        gcc = "unknown"
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    chain = [SHIM, PRELOAD] if traced else [PRELOAD]
    print(f"host: cpu={cpu!r} nproc={os.cpu_count()} kernel={platform.release()}")
    print(f"host: gcc={gcc!r} vc_simd={isa} detector=v2 commit={commit}")
    print("host: preload=" + ":".join(os.path.relpath(p, ROOT) for p in chain))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    build()
    work = os.path.join(BUILD, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        isa = subprocess.run([LADDER, "--isa"], capture_output=True, text=True,
                             timeout=TARGET_TIMEOUT_S).stdout.strip() or "unknown"
        fingerprint(isa, args.trace == 1)
        steal0, total0 = steal_jiffies()
        wl = Workload(args.workload, args.seed, work)
        if args.trace:
            values = traced_pass(wl, args.seconds, isa)
            names = PER_LAYER
        else:
            values = untraced_pass(wl, args.seconds)
            names = END_TO_END
        steal1, total1 = steal_jiffies()
        # CPU time the hypervisor gave to other guests: wall-time figures
        # from a pass with a high share are inflated and noisy.
        print(f"host: steal={100.0 * (steal1 - steal0) / max(1, total1 - total0):.1f}% "
              f"of CPU time during the pass")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = len(wl.runs)
    failed = sum(1 for r in wl.runs if not r.ok)
    missing = [n for n, _ in names if n not in values]
    if missing:
        log(f"perfbench: no value for {', '.join(missing)}")
    metrics = {n: {"value": values[n], "unit": u} for n, u in names
               if n in values}
    print(json.dumps({"correct": failed == 0 and not missing,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()

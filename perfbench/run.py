#!/usr/bin/env python3
"""Repository benchmark: one command per workload, every output checked.

    python3 perfbench/run.py --workload greedy|sssp|server-mix \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds relax_server and the
perfbench binary from source into .bench_build/perfbench. Untraced runs
(--trace 0) print the end-to-end metrics, traced runs (--trace 1) the
per-layer ones; BENCHMARK.json names both sets and their units, and
README.md in this directory explains what each one measures. The last line
of stdout is one JSON object: correct, attempted, failed, metrics. The exit
code is nonzero when the build fails or any output is wrong.
"""

import argparse
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUNS = BUILD / "runs"

# server-mix: the server, its load and the latency limit. This workload is
# not listed in BENCHMARK.json: on a host whose CPUs other tenants share,
# every figure it measures swung by more than the largest allowed bound
# between runs (README.md, "server-mix"). Its metrics carry their units here.
SERVER_THREADS = 2
GRAPHS = 4
LO_RPS = 300.0
HI_RPS = 600.0
LIMIT_MS = 25.0
WINDOW_S = 1.5       # shortest measured window; plus warm-up and drain
MIN_SAMPLES = 1000   # per window, so its p99 has ten samples beyond it
WARMUP_S = 0.5
DRAIN_S = 2.0
SERVER_SETUPS = 9    # server spawns per run; setup_s is their median
SEARCH_STEP = 1.2    # step-search rate factor between steps
SEARCH_WINDOWS = 1   # windows judged per search step
SEARCH_MAX_STEPS = 6
SERVER_MIX_UNITS = {
    "p50_ms.lo": "ms", "p99_ms.lo": "ms", "p50_ms.hi": "ms", "p99_ms.hi": "ms",
    "max_rate_rps": "1/s", "bench.gen_lag_ms_max": "ms",
    "server.accept_to_complete_ms_p50": "ms",
    "server.accept_to_complete_ms_p99": "ms", "server.completed": "count",
    "server.busy": "count", "server.errors": "count",
    "server.default_ack_p50_ms": "ms",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log(f"perfbench: {msg}")
    sys.exit(1)


def workers():
    return min(4, len(os.sched_getaffinity(0)))


def build():
    """Configures once, then builds incrementally. Compiler output goes to
    stderr so stdout stays the benchmark's own."""
    jobs = str(workers())
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs,
           "--target", "perfbench", "relax_server"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    RUNS.mkdir(parents=True, exist_ok=True)


def last_json_line(text, what):
    lines = [ln for ln in text.splitlines() if ln.startswith("{")]
    if not lines:
        fail(f"{what} printed no result")
    return json.loads(lines[-1])


def pinned(cpus):
    """preexec_fn placing a child on `cpus` (None: inherit)."""
    if not cpus:
        return None
    return lambda: os.sched_setaffinity(0, cpus)


# ------------------------------------------------------------ greedy, sssp

def run_solve(workload, seed, seconds, trace):
    spans = RUNS / f"spans-{workload}-{seed}.json"
    cmd = [str(BUILD / "perfbench"), "solve", f"--workload={workload}",
           f"--seed={seed}", f"--seconds={seconds}", f"--trace={int(trace)}",
           f"--threads={workers()}", f"--spans={spans}"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode:
        log(proc.stderr)
        fail(f"perfbench solve exited with {proc.returncode}")
    raw = last_json_line(proc.stdout, "perfbench solve")
    result = dict(correct=raw["correct"], attempted=int(raw["attempted"]),
                  failed=int(raw["failed"]), values={}, notes=[])
    if raw["errors"]:
        result["notes"].append("errors: " + raw["errors"])
    if trace:
        for key, values in raw.items():
            if key.startswith("layer."):
                result["values"][key[len("layer."):]] = stats.median(values)
        result["notes"] += self_time_lines(spans)
        return result
    v = result["values"]
    for name in ("setup_s", "solve_s", "seq_s"):
        v[name] = stats.median(raw[name])
    v["peak_rss_mb"] = raw["peak_rss_mb"]
    n = len(raw["solve_s"])
    result["notes"] += [
        f"{n} timed repetitions on {workers()} workers; medians",
        f"speedup seq_s / solve_s = {v['seq_s'] / v['solve_s']:.3f} "
        "(derived, not gated)",
    ]
    return result


def self_time_lines(path):
    """Per-layer self time from the spans file: each span's duration minus
    the time its child spans cover, summed by layer (the name's prefix)."""
    try:
        spans = json.loads(path.read_text())
    except (OSError, ValueError):
        return []
    child = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end_ns"] - s["start_ns"]
    by_layer = {}
    for i, s in enumerate(spans):
        layer = s["name"].split(".")[0]
        own = s["end_ns"] - s["start_ns"] - child[i]
        by_layer[layer] = by_layer.get(layer, 0) + own
    return [f"self time {layer}: {ns / 1e9:.4f} s"
            for layer, ns in sorted(by_layer.items())]


# -------------------------------------------------------------- server-mix

class Server:
    """One relax_server process, from spawn to its listening line."""

    def __init__(self, cpus, metrics_path=None):
        cmd = [str(BUILD / "relax_server"), f"--threads={SERVER_THREADS}",
               f"--graphs={GRAPHS}", "--port=0"]
        if metrics_path:
            cmd.append(f"--metrics={metrics_path}")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL,
                                     preexec_fn=pinned(cpus))
        try:
            self.port = self._await_port(deadline=t0 + 30)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def _await_port(self, deadline):
        fd = self.proc.stdout.fileno()
        seen = b""
        while b"listening on " not in seen or not seen.endswith(b"\n"):
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                fail("relax_server did not start listening")
            chunk = os.read(fd, 4096)
            if not chunk:
                fail("relax_server exited before listening")
            seen += chunk
        line = seen.split(b"listening on ", 1)[1].split(b"\n", 1)[0]
        return int(line.rsplit(b":", 1)[1])

    def peak_rss_mb(self):
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        fail("no VmHWM for relax_server")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Window:
    """One open-loop window as `perfbench load` measured it."""

    def __init__(self, raw):
        self.lat = stats.latencies(raw["lat_ms"])
        self.counts = dict(attempted=len(self.lat), busy=int(raw["busy"]),
                           error=int(raw["error"]), dropped=int(raw["dropped"]),
                           wrong=int(raw["wrong"]))
        self.failed = (self.counts["busy"] + self.counts["error"]
                       + self.counts["dropped"] + self.counts["wrong"])
        self.gen_lag_ms = raw["gen_lag_ms_max"]
        self.graph_gen_s = raw["graph_gen_s"]
        self.graph_priorities_s = raw["graph_priorities_s"]
        self.p50 = stats.percentile(self.lat, 50)
        self.p99 = stats.percentile(self.lat, 99)
        answered = [x for x in self.lat if x != stats.MISSED]
        self.p99_answered = (stats.percentile(answered, 99) if answered
                             else stats.MISSED)
        # Growing backlog: the last third of the window waits much longer
        # than the first third did.
        third = max(1, len(self.lat) // 3)
        first = stats.percentile(self.lat[:third], 50)
        last = stats.percentile(self.lat[-third:], 50)
        self.growing = last > 2 * first + 2.0


def window_seconds(rate):
    return max(WINDOW_S, round(MIN_SAMPLES / rate + 0.05, 1))


def load(port, rate, seed, cpus, ack="quick", spans=None):
    cmd = [str(BUILD / "perfbench"), "load", f"--port={port}",
           f"--rate={rate:.3f}", f"--seconds={window_seconds(rate)}",
           f"--seed={seed}",
           f"--warmup={WARMUP_S}", f"--drain={DRAIN_S}",
           f"--graphs={GRAPHS}", f"--ack={ack}"]
    if spans:
        cmd.append(f"--spans={spans}")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60,
                          preexec_fn=pinned(cpus))
    if proc.returncode:
        log(proc.stderr)
        fail(f"perfbench load exited with {proc.returncode}")
    return Window(last_json_line(proc.stdout, "perfbench load"))


def finite_ms(x, rate):
    """A percentile that landed on a missed request reads as the longest a
    request could have waited in its window."""
    return x if x != stats.MISSED else (window_seconds(rate) + DRAIN_S) * 1e3


def rate_windows(port, cpus, pairs, seeds):
    """Alternating lo/hi windows; returns {rate: [Window]}."""
    out = {LO_RPS: [], HI_RPS: []}
    for _ in range(pairs):
        for rate in (LO_RPS, HI_RPS):
            out[rate].append(load(port, rate, next(seeds), cpus))
    return out


def max_rate(port, hi_windows, cpus, seeds):
    """Highest offered rate meeting the limit. Steps of a factor SEARCH_STEP
    go from HI_RPS (whose windows are already measured) up, or down if
    HI_RPS misses the limit, to the first step with the other outcome; each
    step is judged on SEARCH_WINDOWS windows. The result interpolates p99
    linearly between the last passing and the first failing step. Returns
    it with the windows the search measured, whose answers were checked
    too."""

    def judge(rate, windows):
        ok = (stats.median([w.p99 for w in windows]) <= LIMIT_MS
              and not any(w.failed or w.growing for w in windows))
        return ok, (rate, stats.median([w.p99_answered for w in windows]))

    hi_ok, point = judge(HI_RPS, hi_windows)
    passing, failing = (point, None) if hi_ok else (None, point)
    factor = SEARCH_STEP if hi_ok else 1 / SEARCH_STEP
    rate = HI_RPS
    searched = []
    for _ in range(SEARCH_MAX_STEPS):
        rate *= factor
        step = [load(port, rate, next(seeds), cpus)
                for _ in range(SEARCH_WINDOWS)]
        searched += step
        ok, point = judge(rate, step)
        if ok:
            passing = point
        else:
            failing = point
        if ok != hi_ok:
            break
    if passing is None:
        return 0.0, searched
    if failing is None:
        return passing[0], searched
    (r0, p0), (r1, p1) = passing, failing
    # A step that failed on refusals or backlog rather than on p99 gives
    # nothing to interpolate towards.
    if p1 <= LIMIT_MS or p1 <= p0:
        return r0, searched
    return r0 + (r1 - r0) * (LIMIT_MS - p0) / (p1 - p0), searched


def cpu_split():
    """With four or more CPUs the load client gets the last one to itself,
    so it never competes with the server's pinned workers."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 4:
        return None, None
    return set(cpus[:-1]), {cpus[-1]}


def window_counts(windows):
    total = dict(attempted=0, busy=0, error=0, dropped=0, wrong=0)
    for w in windows:
        for k in total:
            total[k] += w.counts[k]
    return total


def serve(server, client_cpus, pairs, seeds):
    """Alternating lo/hi windows, the server's peak memory at those rates,
    then the rate search (which overloads it) and its windows."""
    windows = rate_windows(server.port, client_cpus, pairs, seeds)
    rss = server.peak_rss_mb()
    search, searched = max_rate(server.port, windows[HI_RPS], client_cpus,
                                seeds)
    return windows, rss, search, searched


def latency_figures(windows, search):
    """Median p50 and p99 per rate (medians of per-window values), the
    search result, and readable notes on sample sizes and failures."""
    figures = {"max_rate_rps": search}
    notes = []
    for tag, rate in (("lo", LO_RPS), ("hi", HI_RPS)):
        ws = windows[rate]
        figures[f"p50_ms.{tag}"] = finite_ms(stats.median([w.p50 for w in ws]), rate)
        figures[f"p99_ms.{tag}"] = finite_ms(stats.median([w.p99 for w in ws]), rate)
        n = len(ws[0].lat)
        tail = stats.tail_percentile(n)
        notes.append(
            f"{tag} = {rate:.0f} req/s: {len(ws)} windows of {n} requests, "
            f"medians of per-window values; highest percentile with >= 10 "
            f"samples beyond it per window: p{tail:g}")
    measured = windows[LO_RPS] + windows[HI_RPS]
    counts = window_counts(measured)
    notes.append(f"fail_frac = {stats.fail_frac(counts):.4f} "
                 f"({counts['busy']} busy, {counts['error']} error, "
                 f"{counts['dropped']} dropped, {counts['wrong']} wrong "
                 f"of {counts['attempted']})")
    notes.append(f"generator lateness max "
                 f"{max(w.gen_lag_ms for w in measured):.2f} ms")
    return figures, notes


def run_server_mix(seed, seconds, trace):
    server_cpus, client_cpus = cpu_split()
    seeds = iter(range(seed * 100_000 + 1, seed * 100_000 + 100_000))
    # The alternating lo/hi windows take about 70% of `seconds`, the rate
    # search the rest. An odd number of windows per rate keeps their median
    # a sample.
    per_pair = window_seconds(LO_RPS) + window_seconds(HI_RPS) + 2 * WARMUP_S
    pairs = max(3, round(0.7 * seconds / per_pair)) | 1
    if trace:
        return server_mix_traced(seeds, server_cpus, client_cpus, pairs)

    setups = []
    for _ in range(SERVER_SETUPS - 1):
        s = Server(server_cpus)
        setups.append(s.setup_s)
        s.stop()
    server = Server(server_cpus)
    setups.append(server.setup_s)
    try:
        windows, rss, search, searched = serve(server, client_cpus, pairs,
                                               seeds)
    finally:
        server.stop()

    v, notes = latency_figures(windows, search)
    v.update(setup_s=stats.median(setups), peak_rss_mb=rss)
    measured = windows[LO_RPS] + windows[HI_RPS]
    return dict(correct=all(w.counts["wrong"] == 0
                            for w in measured + searched),
                attempted=sum(w.counts["attempted"] for w in measured),
                failed=sum(w.failed for w in measured), values=v, notes=notes)


def server_mix_traced(seeds, server_cpus, client_cpus, pairs):
    """A plain server gives hi-rate windows to compare against and one
    window with kernel-default ACKs, which shows what a client that delays
    its ACKs sees (relax_server leaves Nagle on). A second server with
    --metrics gives the server and engine layers; its hi-rate p50 against
    the plain one is the telemetry cost."""
    plain = Server(server_cpus)
    try:
        plain_hi = [load(plain.port, HI_RPS, next(seeds), client_cpus)
                    for _ in range(pairs)]
        default_ack = load(plain.port, LO_RPS, next(seeds), client_cpus,
                           ack="default")
    finally:
        plain.stop()

    metrics_path = RUNS / "server-metrics.json"
    spans = RUNS / "spans-server-mix.json"
    traced = Server(server_cpus, metrics_path=metrics_path)
    started = time.perf_counter()
    try:
        windows = rate_windows(traced.port, client_cpus, pairs, seeds)
        windows[HI_RPS].append(load(traced.port, HI_RPS, next(seeds),
                                    client_cpus, spans=spans))
    finally:
        traced.stop()
    lifetime = time.perf_counter() - started
    m = json.loads(metrics_path.read_text())

    measured = windows[LO_RPS] + windows[HI_RPS] + plain_hi + [default_ack]
    v = {
        "graph.gen_s": stats.median([w.graph_gen_s for w in measured]),
        "graph.priorities_s": stats.median([w.graph_priorities_s for w in measured]),
        "bench.gen_lag_ms_max": max(w.gen_lag_ms for w in measured),
        "server.default_ack_p50_ms": finite_ms(default_ack.p50, LO_RPS),
        "obs.overhead_frac": stats.median([w.p50 for w in windows[HI_RPS]])
        / stats.median([w.p50 for w in plain_hi]) - 1.0,
    }
    srv = m["server"]
    v["server.accept_to_complete_ms_p50"] = srv["request_latency_ns"]["p50"] / 1e6
    v["server.accept_to_complete_ms_p99"] = srv["request_latency_ns"]["p99"] / 1e6
    v["server.completed"] = srv["requests_completed"]
    v["server.busy"] = srv["requests_rejected"]
    v["server.errors"] = srv["request_errors"]
    ws = m["workers"]
    v["engine.slices"] = sum(w["slices"] for w in ws)
    v["engine.idle_visits"] = sum(w["idle_visits"] for w in ws)
    v["engine.parks"] = sum(w["parks"] for w in ws)
    v["engine.park_s"] = sum(w["park_ns"]["mean"] * w["park_ns"]["count"]
                             for w in ws) / 1e9
    v["engine.slice_p99_us"] = m["totals"]["slice_latency_ns"]["p99"] / 1e3
    busy_s = sum(w["slice_latency_ns"]["mean"] * w["slice_latency_ns"]["count"]
                 for w in ws) / 1e9
    v["engine.worker_busy_frac"] = busy_s / (len(ws) * lifetime)
    notes = self_time_lines(spans) + [
        f"server layer over {lifetime:.1f} s of traced serving"]
    return dict(correct=all(w.counts["wrong"] == 0 for w in measured),
                attempted=sum(w.counts["attempted"] for w in measured),
                failed=sum(w.failed for w in measured), values=v, notes=notes)


# ------------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["greedy", "sssp", "server-mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    broken = stats.self_check()
    if broken:
        fail("arithmetic self-check failed: " + "; ".join(broken))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.workload == "server-mix":
        units.update(SERVER_MIX_UNITS)
    build()

    if args.workload == "server-mix":
        result = run_server_mix(args.seed, args.seconds, args.trace)
    else:
        result = run_solve(args.workload, args.seed, args.seconds, args.trace)

    unknown = sorted(set(result["values"]) - set(units))
    if unknown:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(unknown))
    listed = {w["name"] for w in spec["workloads"]}
    missing = sorted(set(units) - set(result["values"]))
    if args.workload in listed and missing:
        fail("BENCHMARK.json metrics not measured: " + ", ".join(missing))
    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace}: {'correct' if result['correct'] else 'WRONG'}, "
          f"{result['failed']} failed of {result['attempted']} attempted")
    for name in sorted(result["values"]):
        print(f"  {name:36s} {result['values'][name]:>14.6g} {units[name]}")
    for note in result["notes"]:
        print(f"  # {note}")
    metrics = {name: {"value": float(value), "unit": units[name]}
               for name, value in sorted(result["values"].items())}
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""The commx CC-oracle benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a commx checkout.  It builds `ccmx` and the
benchmark's own OCaml package (perfbench/) with dune, starts a fresh
`ccmx serve` with default settings for every replay, replays the seeded
workload against it from one load process (perfbench.exe: one thread,
at most two connections), checks every answer against the in-process
engine, and prints the metrics.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 splits the measured time into REPLAYS equal replays, each
against its own fresh daemon and each over the same request stream,
and reports the end-to-end metrics of the QUIET replays during which
the hypervisor stole the least CPU from the machine, their windows and
replies pooled.  --trace 1
replays twice, each for half the time: once untraced, once while
polling the daemon's flight recorder, and reports the per-layer
metrics, including the tracing overhead (traced minus untraced).

Exit codes: 0 when every answer is right, 1 on a wrong answer or a
failed run, 2 when run outside a commx checkout.
"""

import argparse
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.relpath(os.path.abspath(__file__)))
WORK = "_perfbench"  # scratch space of one run, inside the checkout
CCMX = os.path.join("_build", "default", "bin", "ccmx.exe")
PERFBENCH = os.path.join("_build", "default", BENCH_DIR, "perfbench.exe")
SOCKET = os.path.join(WORK, "serve.sock")
# Daemon start-ups timed before each replay, on top of the replay's
# own; setup_s is the median of all of them, spread over the whole run.
SETUPS_PER_REPLAY = 3
# Each replay's figures cover all of its window: qps is its OK replies
# over its length, p50_ms and p99_ms are taken over every reply in it.
# On a virtual machine, other tenants of the host take CPU from it
# ("steal" in /proc/stat) at a rate that changes from second to second,
# and every wall-clock figure moves with it.  The run reports the QUIET
# replays with the least steal, the ones the host disturbed least,
# pooled into one window: p99 then has at least ten replies beyond it
# on every workload.  The choice looks only at steal, never at a
# figure, so a slowdown of the daemon's own, which moves every replay,
# moves the reported figures too.
REPLAYS = 10
QUIET = 3
OPS = ["exact_cc", "singular", "lower_bounds", "protocol"]
# Engine spans the in-process replay records (perfbench/mirror.ml).
SPANS = [
    "exec", "wire.parse", "cache.key", "compute", "wire.encode",
    "zmatrix.det", "zmatrix.rank", "truth_matrix.build", "rank_bound.analyze",
    "hard_instance.build", "halves.split", "zmatrix.is_singular",
    "protocol.execute", "exact_cc.search",
]
LB_MEMBERS = ["rank_fooling", "log_rank", "discrepancy"]


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


# --------------------------------------------------------------------------
# Build and daemon lifecycle
# --------------------------------------------------------------------------


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/ccmx.exe",
         "./" + BENCH_DIR + "/perfbench.exe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build failed")


def ping(timeout_s=0.5):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(timeout_s)
    try:
        s.connect(SOCKET)
        s.sendall(b'{"op":"ping"}\n')
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(4096)
            if not chunk:
                return False
            buf += chunk
        return json.loads(buf).get("ok") is True
    except OSError:
        return False
    finally:
        s.close()


class Daemon:
    """A fresh `ccmx serve` with default settings; `setup_s` is the time
    from spawning it to its first successful ping."""

    def __init__(self):
        if os.path.exists(SOCKET):
            os.unlink(SOCKET)
        self.log = open(os.path.join(WORK, "serve.log"), "ab")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen([CCMX, "serve", "--socket", SOCKET],
                                     stdin=subprocess.DEVNULL,
                                     stdout=self.log, stderr=self.log)
        deadline = t0 + 30.0
        while not ping():
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                fail("daemon did not answer ping")
            time.sleep(0.0005)
        self.setup_s = time.perf_counter() - t0

    def stop(self):
        if self.proc.poll() is None:
            try:
                s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                s.settimeout(5.0)
                s.connect(SOCKET)
                s.sendall(b'{"op":"shutdown"}\n')
                s.recv(4096)
                s.close()
            except OSError:
                self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def replay(workload, seed, seconds, trace):
    """One replay against a fresh daemon: the records perfbench.exe wrote,
    whether every answer was right, and the daemon's set-up time.  The
    untraced replays of a run share one memo of the engine's answers."""
    daemon = Daemon()
    out = os.path.join(WORK, "run.json")
    try:
        proc = subprocess.run(
            [PERFBENCH, "run", "--workload", workload, "--seed", str(seed),
             "--seconds", repr(seconds), "--socket", SOCKET,
             "--pid", str(daemon.proc.pid), "--trace", "1" if trace else "0",
             "--out", out, "--memo", os.path.join(WORK, "memo.tsv")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=seconds + 120)
    except subprocess.TimeoutExpired:
        fail("load generator timed out")
    finally:
        daemon.stop()
    if proc.returncode not in (0, 1) or not os.path.exists(out):
        sys.stderr.write(proc.stderr)
        fail("load generator failed")
    sys.stderr.write(proc.stderr)
    with open(out) as f:
        rec = json.load(f)
    os.unlink(out)
    return rec, proc.returncode == 0, daemon.setup_s


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------


def pct(xs, p):
    """Linear-interpolated percentile of a non-empty list."""
    xs = sorted(xs)
    k = (len(xs) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def pct_or0(xs, p):
    return pct(xs, p) if xs else 0.0


def rows(rec):
    cols = rec["requests"]
    return [dict(zip(cols, vals)) for vals in zip(*cols.values())]


def counts(rec):
    reqs = rows(rec)
    ok = [r for r in reqs if r["status"] == "ok"]
    attempted = len(reqs) + rec["refused"]
    return reqs, ok, attempted, attempted - len(ok)


def in_window(rec, ok):
    """Latencies (ms) of the OK replies that arrived inside the measured
    window."""
    lat = [r["lat_ns"] / 1e6 for r in ok
           if r["recv_ns"] < rec["seconds"] * 1e9]
    if not lat:
        fail("no reply inside the measured window")
    return lat


def end_to_end(recs):
    """The end-to-end figures, all but setup_s, of one or more replays
    taken as one: their windows and replies pooled."""
    lat, n_ok, attempted, failed, ticks = [], 0, 0, 0, 0
    for rec in recs:
        _, ok, att, fl = counts(rec)
        if not ok:
            fail("no request was answered")
        lat += in_window(rec, ok)
        n_ok, attempted, failed = n_ok + len(ok), attempted + att, failed + fl
        ticks += rec["cpu_ticks"]
    cpu_ms = ticks * 1000.0 / os.sysconf("SC_CLK_TCK")
    m = {
        "qps": (len(lat) / sum(rec["seconds"] for rec in recs), "1/s"),
        "p50_ms": (pct(lat, 50), "ms"),
        "p99_ms": (pct(lat, 99), "ms"),
        "ok_ratio": (n_ok / attempted, "ratio"),
        "peak_rss_mb": (statistics.median(rec["vm_hwm_kb"] for rec in recs)
                        / 1024.0, "MB"),
        "cpu_ms_per_req": (cpu_ms / n_ok, "ms"),
    }
    return m, len(lat), attempted, failed


def self_times(spans):
    """Span name -> (duration, self time) in ns for one engine answer."""
    child = {}
    for name, parent, dur in spans:
        child[parent] = child.get(parent, 0) + dur
    return {name: (dur, dur - child.get(name, 0)) for name, _, dur in spans}


def per_layer(rec, untraced):
    """Per-layer metrics of a traced replay; `untraced` holds the
    end-to-end metrics of its untraced twin."""
    _, ok, _, _ = counts(rec)
    answers = rec["answers"]
    times = [self_times(a["spans"]) for a in answers]
    stats = rec["stats"] or {}
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    def span_us(name, op=None):
        return [t[name][0] / 1e3 for a, t in zip(answers, times)
                if name in t and (op is None or a["op"] == op)]

    # Engine layers, one sample per distinct request the engine answered.
    put("zmatrix.det_us.p50", pct_or0(span_us("zmatrix.det"), 50), "us")
    put("zmatrix.rank_us.p50", pct_or0(span_us("zmatrix.rank"), 50), "us")
    put("rank_bound.analyze_us.p50",
        pct_or0(span_us("rank_bound.analyze"), 50), "us")
    proto = [sum(t[k][0] for k in
                 ("hard_instance.build", "halves.split", "protocol.execute")) / 1e3
             for a, t in zip(answers, times) if a["op"] == "protocol"]
    put("protocol.run_us.p50", pct_or0(proto, 50), "us")
    bits = [a["bits"] for a in answers if a["op"] == "protocol"]
    put("protocol.bits", statistics.fmean(bits) if bits else 0.0, "bits")
    search = span_us("exact_cc.search")
    nodes = [a["nodes"] for a in answers if a["op"] == "exact_cc"]
    put("exact_cc.search_us.p50", pct_or0(search, 50), "us")
    put("exact_cc.search_us.p99", pct_or0(search, 99), "us")
    put("exact_cc.nodes", statistics.fmean(nodes) if nodes else 0.0, "count")
    put("exact_cc.nodes_per_s",
        sum(nodes) / (sum(search) / 1e6) if search else 0.0, "1/s")
    put("cache.key_us.p50", pct_or0(span_us("cache.key", "exact_cc"), 50), "us")
    put("wire.parse_us.p50", pct_or0(span_us("wire.parse"), 50), "us")
    put("wire.encode_us.p50", pct_or0(span_us("wire.encode"), 50), "us")

    # Daemon counters from the stats op after the window.
    ctr = stats.get("counters", {})
    searches = ctr.get("exact_cc.searches", 0)
    put("exact_cc.root_pruned_ratio",
        ctr.get("exact_cc.root_pruned", 0) / searches if searches else 0.0,
        "ratio")
    wins = {k: ctr.get("exact_cc.lb_win|bound=" + k, 0) for k in LB_MEMBERS}
    total = sum(wins.values())
    for k in LB_MEMBERS:
        put("exact_cc.lb_win." + k, wins[k] / total if total else 0.0, "ratio")
    table = stats.get("table", {})
    probes = table.get("hits", 0) + table.get("misses", 0)
    put("txtable.hit_ratio", table.get("hits", 0) / probes if probes else 0.0,
        "ratio")
    put("txtable.evictions", table.get("evictions", 0), "count")
    cache = stats.get("result_cache", {})
    looks = cache.get("hits", 0) + cache.get("misses", 0)
    put("cache.hit_ratio", cache.get("hits", 0) / looks if looks else 0.0,
        "ratio")
    put("cache.evictions", cache.get("evictions", 0), "count")

    # Bytes per hop, per op: client -> daemon and daemon -> client.
    for op in OPS:
        mine = [r for r in ok if r["op"] == op]
        put("wire.req_bytes." + op,
            statistics.fmean(r["req_bytes"] for r in mine) if mine else 0.0, "B")
        put("wire.reply_bytes." + op,
            statistics.fmean(r["reply_bytes"] for r in mine) if mine else 0.0,
            "B")

    # The daemon seen from the client: what the reply's wall_us does not
    # cover (socket, acceptor, reply write), and the flight recorder's
    # queue_wait spans.
    overhead = [r["lat_ns"] / 1e3 - r["wall_us"] for r in ok]
    put("server.overhead_us.p50", pct(overhead, 50), "us")
    put("server.overhead_us.p99", pct(overhead, 99), "us")
    traced = [r for r in ok if r["d_request_ns"] >= 0]
    queue = [r["d_queue_ns"] / 1e3 for r in traced]
    put("server.queue_us.p50", pct_or0(queue, 50), "us")
    put("server.queue_us.p99", pct_or0(queue, 99), "us")
    cut = pct([r["lat_ns"] for r in ok], 99)
    tail = [r for r in traced if r["lat_ns"] >= cut]
    put("server.queue_share_p99",
        sum(r["d_queue_ns"] for r in tail) / sum(r["lat_ns"] for r in tail)
        if tail else 0.0, "ratio")
    cpu_s = rec["cpu_ticks"] / os.sysconf("SC_CLK_TCK")
    put("server.cpu_util",
        cpu_s / (rec["wall_ns"] / 1e9 * (os.cpu_count() or 1)), "ratio")
    put("trace.coverage", len(traced) / len(ok), "ratio")

    # Per op, the share of client round-trip time no named layer covers:
    # transport (rtt minus the daemon's request span), queue wait, reply
    # write and, inside the exec span, the engine compute the in-process
    # replay measured.  What is left is exec time the engine does not
    # explain: cache lookup and insert, reply building, contention.
    for op in OPS:
        mine = [r for r in traced if r["op"] == op]
        rtt = sum(r["lat_ns"] for r in mine)
        unexplained = sum(
            r["d_exec_ns"] - (times[r["rep"]]["compute"][0]
                              if r["cache"] != "hit" else 0)
            for r in mine)
        put("layers.unexplained_share." + op, unexplained / rtt if rtt else 0.0,
            "ratio")

    # Self time of every engine span, as a share of all engine time spent
    # on this run's cache misses.
    misses = [0] * len(answers)
    for r in ok:
        if r["cache"] != "hit":
            misses[r["rep"]] += 1
    total = {name: 0 for name in SPANS}
    for t, w in zip(times, misses):
        for name, (_, own) in t.items():
            total[name] += own * w
    whole = sum(total.values())
    for name in SPANS:
        put("self_share." + name, total[name] / whole if whole else 0.0, "ratio")

    put("load.lag_p99_ms", pct([r["lag_ns"] / 1e6 for r in ok], 99), "ms")
    put("load.samples", len(ok), "count")
    polled, _, _, _ = end_to_end([rec])
    for k, unit in (("qps", "1/s"), ("p50_ms", "ms"), ("p99_ms", "ms")):
        put("trace.overhead." + k, polled[k][0] - untraced[k][0], unit)
    return m


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("bin", "ccmx.ml"))):
        fail("run from the root of a commx checkout", 2)
    build()
    known = json.loads(subprocess.run([PERFBENCH, "workloads"], check=True,
                                      stdout=subprocess.PIPE).stdout)
    if args.workload not in [w["name"] for w in known]:
        fail("unknown workload %r" % args.workload, 2)

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        if args.trace:
            half = args.seconds / 2.0
            base, ok0, _ = replay(args.workload, args.seed, half, False)
            rec, ok1, _ = replay(args.workload, args.seed, half, True)
            e2e, _, att0, fail0 = end_to_end([base])
            metrics = per_layer(rec, e2e)
            _, _, att1, fail1 = counts(rec)
            correct, attempted, failed = ok0 and ok1, att0 + att1, fail0 + fail1
        else:
            setups, recs = [], []
            correct, attempted, failed = True, 0, 0
            for j in range(REPLAYS):
                for _ in range(SETUPS_PER_REPLAY):
                    d = Daemon()
                    setups.append(d.setup_s)
                    d.stop()
                rec, ok, setup = replay(args.workload, args.seed,
                                        args.seconds / REPLAYS, False)
                setups.append(setup)
                recs.append(rec)
                m, n_lat, att, fl = end_to_end([rec])
                correct, attempted, failed = (correct and ok, attempted + att,
                                              failed + fl)
                print("%s seed %d replay %d: %d replies in the window, qps "
                      "%.1f, p99 %.3f ms; CPU stolen by the hypervisor: "
                      "%.1f%%; engine check %.1f s"
                      % (args.workload, args.seed, j + 1, n_lat, m["qps"][0],
                         m["p99_ms"][0], 100.0 * rec["steal_share"],
                         rec["mirror_s"]))
            quiet = sorted(range(REPLAYS),
                           key=lambda j: recs[j]["steal_share"])[:QUIET]
            metrics, n_lat, _, _ = end_to_end([recs[j] for j in quiet])
            metrics["setup_s"] = (statistics.median(setups), "s")
            print("reporting replays %s pooled: %d replies, %d beyond p99; "
                  "setup_s over %d start-ups"
                  % (", ".join(str(j + 1) for j in sorted(quiet)), n_lat,
                     n_lat - int(0.99 * n_lat), len(setups)))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print("  %-36s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

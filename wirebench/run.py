#!/usr/bin/env python3
"""Wire-level benchmark for hql_serve.

Run from the root of an hql checkout:

    python3 wirebench/run.py --workload scan_join --seed 1 --seconds 10 --trace 0
    python3 wirebench/run.py --selfcheck

One run builds hql_serve and the load generator (hqlbench) on first use, generates
the workload's base and request scripts from the seed, times set-up (spawn
hql_serve --db=<file> until the first ping answers, several times), drives a
fresh server for --seconds with one closed-loop connection per script,
verifies every answer against direct semantics after the window, and, with
--trace 1, replays the stream in-process with per-layer spans. It prints a
report and, as its last line, one JSON object with the metrics BENCHMARK.json
names (end_to_end with --trace 0, per_layer with --trace 1). It exits 1 if
any answer is wrong or any run step fails.
"""

import argparse
import filecmp
import json
import os
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROFILE = "fast"
# setup_s is the median over several spawns: at least SETUP_MIN_SPAWNS,
# and more (up to SETUP_MAX_SPAWNS) while they take under SETUP_BUDGET_S,
# so that millisecond set-ups of small bases, where process start-up noise
# dominates, get enough samples.
SETUP_MIN_SPAWNS, SETUP_MAX_SPAWNS, SETUP_BUDGET_S = 7, 101, 3.0
WORKLOADS = ("scan_join", "whatif_edit", "chatty_small")
# Printed in the report when present; not part of the JSON contract (the
# p99s exist only where ten samples lie beyond them, and fail_ratio also
# shows as "failed" / "attempted").
REPORT_ONLY = {
    "read_p99_ms": "ms", "reask_p99_ms": "ms", "write_p99_ms": "ms",
    "fetch_p99_ms": "ms", "fail_ratio": "fraction", "read_n": "count",
    "reask_n": "count", "write_n": "count", "fetch_n": "count",
    "other_n": "count", "window_s": "s", "verify.pairs": "count",
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures once and builds hqlbench + hql_serve; returns their paths."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no hql sources next to wirebench/ (expected an hql "
                         "checkout at %s)" % ROOT)
    os.makedirs(out, exist_ok=True)
    logfile = os.path.join(out, "build.log")
    with open(logfile, "w") as logf:
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                      "--target", "hqlbench", "hql_serve"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=logf, stderr=subprocess.STDOUT) != 0:
                with open(logfile) as f:
                    tail = f.read()[-3000:]
                raise BenchError("build failed (%s):\n%s" % (logfile, tail))
    return (os.path.join(out, "hqlbench"),
            os.path.join(out, "hql", "examples", "hql_serve"))


def ping(port, timeout=60):
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(b"ping\n")
        data = b""
        while not data.endswith(b"\n"):
            chunk = s.recv(4096)
            if not chunk:
                raise BenchError("server closed the connection on ping")
            data += chunk
        s.sendall(b"quit\n")
    if b'"ok":true' not in data:
        raise BenchError("ping refused: %r" % data)


def spawn_server(serve, db, errlog):
    """Starts hql_serve on an ephemeral port; returns (proc, port, set-up s)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([serve, "--db=" + db, "--profile=" + PROFILE],
                            stdout=subprocess.PIPE, stderr=errlog, text=True,
                            cwd=ROOT)
    try:
        line = proc.stdout.readline()
        m = re.search(r"127\.0\.0\.1:(\d+)", line)
        if not m:
            raise BenchError("hql_serve did not start: %r" % line)
        port = int(m.group(1))
        ping(port)
    except BaseException:
        stop_server(proc)
        raise
    return proc, port, time.perf_counter() - t0


def stop_server(proc):
    """SIGTERM, then SIGKILL after 20 s; returns the peak RSS in MB."""
    proc.send_signal(signal.SIGTERM)
    deadline = time.monotonic() + 20
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid != 0:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def generate(hqlbench, workload, seed, tiny, out):
    cmd = [hqlbench, "gen", "--workload=" + workload, "--seed=%d" % seed,
           "--out=" + out] + (["--tiny"] if tiny else [])
    res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=120)
    if res.returncode != 0:
        raise BenchError("generation failed for %s" % workload)
    return json.loads(res.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace, tiny):
    """One full run; returns (summary dict, metrics {name: value})."""
    hqlbench, serve = build(build_dir())
    work = os.path.join(build_dir(), "run", workload)
    manifest = generate(hqlbench, workload, seed, tiny, work)
    db = os.path.join(work, "base.db")
    with open(os.path.join(work, "server.log"), "w") as errlog:
        setups = []
        while True:
            proc, port, took = spawn_server(serve, db, errlog)
            setups.append(took)
            if (len(setups) >= SETUP_MAX_SPAWNS or
                    (len(setups) >= SETUP_MIN_SPAWNS and
                     sum(setups) >= SETUP_BUDGET_S)):
                break
            stop_server(proc)
        # The last server spawned is the one the window measures.
        cmd = [hqlbench, "drive", "--dir=" + work, "--port=%d" % port,
               "--seconds=%g" % seconds] + (["--trace"] if trace else [])
        try:
            client = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
            # hqlbench reports the end of the timed window; the server is
            # stopped (and its peak RSS read) before hqlbench's in-process
            # replays start, so their memory never adds to the server's. A
            # window that overruns (a wedged request) kills hqlbench.
            watchdog = threading.Timer(seconds + 60, client.kill)
            watchdog.start()
            try:
                said = client.stdout.readline()
            finally:
                watchdog.cancel()
        finally:
            rss_mb = stop_server(proc)
        try:
            out, _ = client.communicate("go\n" if said else "", timeout=120)
        except BaseException:
            client.kill()
            client.wait()
            raise
    if said.strip() != "window done" or client.returncode != 0 or not out.strip():
        raise BenchError("hqlbench drive failed (exit %s)" % client.returncode)
    summary = json.loads(out.strip().splitlines()[-1])
    metrics = dict(summary["metrics"])
    metrics["setup_s"] = statistics.median(setups)
    metrics["server_rss_mb"] = rss_mb
    summary["manifest"] = manifest
    return summary, metrics


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    with open(os.path.join(HERE, "metrics.json")) as f:
        layers = json.load(f)["per_layer"]
    return contract, layers


def report(workload, summary, metrics, contract, layers, trace):
    man = summary["manifest"]
    print("workload %s: %d connections, profile %s, tuples %s, base file %d "
          "bytes" % (workload, man["connections"], man["profile"],
                     man["tuples"], man["db_bytes"]))
    print("  why: " + man["why"])
    units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    units.update(REPORT_ONLY)
    for name in sorted(units):
        if name in metrics:
            print("  %-28s %14.4f %s" % (name, metrics[name], units[name]))
    if trace:
        for m in contract["per_layer"]:
            moves = layers.get(m["name"], {}).get("moves", "")
            print("  %-28s %14.4f %-12s -> %s" % (
                m["name"], metrics.get(m["name"], float("nan")), m["unit"],
                moves))
        for expected_on, text, holds in design_checks(metrics):
            verdict = (("holds" if holds else "DOES NOT HOLD")
                       if expected_on == workload else "figure only")
            print("  design (expected on %s): %s: %s"
                  % (expected_on, text, verdict))
    for note in summary.get("notes", []):
        print("  note: " + note)
    print("  attempted %d, failed %d (transport %d, not ok %d, mismatched %d)"
          % (summary["attempted"], summary["failed"],
             summary["transport_errors"], summary["not_ok"],
             summary["mismatches"]))


def design_checks(metrics):
    """The traced run's two design expectations: (workload, text, holds).

    On scan_join the operator spans inside opt.execute should be most of
    it. On chatty_small the fixed per-request costs should exceed them;
    hql.rewrite_us is left out of that sum for the verdict, because it
    times every rewrite separately and PlanHybrid already does its own.
    """
    ex, ev = metrics["opt.execute_us"], metrics["eval.self_us"]
    share = ev / ex if ex else 0
    fixed = (metrics["parser.parse_us"] + metrics["opt.plan_us"] +
             metrics["server.overhead_us"])
    return [
        ("scan_join", "eval.self_us / opt.execute_us = %.3f > 0.5" % share,
         share > 0.5),
        ("chatty_small", "parse + plan + server.overhead_us = %.1f us "
         "(%.1f us with hql.rewrite_us) > eval.self_us = %.1f us"
         % (fixed, fixed + metrics["hql.rewrite_us"], ev), fixed > ev),
    ]


def result_line(summary, metrics, contract, trace):
    wanted = contract["per_layer"] if trace else contract["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError("run produced no value for " + ", ".join(missing))
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def selfcheck():
    """Tiny sizes, all workloads: determinism, answers, metric names."""
    contract, layers = load_contract()
    problems = []
    names = [w["name"] for w in contract["workloads"]]
    if not set(names) <= set(WORKLOADS):
        problems.append("BENCHMARK.json names unknown workloads: %s" % names)
    per_layer = sorted(m["name"] for m in contract["per_layer"])
    if per_layer != sorted(layers):
        problems.append("BENCHMARK.json per_layer and metrics.json disagree")
    for name, entry in sorted(layers.items()):
        if not set(entry.get("on", [])) <= set(names):
            problems.append("metrics.json: %s names a workload outside "
                            "BENCHMARK.json under 'on'" % name)
    hqlbench, _ = build(build_dir())
    for w in WORKLOADS:
        dirs = [os.path.join(build_dir(), "selfcheck", "%s-%d" % (w, i))
                for i in (1, 2)]
        for d in dirs:
            generate(hqlbench, w, 7, True, d)
        files = sorted(os.listdir(dirs[0]))
        _, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], files,
                                               shallow=False)
        if mismatch or errors or files != sorted(os.listdir(dirs[1])):
            problems.append("%s: two generations from one seed differ: %s"
                            % (w, mismatch + errors))
        for trace in (False, True):
            summary, metrics = run_workload(w, 7, 1, trace, tiny=True)
            report(w, summary, metrics, contract, layers, trace)
            if summary["failed"] != 0:
                problems.append("%s: %d failed request(s)"
                                % (w, summary["failed"]))
            try:
                line = result_line(summary, metrics, contract, trace)
                for name, v in line["metrics"].items():
                    if not isinstance(v["value"], (int, float)) or not v["unit"]:
                        problems.append("%s: bad value for %s" % (w, name))
            except BenchError as e:
                problems.append("%s: %s" % (w, e))
    for p in problems:
        log("selfcheck: " + p)
    print(json.dumps({"selfcheck": "ok" if not problems else "failed",
                      "problems": len(problems)}))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    try:
        if args.selfcheck:
            return selfcheck()
        if args.workload is None:
            ap.error("--workload is required")
        contract, layers = load_contract()
        summary, metrics = run_workload(args.workload, args.seed,
                                        args.seconds, bool(args.trace),
                                        tiny=False)
        report(args.workload, summary, metrics, contract, layers, args.trace)
        line = result_line(summary, metrics, contract, args.trace)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError,
            KeyError) as e:
        log("wirebench: %s" % e)
        return 1
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

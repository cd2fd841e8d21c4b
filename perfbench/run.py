"""Benchmark of the ancillary-pricing package, driven from outside.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout. Workloads (see perfbench/README.md
for why each exists and what each per-layer metric should move):

  serve_keepalive  2 keep-alive clients in a closed loop against
                   ``ancillary-pricing serve`` on an APP-DES checkpoint
  pipeline_c12     one pass of the acceptance c12 flow through cli([...]);
                   run by hand, it is not in BENCHMARK.json (too unsteady)
  abtest_six_arm   one-day, 1000-session ``abtest`` commands with six arms,
                   back to back; the fastest command of the run, scaled to
                   the reference host speed, is reported

Every input comes from --seed. Each timed run executes in a fresh child
process with one BLAS thread. The last line of standard output is one
JSON object: the end-to-end metrics with --trace 0, the per-layer metrics
of a traced run with --trace 1. The exit code is 1 when an output is
wrong, 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import http.client
import itertools
import json
import os
import platform
import selectors
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from child import REF_LOOPS, reference_loop_s  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from spans import median, tail_percentile  # noqa: E402

WORKLOADS = ("serve_keepalive", "pipeline_c12", "abtest_six_arm")
END_TO_END = {
    "latency_ms": "ms",
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
BLAS_THREADS = "1"
SETUPS = 4                 # set-ups before and again after the timed window;
                           # setup_s is the median of all of them
SERVE_CLIENTS = 2
SERVE_MIN_REQUESTS = 1010  # so that p99 has at least 10 samples beyond it
SERVE_WARMUP = 10          # requests per client before the timed window
DEADLINE_S = 170.0         # the whole run, set-up included
# The best time of child.reference_loop_s on the reference host when it is
# quiet. CPU-bound times (operations, set-ups) are scaled to this host speed.
REF_S = 6.0e-3


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


class Bench:
    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("ANCILLARY_PRICING_ADDR", None)
        src = str(root / "src")
        self.env.update({
            "PYTHONPATH": src, "PERFBENCH_SRC": src, "PYTHONUNBUFFERED": "1",
            "OPENBLAS_NUM_THREADS": BLAS_THREADS, "OMP_NUM_THREADS": BLAS_THREADS,
            "MKL_NUM_THREADS": BLAS_THREADS,
        })
        self.numpy = None
        self.child_ids = itertools.count(1)
        self.setup_refs: list[float] = []  # reference-loop times taken before set-ups

    def setup_times(self, start) -> list[float]:
        """SETUPS calls of ``start``, each after REF_LOOPS timings of the
        reference loop; returns the wall time of each set-up."""
        out = []
        for _ in range(SETUPS):
            self.setup_refs += [reference_loop_s() for _ in range(REF_LOOPS)]
            out.append(start())
        return out

    def setup_s(self, setups: list[float]) -> float:
        """The median set-up, scaled to the reference host speed."""
        return median(setups) * REF_S / min(self.setup_refs)

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"over the {DEADLINE_S:.0f} s time limit")
        return left

    def child(self, step: str, **kw) -> tuple[dict, float]:
        """Run one child step to completion; returns its result and wall time."""
        stem = self.work / f"{step}-{next(self.child_ids)}"
        argv = [sys.executable, str(HERE / "child.py"), step, "--work", str(self.work),
                "--result", f"{stem}.result.json"]
        for key, value in kw.items():
            argv += [f"--{key}", str(value)]
        t0 = time.perf_counter()
        with open(f"{stem}.log", "wb") as fh:
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=fh,
                                    stderr=subprocess.STDOUT)
        # A blocking wait sees the exit at once; wait(timeout=...) polls in
        # steps of up to 50 ms, which would quantize the set-up times.
        killer = threading.Timer(self.remaining(), proc.kill)
        killer.start()
        try:
            rc = proc.wait()
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        if rc == -signal.SIGKILL:
            raise BenchError(f"child step {step} was killed: out of time")
        if rc != 0:
            tail = Path(f"{stem}.log").read_text(errors="replace")[-3000:]
            raise BenchError(f"child step {step} exited {rc}:\n{tail}")
        doc = json.loads(Path(f"{stem}.result.json").read_text())
        self.numpy = doc.get("numpy", self.numpy)
        return doc, wall

    # -- serve_keepalive ---------------------------------------------------

    def start_server(self) -> tuple[subprocess.Popen, int, float]:
        t0 = time.perf_counter()
        with open(self.work / "server.log", "ab") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "ancillary_pricing.cli", "serve",
                 "--ckpt", str(self.work / "app-dnn.ckpt.json"), "--addr", "127.0.0.1:0"],
                cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=log)
        try:
            line = _readline(proc, min(30.0, self.remaining()))
            port = int(line.rsplit(":", 1)[1])
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            conn.request("GET", "/healthz")
            status = conn.getresponse()
            status.read()
            conn.close()
            if status.status != 200:
                raise BenchError(f"/healthz answered {status.status}")
        except BaseException:
            stop_server(proc)
            raise
        return proc, port, time.perf_counter() - t0

    def timed_server_start(self) -> float:
        proc, _, took = self.start_server()
        stop_server(proc)
        return took

    def serve_keepalive(self, args) -> dict:
        prep, prepare_s = self.child("prepare-serve", seed=args.seed)
        if prep["failures"]:
            raise BenchError(f"set-up failed: {prep['failures']}")
        pool = json.loads((self.work / "pool.json").read_text())
        setups = self.setup_times(self.timed_server_start)
        proc, port, _ = self.start_server()
        try:
            load = closed_loop(port, pool, args.seconds, self.remaining() - 30.0, proc.pid)
        finally:
            peak_kb = stop_server(proc)
        setups += self.setup_times(self.timed_server_start)
        lat = load["latencies"]
        if not lat:
            raise BenchError(f"no timed request completed: {load['failures'][:3]}")
        p, tail, n = tail_percentile(lat)
        out = {
            "op_name": "POST /v1/price request",
            "e2e": {"latency_ms": median(lat) * 1e3,
                    "throughput_per_s": len(lat) / load["wall"], "setup_s": self.setup_s(setups),
                    "peak_rss_mb": peak_kb / 1024.0},
            "tail": (p, tail, n),
            "p50": median(lat),
            "setup_scaling": (median(setups), min(self.setup_refs)),
            "attempted": load["attempted"],
            "failed": load["failed"],
            "failures": load["failures"][:5],
            "prepare_s": prepare_s,
        }
        if args.trace:
            replay, _ = self.child("replay")
            m = replay["metrics"]
            out["self_s"] = replay["self_s"]
            m["service.transport_ms"] = out["e2e"]["latency_ms"] - m["service.handler_us"] / 1e3
            m["service.latency_p99_ms"] = tail * 1e3
            m["service.busy_ratio"] = load["busy_ratio"]
            m["run.reference_loop_ms"] = min(self.setup_refs) * 1e3
            for klass in ("2xx", "4xx", "5xx"):
                m[f"service.status_{klass}"] = load["status"].get(klass[0], 0)
            out["layers"] = m
        return out

    # -- pipeline_c12 and abtest_six_arm -----------------------------------

    def _in_process(self, args, step: str, ops_per_rep: int, items_per_rep: int,
                    op_name: str, prepare_s: float) -> dict:
        """Time ``step`` in one child. The metrics come from its fastest
        repetition, scaled to the reference host speed: times REF_S over
        the best reference-loop time of the same child (see "Host noise"
        in README.md)."""
        def start():
            return self.child("import", workload=args.workload)[1]

        setups = self.setup_times(start)
        res, _ = self.child(step, seed=args.seed, seconds=args.seconds, trace=args.trace)
        setups += self.setup_times(start)
        times = res["times"]
        failures = res["failures"]
        digests = sorted(set(res["digests"]))
        if len(digests) != 1:
            failures.append(f"artifact digests differ across repetitions: {digests}")
        attempted = ops_per_rep * len(res["digests"])
        p, tail, count = tail_percentile(times)
        ref = min(res["refs"])
        best = min(times) * REF_S / ref
        out = {
            "op_name": op_name,
            "e2e": {"latency_ms": best * 1e3,
                    "throughput_per_s": items_per_rep / min(times) * ref / REF_S,
                    "setup_s": self.setup_s(setups), "peak_rss_mb": res["peak_rss_mb"]},
            "tail": (p, tail, count),
            "p50": median(times),
            "scaling": (min(times), ref),
            "setup_scaling": (median(setups), min(self.setup_refs)),
            "digest": digests[0],
            "attempted": attempted,
            "failed": min(attempted, len(failures)),
            "failures": failures[:5],
            "prepare_s": prepare_s,
        }
        if args.trace:
            m = res["metrics"]
            out["self_s"] = res["self_s"]
            m["trace.overhead_s"] = res["traced_time"] - min(times)
            m["trace.overhead_ratio"] = res["traced_time"] / min(times) - 1.0
            m["run.reference_loop_ms"] = ref * 1e3
            out["layers"] = m
        return out

    def pipeline_c12(self, args) -> dict:
        # 11 commands a pass: 2 simulate, 4 train, 4 evaluate, 1 abtest
        return self._in_process(args, "pipeline", 11, 11, "c12 pass", 0.0)

    def abtest_six_arm(self, args) -> dict:
        prep, prepare_s = self.child("prepare-abtest", seed=args.seed, trace=args.trace)
        if prep["failures"]:
            raise BenchError(f"set-up failed: {prep['failures']}")
        out = self._in_process(args, "abtest", 1, 1000, "one-day abtest command", prepare_s)
        if args.trace:
            # layers the timed abtest never reaches are measured on its set-up
            for name, value in prep["metrics"].items():
                if not out["layers"].get(name):
                    out["layers"][name] = value
        return out


def _readline(proc: subprocess.Popen, timeout: float) -> str:
    """The server's first stdout line ("serving ... on host:port")."""
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(timeout):
            raise BenchError("server did not report its address in time")
    line = proc.stdout.readline().decode().strip()
    if not line.startswith("serving "):
        raise BenchError(f"server did not start: {line!r}")
    return line


def stop_server(proc: subprocess.Popen) -> float:
    """Interrupt the server, reap it and return its peak RSS in KiB."""
    if proc.returncode is None:
        proc.send_signal(signal.SIGINT)
        killer = threading.Timer(10.0, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.peak_kb = usage.ru_maxrss
    return getattr(proc, "peak_kb", 0.0)


def _cpu_seconds(pid: int) -> float:
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def closed_loop(port: int, pool: list[dict], seconds: float, limit: float,
                server_pid: int) -> dict:
    """2 clients, one keep-alive connection each, next request after the
    reply. Runs until ``seconds`` have passed and SERVE_MIN_REQUESTS are
    done, or ``limit`` seconds at most."""
    stop = threading.Event()
    barrier = threading.Barrier(SERVE_CLIENTS + 1)
    lock = threading.Lock()
    latencies, ends, failures = [], [], []
    status: dict[str, int] = {}
    counts = {"attempted": 0, "failed": 0}  # warm-up requests included

    def client(k: int):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        headers = {"Content-Type": "application/json"}
        i = k * len(pool) // SERVE_CLIENTS
        timed = False
        sent = 0
        try:
            while True:
                if not timed and sent == SERVE_WARMUP:
                    barrier.wait()
                    timed = True
                if timed and stop.is_set():
                    break
                item = pool[i % len(pool)]
                i += 1
                sent += 1
                t0 = time.perf_counter()
                try:
                    conn.request("POST", "/v1/price", item["body"], headers)
                    resp = conn.getresponse()
                    data = resp.read()
                    code = resp.status
                except (OSError, http.client.HTTPException) as exc:
                    conn.close()
                    code, data = 0, repr(exc).encode()
                t1 = time.perf_counter()
                problem = _check_reply(code, data, item)
                with lock:
                    counts["attempted"] += 1
                    if problem:
                        counts["failed"] += 1
                        failures.append(problem if timed else f"warm-up: {problem}")
                    if timed:
                        status[str(code)[0]] = status.get(str(code)[0], 0) + 1
                        latencies.append(t1 - t0)
                        ends.append(t1)
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(k,)) for k in range(SERVE_CLIENTS)]
    for t in threads:
        t.start()
    barrier.wait(timeout=60)
    start = time.perf_counter()
    cpu0 = _cpu_seconds(server_pid)
    while True:
        time.sleep(0.05)
        elapsed = time.perf_counter() - start
        with lock:
            done = len(latencies)
        if (elapsed >= seconds and done >= SERVE_MIN_REQUESTS) or elapsed >= limit:
            break
    stop.set()
    for t in threads:
        t.join(timeout=30)
    wall = (max(ends) if ends else time.perf_counter()) - start
    busy = (_cpu_seconds(server_pid) - cpu0) / wall
    return {"latencies": latencies, "wall": wall, "failures": failures,
            "status": status, "busy_ratio": busy, **counts}


def _check_reply(code: int, data: bytes, item: dict) -> str | None:
    if code != 200:
        return f"status {code}: {data[:200]!r}"
    try:
        reply = json.loads(data)
    except ValueError:
        return f"reply is not JSON: {data[:200]!r}"
    for key in ("recommended_price", "purchase_prob"):
        if reply.get(key) != item[key]:
            return f"{key} {reply.get(key)!r} != in-process {item[key]!r}"
    return None


def machine_info(numpy_version) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy_version, "blas_threads": int(BLAS_THREADS)}


ISSUE_NAMES = {
    "serve_keepalive": [("price_p50_ms", "latency_ms", "ms"),
                        ("price_rps", "throughput_per_s", "1/s")],
    "pipeline_c12": [("pipeline_s", "latency_ms", "s")],
    "abtest_six_arm": [("ab_sessions_per_s", "throughput_per_s", "1/s")],
}


def report(args, out: dict, machine: dict) -> dict:
    """Print the readable summary and return the result object."""
    e2e = out["e2e"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"machine {json.dumps(machine, sort_keys=True)}")
    p, tail, n = out["tail"]
    print(f"operation: {out['op_name']}, {n} timed; p50 {out['p50'] * 1e3:.6g} ms, "
          f"p{p:g} {tail * 1e3:.6g} ms")
    if "scaling" in out:
        best, ref = out["scaling"]
        print(f"fastest {best * 1e3:.6g} ms as measured; reference loop best "
              f"{ref * 1e3:.6g} ms, so times are scaled by {REF_S / ref:.6g}")
    raw_setup, setup_ref = out["setup_scaling"]
    print(f"set-up median {raw_setup:.6g} s as measured; reference loop best "
          f"{setup_ref * 1e3:.6g} ms before the set-ups, so scaled by {REF_S / setup_ref:.6g}")
    for name, unit in END_TO_END.items():
        print(f"  {name:<18} {e2e[name]:>14.6g} {unit}")
    for alias, name, unit in ISSUE_NAMES[args.workload]:
        value = e2e[name] / 1e3 if unit == "s" else e2e[name]
        print(f"  {alias:<18} {value:>14.6g} {unit}")
    if args.workload == "serve_keepalive":
        print(f"  {'price_p99_ms':<18} {tail * 1e3:>14.6g} ms (p{p:g} of {n} requests)")
    error_ratio = out["failed"] / out["attempted"] if out["attempted"] else 1.0
    print(f"  {'error_ratio':<18} {error_ratio:>14.6g} ({out['failed']}/{out['attempted']})")
    print(f"  {'prepare_s':<18} {out['prepare_s']:>14.6g} s (inputs, not set-up)")
    if "digest" in out:
        print(f"digest {out['digest']}")
    for failure in out["failures"]:
        print(f"FAILED: {failure}")
    if args.trace:
        layers = out["layers"]
        layers["run.error_ratio"] = error_ratio
        layers["run.prepare_s"] = out["prepare_s"]
        print(f"tracing overhead {layers['trace.overhead_s']:.6g} s "
              f"({layers['trace.overhead_ratio']:+.2%})")
        print("self time by span (s):")
        for name, own in list(out["self_s"].items())[:12]:
            print(f"  {name:<34} {own:>14.6g}")
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER.items()}
        for name, m in metrics.items():
            print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    else:
        metrics = {name: {"value": float(e2e[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": out["failed"] == 0, "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ancillary-pricing benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ancillary_pricing" / "cli.py").is_file():
        print(f"error: {root} holds no src/ancillary_pricing; run from a source checkout",
              file=sys.stderr)
        return 2
    scratch = root / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = scratch / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    bench = Bench(root, work, time.monotonic() + DEADLINE_S)
    try:
        out = getattr(bench, args.workload)(args)
        for trace in work.glob("trace*.json"):
            trace.replace(scratch / f"{args.workload}-{trace.name}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = report(args, out, machine_info(bench.numpy))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

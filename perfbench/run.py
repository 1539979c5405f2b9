"""The PrivBasis serving benchmark: one command, every metric, checked.

Run from the root of a checkout::

    python3 perfbench/run.py --workload quest-mixed --seed 1 \\
        --seconds 40 --trace 0
    python3 perfbench/run.py --workload tierlarge-mmap --seed 1 \\
        --seconds 40 --trace 1
    python3 perfbench/run.py --smoke            # all workloads, toy scale

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints the per-layer metrics of ``layers.PER_LAYER`` from
a traced server, plus the tracing overhead against an untraced server
run in the same invocation.  Every run checks the service's outputs
(``check``); the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every check passed.

Each server is a separate process (``launcher.py``) and all load comes
from one client process (``loadgen.py``).  Generated inputs, caches and
per-run scratch live under ``perfbench/_work`` in the checkout.
``GLOSSARY.md`` defines every metric and workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from http.client import HTTPConnection
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

#: Every run must end within this many seconds of starting.
DEADLINE_S = 170.0

#: End-to-end metrics and their units (``BENCHMARK.json`` order).
END_TO_END = [
    ("setup_s", "s"), ("peak_rss_mb", "MiB"), ("release_p50_ms", "ms"),
    ("releases_per_s", "1/s"), ("reuse_hit_p50_ms", "ms"),
]


class BenchError(Exception):
    """A run that cannot produce a result (exit 2, no result line)."""


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        remaining = self.end - time.monotonic()
        if remaining <= 0:
            raise BenchError("run exceeded its time limit")
        return remaining


def child_env() -> Dict[str, str]:
    """Environment of every child: the checkout's sources, scratch here."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["REPRO_TIER_DIR"] = str(WORK / "tiers")
    env["TMPDIR"] = str(WORK / "tmp")
    # One glibc malloc arena: otherwise each executor thread that first
    # runs a release grows an arena of its own, and whether a second
    # thread happened to start in the window decided the peak RSS
    # (retail: 131 or 163 MiB between runs of the same code).
    env["MALLOC_ARENA_MAX"] = "1"
    return env


def http_call(port: int, method: str, path: str, body=None,
              request_id: str = "", timeout: float = 120.0):
    """One request on its own connection; returns ``(status, payload)``."""
    connection = HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"}
        if request_id:
            headers["X-Request-Id"] = request_id
        connection.request(method, path, body=data, headers=headers)
        response = connection.getresponse()
        raw = response.read()
        return response.status, (json.loads(raw) if raw else None)
    finally:
        connection.close()


class Server:
    """One launcher process and its stdin/stdout control channel."""

    def __init__(self, config: dict, scratch: Path, deadline: Deadline):
        self.report_path = scratch / "report.json"
        config = {**config, "report": str(self.report_path)}
        config_path = scratch / "server.json"
        config_path.write_text(json.dumps(config))
        self.deadline = deadline
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py"), str(config_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=str(scratch),
        )
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        try:
            self.port = int(self._expect("PORT").split()[1])
        except BaseException:
            self.kill()
            raise

    def _read(self) -> None:
        for line in self.process.stdout:
            self.lines.put(line.strip())
        self.lines.put(None)

    def _expect(self, prefix: str) -> str:
        while True:
            try:
                line = self.lines.get(timeout=self.deadline.left())
            except queue.Empty:
                raise BenchError(f"server never answered {prefix!r}")
            if line is None:
                raise BenchError("server exited early")
            if line.startswith(prefix):
                return line

    def command(self, line: str, answer: str) -> str:
        self.process.stdin.write(line + "\n")
        self.process.stdin.flush()
        return self._expect(answer)

    def mark(self) -> None:
        self.command("mark", "MARKED")

    def hwm_kib(self) -> int:
        return int(self.command("hwm", "HWM").split()[1])

    def stop(self) -> dict:
        try:
            self.process.stdin.write("stop\n")
            self.process.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.process.wait(timeout=min(60.0, self.deadline.left()))
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("server did not stop")
        self.reader.join(timeout=5)
        if self.process.returncode != 0:
            raise BenchError(f"server exited {self.process.returncode}")
        return json.loads(self.report_path.read_text())

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=30)


def git_sha() -> Optional[str]:
    """HEAD of the checkout, or ``None`` when it is not a git work tree
    of its own (git would otherwise report an enclosing repository)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), timeout=10,
            capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def source_digest() -> str:
    """sha256 over ``src/**/*.py`` (the checkout may not be a git repo)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(spec, seed: int, dataset: dict, spilled: Optional[int],
                smoke: bool) -> dict:
    import numpy

    cores = os.cpu_count() or 1
    return {
        "nproc": cores,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "workload": spec.name, "seed": seed, "smoke": smoke,
        "dataset": spec.dataset.get("name"),
        "transactions": dataset["num_transactions"],
        "items": dataset["num_items"],
        "spilled_bytes": spilled,
        "memory_budget_mb": spec.service.get("memory_budget_mb"),
        "evidence": ("path check only (1 core or smoke scale)"
                     if cores < 2 or smoke else "speed"),
    }


def prepare(spec) -> dict:
    """The dataset summary and exact top-k, built once per checkout."""
    ks = sorted({spec.k, spec.dominated_k})
    key = hashlib.sha256(
        json.dumps([spec.dataset, ks], sort_keys=True).encode()
    ).hexdigest()[:12]
    path = WORK / f"dataset-{key}.json"
    if not path.exists():
        partial = path.with_suffix(".tmp")
        subprocess.run(
            [sys.executable, str(HERE / "prepare.py"),
             json.dumps(spec.dataset), ",".join(map(str, ks)),
             str(partial)],
            env=child_env(), check=True, cwd=str(WORK), timeout=800,
        )
        partial.replace(path)
    return json.loads(path.read_text())


def server_config(spec, scratch: Path, trace: bool) -> dict:
    name = spec.dataset["name"]
    service = dict(spec.service)
    if spec.state_dir:
        service["state_dir"] = str(scratch / "state")
    return {
        "dataset": spec.dataset,
        "tenants": {tenant: {"dataset": name, "epsilon_limit": 1e9}
                    for tenant in spec.tenants},
        "service": service,
        "trace": trace,
    }


def start(spec, scratch: Path, trace: bool, deadline: Deadline,
          index: int) -> Tuple[Server, float, dict]:
    """Spawn a server and time it to its first answered release."""
    scratch.mkdir(parents=True)
    server = Server(server_config(spec, scratch, trace), scratch, deadline)
    try:
        body = workloads.release_body(spec.tenants[0], spec.k,
                                      spec.epsilon, False)
        status, payload = http_call(server.port, "POST", "/v1/release",
                                    body, f"setup-{index}",
                                    timeout=deadline.left())
        setup_s = time.perf_counter() - server.started
    except BaseException:
        server.kill()
        raise
    record = loadgen_record(f"setup-{index}", body, status, payload)
    return server, setup_s, record


def loadgen_record(request_id, body, status, payload) -> dict:
    import loadgen

    return loadgen.record_for(request_id, -1, "setup", "release",
                              body["tenant"], body, status, payload,
                              {}, {})


def drive(spec, port: int, seed: int, seconds: float, dataset: dict,
          trace: bool, scratch: Path, deadline: Deadline) -> List[dict]:
    """Run the client process over one window."""
    num_items = dataset["num_items"]
    plan = {"port": port, "loop": spec.loop, "seconds": seconds,
            "connections": spec.connections, "truth": dataset["truth"]}
    if spec.loop == "closed":
        plan["closed"] = workloads.closed_plan(spec, trace)
    else:
        plan["open"] = workloads.open_schedule(spec, seed, seconds,
                                               num_items, trace)
    return client(plan, "window", scratch, deadline)


def client(plan: dict, name: str, scratch: Path,
           deadline: Deadline) -> List[dict]:
    """Run ``loadgen.py`` on ``plan``; returns its records."""
    plan_path = scratch / f"{name}-plan.json"
    records_path = scratch / f"{name}-records.json"
    plan_path.write_text(json.dumps(plan))
    try:
        subprocess.run(
            [sys.executable, str(HERE / "loadgen.py"), str(plan_path),
             str(records_path)],
            check=True, timeout=deadline.left(), cwd=str(scratch))
    except subprocess.TimeoutExpired:
        raise BenchError("load generator did not finish in time")
    return json.loads(records_path.read_text())


def latency_ms(record: dict) -> float:
    """Client latency, from the due time in the open loop."""
    return (record["done"] - record.get("due", record["sent"])) * 1e3


def check(spec, records: List[dict], budgets: Optional[Dict[str, float]],
          lines: List[str]) -> List[str]:
    """Every correctness check; returns the failures (empty when sound).

    ``records`` are one server's responses; ``budgets`` its tenants'
    spent ε read back at the end (``None`` skips the ledger check).
    """
    failures = []
    releases = [r for r in records if r["op"] == "release"
                and r["status"] == 200]
    for record in releases:
        if record["hit"]:
            if record["charged"] != 0.0:
                failures.append(f"{record['id']}: reuse hit charged "
                                f"{record['charged']}")
        elif record["count"] != record["k"] or not record["finite"]:
            failures.append(f"{record['id']}: {record['count']} itemsets "
                            f"for k={record['k']} (finite="
                            f"{record['finite']})")
    for tenant in spec.tenants if budgets is not None else ():
        charged = math.fsum(r["charged"] for r in releases
                            if r["tenant"] == tenant)
        if abs(budgets.get(tenant, -1.0) - charged) > 1e-9:
            failures.append(f"{tenant}: budget spent {budgets.get(tenant)} "
                            f"!= summed fresh epsilon {charged}")
    last: Dict[int, int] = {}
    for record in records:
        if "version" not in record:
            continue
        previous = last.get(record["conn"], -1)
        if record["version"] < previous:
            failures.append(f"{record['id']}: snapshot_version "
                            f"{record['version']} < {previous}")
        last[record["conn"]] = record["version"]
    scores = [r["f1"] for r in releases
              if not r["hit"] and r.get("f1") is not None]
    if scores:
        lines.append(f"mean F1 against the exact top-k: "
                     f"{statistics.fmean(scores):.3f} over {len(scores)} "
                     f"releases run fresh, dominated misses included "
                     f"(floor {spec.f1_floor})")
    if scores and statistics.fmean(scores) < spec.f1_floor:
        failures.append(f"mean F1 {statistics.fmean(scores):.3f} below "
                        f"floor {spec.f1_floor}")
    bad = [r for r in records if r["status"] != 200]
    if bad:
        failures.append(f"{len(bad)} failed or refused operations, "
                        f"first: {bad[0]['id']} -> {bad[0]['status']} "
                        f"{bad[0].get('error')}")
    return failures


def final_reads(spec, port: int) -> Tuple[Dict[str, float], dict]:
    """Each tenant's spent ε, and ``/healthz``, after the load."""
    spent = {}
    for tenant in spec.tenants:
        status, payload = http_call(port, "GET",
                                    f"/v1/budget?tenant={tenant}")
        if status == 200:
            spent[tenant] = float(payload["ledger"]["spent"])
    return spent, http_call(port, "GET", "/healthz")[1]


def end_to_end(spec, records: List[dict], setups: List[float],
               hwm_kib: int, lines: List[str]) -> Dict[str, float]:
    window = [r for r in records if r["phase"] == "window"]
    fresh = [latency_ms(r) for r in
             layers.fresh_releases(window, spec.k, spec.epsilon)]
    misses = [latency_ms(r) for r in window if r["op"] == "release"
              and r["status"] == 200 and not r["hit"]
              and r["k"] == spec.dominated_k]
    hits = [latency_ms(r) for r in window if r["op"] == "release"
            and r["status"] == 200 and r["hit"]]
    ingests = [latency_ms(r) for r in window
               if r["op"] == "ingest" and r["status"] == 200]
    for label, values in (("fresh", fresh), ("reuse hit", hits),
                          ("dominated miss", misses), ("ingest", ingests)):
        if values:
            lines.append(f"{label} ms: {json.dumps(stats.summarize(values))}")
    if not fresh or not hits:
        raise BenchError("the window produced no fresh release or no "
                         "reuse hit")
    used, release_tail = stats.tail(fresh, 90.0)
    lines.append(f"fresh-release tail: p{used:.4g} = {release_tail:.3f} ms "
                 f"of {len(fresh)} samples")
    late = [r["late"] * 1e3 for r in window if "late" in r]
    if late:
        lines.append(f"generator lateness ms: p50 "
                     f"{statistics.median(late):.3f} max {max(late):.3f}")
    lines.append(f"setup_s samples: {[round(s, 4) for s in setups]}")
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": hwm_kib / 1024.0,
        "release_p50_ms": statistics.median(fresh),
        "releases_per_s": len(fresh) / max(r["done"] for r in window),
        "reuse_hit_p50_ms": statistics.median(hits),
    }


def run_untraced(spec, seed, seconds, dataset, scratch, deadline, lines):
    setups, setup_records = [], []
    server = None
    try:
        for index in range(spec.setups):
            if server is not None:
                server.stop()
            server, seconds_taken, record = start(
                spec, scratch / f"server-{index}", False, deadline, index)
            setups.append(seconds_taken)
            setup_records.append(record)
        records = [setup_records[-1]] + drive(
            spec, server.port, seed, seconds, dataset, False, scratch,
            deadline)
        hwm_kib = server.hwm_kib()
        budgets, health = final_reads(spec, server.port)
        server.stop()
    finally:
        if server is not None:
            server.kill()
    metrics = end_to_end(spec, records, setups, hwm_kib, lines)
    failures = (check(spec, setup_records[:-1], None, lines)
                + check(spec, records, budgets, lines))
    return metrics, setup_records[:-1] + records, failures, health


def run_traced(spec, seed, seconds, dataset, scratch, deadline, lines):
    """An untraced and a traced server, each for half the window."""
    half = seconds / 2.0
    server, _, reference_setup = start(spec, scratch / "untraced", False,
                                       deadline, 0)
    try:
        reference = [reference_setup] + drive(
            spec, server.port, seed, half, dataset, False, scratch,
            deadline)
        reference_budgets, _ = final_reads(spec, server.port)
        server.stop()
    finally:
        server.kill()
    server, _, traced_setup = start(spec, scratch / "traced", True,
                                    deadline, 1)
    try:
        server.mark()
        before = http_call(server.port, "GET", "/metrics")[1]
        records = drive(spec, server.port, seed, half, dataset, True,
                        scratch, deadline)
        after = http_call(server.port, "GET", "/metrics")[1]
        budgets, health = final_reads(spec, server.port)
        report = server.stop()
    finally:
        server.kill()
    failures = (check(spec, reference, reference_budgets, lines)
                + check(spec, [traced_setup] + records, budgets, lines))
    trace = report["trace"]
    metrics = layers.layer_metrics(
        trace, records, layers.fresh_releases(records, spec.k, spec.epsilon),
        before, after, spec.dataset["name"],
        report.get("rss_after_load_kib"))

    def p50(rows):
        values = [latency_ms(r) for r in
                  layers.fresh_releases(rows, spec.k, spec.epsilon)]
        return statistics.median(values) if values else float("nan")

    untraced_p50, traced_p50 = p50(reference), p50(records)
    metrics["trace.overhead_ratio"] = traced_p50 / untraced_p50 - 1.0
    handler_s, self_s, requests = layers.attribution(trace)
    lines.append(f"release p50 ms untraced {untraced_p50:.3f} traced "
                 f"{traced_p50:.3f}; handler {handler_s * 1e3:.1f} ms vs "
                 f"span self times {self_s * 1e3:.1f} ms over "
                 f"{requests} requests")
    if not layers.attribution_holds(trace):
        failures.append("attribution check: span self times do not add "
                        "up to handler time")
    return metrics, reference + [traced_setup] + records, failures, health


def run_one(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool) -> Tuple[dict, List[str], bool]:
    spec = workloads.workload(name, smoke)
    if spec is None:
        raise BenchError(f"unknown workload {name!r}; choose from "
                         f"{sorted(workloads.FULL)}")
    for directory in (WORK / "tiers", WORK / "tmp"):
        directory.mkdir(parents=True, exist_ok=True)
    dataset = prepare(spec)
    deadline = Deadline(DEADLINE_S)
    scratch = WORK / f"run-{os.getpid()}"
    lines: List[str] = []
    try:
        runner = run_traced if trace else run_untraced
        metrics, records, failures, health = runner(
            spec, seed, seconds, dataset, scratch, deadline, lines)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.rmtree(WORK / "tmp", ignore_errors=True)
    spilled = health["data_plane"].get("spilled_bytes")
    env = environment(spec, seed, dataset, spilled, smoke)
    lines.insert(0, f"environment: {json.dumps(env)}")
    lines += [f"check failed: {failure}" for failure in failures]
    units = dict(layers.PER_LAYER if trace else END_TO_END)
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": sum(r["status"] != 200 for r in records),
        "metrics": {metric: {"value": metrics[metric], "unit": unit}
                    for metric, unit in units.items()},
    }
    for metric, unit in units.items():
        lines.append(f"{metric} = {metrics[metric]:.6g} {unit}")
    return result, lines, not failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy datasets and short windows; with no "
                             "--workload, runs every workload")
    arguments = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so the ``finally``
    # blocks stop every server this run started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no src/repro next to the benchmark; run it from "
              "the root of a PrivBasis checkout", file=sys.stderr)
        return 2
    if arguments.workload is None and not arguments.smoke:
        parser.error("--workload is required (or pass --smoke)")
    names = ([arguments.workload] if arguments.workload
             else list(workloads.SMOKE))
    seconds = min(arguments.seconds, 2.0) if arguments.smoke \
        else arguments.seconds
    everything_ok = True
    for name in names:
        try:
            result, lines, ok = run_one(name, arguments.seed, seconds,
                                        bool(arguments.trace),
                                        arguments.smoke)
        except (BenchError, subprocess.CalledProcessError) as error:
            print(f"perfbench: {name}: {error}", file=sys.stderr)
            return 2
        print(f"== {name} ==")
        for line in lines:
            print(line)
        everything_ok &= ok
        last = result
    print(json.dumps(last))
    return 0 if everything_ok else 1


if __name__ == "__main__":
    sys.exit(main())

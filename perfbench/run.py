"""The repository's benchmark: three HTTP traffic mixes against a live server.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload orders-append --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics: it sets the
server up five times (``setup_s`` is the median), drives the last one with
an open-loop phase of seeded Poisson arrivals at the workload's fixed rate
and then a closed-loop phase on the same request sequence, and checks every
response and the final state.  With ``--trace 1`` it runs the open-loop
phase once untraced and then both phases on a server whose layer entry
points are wrapped (``spans.py``), and reports the per-layer metrics.

Human-readable lines go first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
0 only when every request succeeded and every correctness and durability
check passed.
"""

from __future__ import annotations

import argparse
import html
import json
import os
import re
import shutil
import selectors
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import report  # noqa: E402
import workloads  # noqa: E402
from loadgen import LoadGenerator, Record  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

#: Share of ``--seconds`` given to the open-loop phase; the closed loop
#: gets the rest.
OPEN_SHARE = 0.75
#: Server set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5
#: Seconds to wait for a server to start or answer a control command.
CONTROL_TIMEOUT = 120.0
PERCENTILES = (("p50", 0.5), ("p90", 0.9))


class CheckFailed(Exception):
    """A correctness or durability check failed."""

    #: The run's client records, so a failed run still reports its counts.
    records: List[Record] = []


# ---------------------------------------------------------------------------
# The server process
# ---------------------------------------------------------------------------


class ServerProcess:
    """``server.py`` in its own process, controlled over stdin/stdout."""

    def __init__(self, workload: Workload, seed: int, data_dir: str, traced: bool) -> None:
        command = [sys.executable, os.path.join(HERE, "server.py"), "serve", workload.name, str(seed), data_dir]
        if traced:
            command.append("--trace")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            cwd=ROOT,
            env=_server_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.port = int(self._expect("READY").split()[1])

    @property
    def pid(self) -> int:
        return self.process.pid

    def _expect(self, word: str) -> str:
        line = _readline(self.process, CONTROL_TIMEOUT)
        if not line.startswith(word):
            self.kill()
            raise RuntimeError(f"server said {line!r}, expected {word}")
        return line

    def check(self, out_file: str) -> dict:
        self.process.stdin.write(f"check {out_file}\n")
        self.process.stdin.flush()
        self._expect("CHECKED")
        with open(out_file, encoding="utf-8") as handle:
            return json.load(handle)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.stdin.write("stop\n")
            self.process.stdin.flush()
            self.process.stdin.close()
        try:
            self.process.wait(timeout=CONTROL_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
        self.process.stdout.close()

    def kill(self) -> None:
        """SIGKILL the server and wait until it is gone."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            if stream and not stream.closed:
                try:
                    stream.close()
                except OSError:
                    pass


def _server_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # The benchmark measures the defaults: no storage or topology override.
    env.pop("REPRO_STORAGE_BACKEND", None)
    env.pop("REPRO_SERVER_MODE", None)
    return env


def _readline(process: subprocess.Popen, timeout: float) -> str:
    with selectors.DefaultSelector() as selector:
        selector.register(process.stdout, selectors.EVENT_READ)
        if not selector.select(timeout):
            process.kill()
            process.wait()
            raise RuntimeError("server did not answer in time")
    line = process.stdout.readline()
    if not line:
        process.wait()
        raise RuntimeError(f"server exited with code {process.returncode}")
    return line.strip()


# ---------------------------------------------------------------------------
# /proc readings of the server process
# ---------------------------------------------------------------------------


def cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def write_bytes(pid: int) -> int:
    with open(f"/proc/{pid}/io", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("write_bytes:"):
                return int(line.split()[1])
    return 0


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc status")


# ---------------------------------------------------------------------------
# One measured server
# ---------------------------------------------------------------------------


class Measured:
    """A server after set-up, its load load and the set-up time."""

    def __init__(self, workload: Workload, seed: int, work: str, tag: str, traced: bool = False) -> None:
        self.workload = workload
        self.data_dir = os.path.join(work, f"data-{tag}")
        self.server = ServerProcess(workload, seed, self.data_dir, traced)
        try:
            self.load = LoadGenerator(workload, self.server.port, workloads.next_numbers(workload.name, seed))
            self.load.login_all()
        except BaseException:
            self.server.kill()
            raise
        self.setup_s = time.perf_counter() - self.server.started

    def open_loop(self, plan: List[workloads.Planned], seconds: float) -> dict:
        pid = self.server.pid
        cpu0, io0 = cpu_seconds(pid), write_bytes(pid)
        start = time.perf_counter() + 0.05
        self.load.open_loop(plan, start)
        cpu1, io1 = cpu_seconds(pid), write_bytes(pid)
        opened = [r for r in self.load.records if r.phase == "open"]
        applied = sum(1 for r in opened if r.kind == "action" and r.ok)
        return {
            "cpu_ms_per_request": (cpu1 - cpu0) * 1000 / max(1, len(opened)),
            "disk_write_bytes_per_action": (io1 - io0) / applied if applied else None,
            "over_capacity": report.over_capacity(opened, start, seconds),
        }

    def close(self) -> None:
        self.load.close()
        self.server.stop()


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------


def check_final_state(measured: Measured, work: str, seed: int) -> dict:
    """Run every correctness check; raise CheckFailed on the first failure.

    Returns the server's check payload (with the spans of a traced server).
    """
    try:
        return _check_final_state(measured, work, seed)
    except CheckFailed as exc:
        exc.records = measured.load.records
        raise


def _check_final_state(measured: Measured, work: str, seed: int) -> dict:
    workload, load = measured.workload, measured.load
    load.refetch_all()
    failed = [r for r in load.records if r.phase in ("setup", "final") and not r.ok]
    if failed:
        raise CheckFailed(f"{len(failed)} set-up/final page loads failed: {failed[0].error}")
    payload = measured.server.check(os.path.join(work, "check.json"))
    if payload["integrity"]:
        raise CheckFailed("integrity: " + "; ".join(payload["integrity"][:5]))
    if workload.name == "board-fanout":
        _check_board_pages(load, seed)
    if workload.name == "orders-append":
        _check_purchases(payload["rows"], load, seed, "live server")
        measured.server.kill()  # the crash: SIGKILL after the last acknowledged action
        recovered = recover(workload, measured.data_dir, work)
        if recovered["integrity"]:
            raise CheckFailed("integrity after reopen: " + "; ".join(recovered["integrity"][:5]))
        _check_purchases(recovered["rows"], load, seed, "reopened data directory")
        payload["recovery_s"] = recovered["recovery_s"]
    return payload


def _check_purchases(rows: List[list], load: LoadGenerator, seed: int, where: str) -> None:
    expected = [tuple(row) for row in workloads.orders_data(seed)["purchase"]]
    for session in load.sessions:
        expected.extend((session.user, int(no), iid) for iid, no in session.acked)
    actual = sorted(tuple(row) for row in rows)
    if actual != sorted(expected):
        missing = set(expected) - set(actual)
        raise CheckFailed(
            f"purchase in the {where}: {len(actual)} rows, expected {len(expected)} "
            f"(seeded plus one per acknowledged action); {len(missing)} missing"
        )


def _check_board_pages(load: LoadGenerator, seed: int) -> None:
    row = re.compile(r"<tr><td>(\d+)</td><td>(.*?)</td></tr>")
    seeded: Dict[str, List[Tuple[int, str]]] = {}
    for author, seq, text in workloads.board_data(seed)["note"]:
        seeded.setdefault(author, []).append((seq, text))
    for session in load.sessions:
        expected = seeded[session.user] + [(seq, text) for seq, text in session.acked]
        shown = [(int(seq), html.unescape(text)) for seq, text in row.findall(session.page.decode("utf-8"))]
        if shown != sorted(expected):
            raise CheckFailed(
                f"{session.user}'s final page lists {len(shown)} notes, expected "
                f"{len(expected)} (its seeded notes and every acknowledged post, in seq order)"
            )


def recover(workload: Workload, data_dir: str, work: str) -> dict:
    out_file = os.path.join(work, "recovered.json")
    subprocess.run(
        [sys.executable, os.path.join(HERE, "server.py"), "recover", workload.name, data_dir, out_file],
        cwd=ROOT,
        env=_server_env(),
        check=True,
        timeout=CONTROL_TIMEOUT,
    )
    with open(out_file, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def _tails(records: List[Record], kind: str) -> Dict[str, Optional[float]]:
    values = report.latencies_ms(records, kind)
    tails = {f"{kind}_{label}_ms": report.percentile(values, q) for label, q in PERCENTILES}
    tails[f"{kind}_samples"] = len(values)
    return tails


def untraced_run(workload: Workload, seed: int, seconds: float, work: str) -> Tuple[dict, List[Record]]:
    open_seconds = seconds * OPEN_SHARE
    plan = workloads.schedule(workload, seed, open_seconds)
    setups = []
    for index in range(SETUPS - 1):
        throwaway = Measured(workload, seed, work, f"setup{index}")
        setups.append(throwaway.setup_s)
        throwaway.close()
    measured = Measured(workload, seed, work, "run")
    setups.append(measured.setup_s)
    try:
        phase = measured.open_loop(plan, open_seconds)
        closed_start = time.perf_counter()
        closed_seconds = seconds - open_seconds
        measured.load.closed_loop(plan, closed_start, closed_seconds)
        rss = peak_rss_mb(measured.server.pid)
        records = measured.load.records
        completed = sum(
            1 for r in records if r.phase == "closed" and r.ok and r.done <= closed_start + closed_seconds
        )
        check_final_state(measured, work, seed)
    finally:
        measured.close()
    metrics = {
        "setup_s": statistics.median(setups),
        **_tails(records, "page"),
        **_tails(records, "action"),
        "capacity_rps": completed / closed_seconds,
        "server_cpu_ms_per_request": phase["cpu_ms_per_request"],
        "server_peak_rss_mb": rss,
        "disk_write_bytes_per_action": phase["disk_write_bytes_per_action"],
        "loadgen.late_p90_ms": report.percentile(report.lateness_ms(records), 0.9),
        "loadgen.offered_rps": report.offered_rps(records),
        "over_capacity": phase["over_capacity"],
    }
    return metrics, records


def traced_run(workload: Workload, seed: int, seconds: float, work: str) -> Tuple[dict, List[Record]]:
    open_seconds = seconds * OPEN_SHARE
    plan = workloads.schedule(workload, seed, open_seconds)
    untraced = Measured(workload, seed, work, "untraced")
    try:
        baseline = untraced.open_loop(plan, open_seconds)
    finally:
        untraced.close()
    measured = Measured(workload, seed, work, "traced", traced=True)
    try:
        phase = measured.open_loop(plan, open_seconds)
        # The closed loop runs traced too, so that the orders-append server
        # commits enough transactions to checkpoint (every 256 by default).
        measured.load.closed_loop(plan, time.perf_counter(), seconds - open_seconds)
        payload = check_final_state(measured, work, seed)
    finally:
        measured.close()
    records = measured.load.records
    tokens = [session.token for session in measured.load.sessions]
    metrics = report.layer_metrics(records, tokens, payload["spans"])
    metrics["storage.wal_backend.recovery_s"] = payload.get("recovery_s", 0.0)
    metrics["loadgen.late_p90_ms"] = report.percentile(report.lateness_ms(records), 0.9)
    metrics["loadgen.offered_rps"] = report.offered_rps(records)
    metrics["trace.overhead_share"] = (
        phase["cpu_ms_per_request"] - baseline["cpu_ms_per_request"]
    ) / baseline["cpu_ms_per_request"]
    metrics["over_capacity"] = phase["over_capacity"]
    return metrics, records


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

#: Units of everything a run prints; a name ending in ``_share`` is a fraction.
UNITS = {
    "setup_s": "s",
    "capacity_rps": "req/s",
    "server_cpu_ms_per_request": "ms",
    "server_peak_rss_mb": "MB",
    "disk_write_bytes_per_action": "B",
    "failed_share": "fraction",
    "loadgen.offered_rps": "req/s",
    "web.server.response_kb": "KB",
    "storage.wal_backend.recovery_s": "s",
    "storage.wal_backend.checkpoints": "count",
    "presentation.renderer.fragment_hit_ratio": "fraction",
    "storage.wal.append_bytes_per_action": "B",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms") or "_ms_" in name:
        return "ms"
    if name.endswith("_share"):
        return "fraction"
    return "count"


#: The layer whose inclusive span each workload exists to load, per action.
WORKLOAD_LAYER = {
    "orders-append": "runtime.returns.process_ms",
    "board-fanout": "runtime.activation.build_ms_per_action",
}


def split_check(workload: Workload, metrics: dict) -> str:
    """Does the traced split confirm why the workload exists?"""
    name = WORKLOAD_LAYER.get(workload.name)
    if name is None:
        written = [
            key for key, value in metrics.items()
            if value and ("_per_action" in key or key in WRITE_PATH_TIMES)
        ]
        return "every per-action write-path metric is zero" if not written else (
            "per-action write-path metrics are not zero: " + ", ".join(written)
        )
    span = metrics[name]
    latency = metrics["web.server.action_latency_ms"]
    handle = metrics["web.container.action_handle_ms"]
    verdict = "holds" if latency and span / latency > 0.5 else "does NOT hold"
    return (
        f"{name} = {span:.3g} ms: {span / latency if latency else 0:.0%} of action latency "
        f"and {span / handle if handle else 0:.0%} of the action's handle span; "
        f"{name.split('.')[1]} {verdict} most of the action time"
    )


WRITE_PATH_TIMES = (
    "runtime.concurrency.write_wait_ms",
    "runtime.engine.perform_ms",
    "runtime.returns.process_ms",
    "storage.wal_backend.commit_ms",
    "storage.wal_backend.durable_wait_ms",
)


def benchmark_metrics(trace: bool) -> List[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return [entry["name"] for entry in spec["per_layer" if trace else "end_to_end"]]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work)
    correct, error = True, ""
    try:
        run = traced_run if args.trace else untraced_run
        metrics, records = run(workload, args.seed, args.seconds, work)
    except CheckFailed as exc:
        correct, error = False, str(exc)
        metrics, records = {}, exc.records
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    return emit(workload, args, correct, error, metrics, records)


def emit(workload: Workload, args: argparse.Namespace, correct: bool, error: str, metrics: dict, records: List[Record]) -> int:
    measured = [r for r in records if r.phase in ("open", "closed")]
    attempted = len(measured)
    failed = sum(1 for r in measured if not r.ok)
    if correct and failed:
        first = next(r for r in measured if not r.ok)
        correct, error = False, f"{failed} of {attempted} requests failed; the first: {first.kind}: {first.error}"
    print(f"workload {workload.name}: {workload.why}")
    print(f"open loop at {workload.rate:g} req/s, {workload.action_share:.0%} actions, seed {args.seed}")
    if not correct:
        print(f"CHECK FAILED: {error}")
    if metrics:
        metrics["failed_share"] = failed / attempted if attempted else 0.0
        if metrics.pop("over_capacity"):
            print("over capacity: the open-loop backlog grew over the final tenth of the run")
        for name, value in metrics.items():
            if name.endswith("_samples"):
                print(f"  {name}: {value}")
            elif value is None:
                print(f"  {name}: absent")
            else:
                print(f"  {name}: {value:.6g} {unit_of(name)}")
        if args.trace:
            print("split: " + split_check(workload, metrics))
        if workload.name == "orders-append":
            print(
                "durability: the server was SIGKILLed after its last acknowledged action and "
                "the reopened data directory held every acknowledged purchase; this checks "
                "process-crash durability only (the OS page cache survives a kill)"
            )
    names = benchmark_metrics(bool(args.trace))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit_of(name)}
            for name in names
            if metrics.get(name) is not None
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

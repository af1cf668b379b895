"""The system under test: `repro` CLI processes the ledger spawns,
waits on, measures through ``/proc`` and stops.

Every SUT process runs ``python -m repro`` from the checkout's own
``src`` tree and announces its address through ``--port-file``.  All
files the SUT writes (port files, logs, the ticket journal) live in a
run directory inside the checkout, removed when the run ends.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
RUN_ROOT = ROOT / ".ledger-run"

#: Seconds a SUT process gets to publish its address or fill its pool.
READY_TIMEOUT_S = 60.0

#: OT pool depth per material kind of ``repro serve`` (its default).
POOL_DEPTH = 256

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class SutError(RuntimeError):
    """A SUT process died or never became ready."""


def make_run_dir() -> Path:
    RUN_ROOT.mkdir(exist_ok=True)
    path = RUN_ROOT / f"{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir()
    return path


def remove_run_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        RUN_ROOT.rmdir()  # only when no concurrent run still uses it
    except OSError:
        pass


def cpu_seconds(pid: int) -> float:
    """utime + stime of ``pid`` from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` in MB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise SutError(f"no VmHWM for pid {pid}")


class SutProcess:
    """One ``python -m repro ...`` process with a port file."""

    def __init__(self, name: str, args: List[str], run_dir: Path):
        self.name = name
        self.port_file = run_dir / f"{name}.port"
        self.log_path = run_dir / f"{name}.log"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *args,
                 "--port-file", str(self.port_file)],
                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
            )
        self.address: Optional[Tuple[str, int]] = None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def log_tail(self, lines: int = 15) -> str:
        try:
            text = self.log_path.read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])

    def wait_address(self, deadline: float) -> Tuple[str, int]:
        while not self.port_file.exists():
            if self.proc.poll() is not None:
                raise SutError(
                    f"{self.name} exited with {self.proc.returncode}:\n"
                    f"{self.log_tail()}"
                )
            if time.monotonic() > deadline:
                raise SutError(f"{self.name} published no address")
            time.sleep(0.01)
        host, _, port = self.port_file.read_text().strip().rpartition(":")
        self.address = (host, int(port))
        return self.address

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class Fleet:
    """The SUT of one workload: backends, optionally behind a gateway.

    ``front`` is where clients connect: the gateway when there is one,
    else the only backend.
    """

    def __init__(self, workload, run_dir: Path, telemetry: bool):
        self.workload = workload
        self.run_dir = run_dir
        self.telemetry = telemetry
        self.backends: List[SutProcess] = []
        self.gateway: Optional[SutProcess] = None

    @property
    def processes(self) -> List[SutProcess]:
        return self.backends + ([self.gateway] if self.gateway else [])

    @property
    def front(self) -> Tuple[str, int]:
        return (self.gateway or self.backends[0]).address

    def start(self) -> "Fleet":
        """Spawn every process and wait until each publishes an address
        and every backend's OT pool holds full depth."""
        w = self.workload
        deadline = time.monotonic() + READY_TIMEOUT_S
        for i in range(w.backends):
            # One attempt per session: see the workloads module.
            args = ["serve", "--listen", "127.0.0.1:0", "--sessions", "0",
                    "--group", w.group, "--max-attempts", "1"]
            if w.gateway:
                args.append("--replicate")
            if w.journal:
                args += ["--ticket-journal",
                         str(self.run_dir / f"journal-{i}.jsonl")]
            if self.telemetry:
                args.append("--telemetry")
            self.backends.append(SutProcess(f"backend-{i}", args,
                                            self.run_dir))
        for backend in self.backends:
            backend.wait_address(deadline)
        if w.gateway:
            args = ["cluster", "serve", "--listen", "127.0.0.1:0",
                    "--replication-interval", "0.5"]
            for backend in self.backends:
                args += ["--backend", "%s:%d" % backend.address]
            if self.telemetry:
                args.append("--telemetry")
            self.gateway = SutProcess("gateway", args, self.run_dir)
            self.gateway.wait_address(deadline)
        self.wait_pools_full()
        return self

    def wait_pools_full(self) -> None:
        """Wait until every backend's OT pool is back at full depth, so
        no refill burst runs into a timed window."""
        from repro.cluster import fetch_stats

        prefix = f'crypto.pool.depth{{group="{self.workload.group_id}",'
        deadline = time.monotonic() + READY_TIMEOUT_S
        for backend in self.backends:
            while True:
                gauges = fetch_stats(*backend.address)["snapshot"].get(
                    "gauges", {}
                )
                depths = [v for k, v in gauges.items()
                          if k.startswith(prefix)]
                if len(depths) == 2 and min(depths) >= POOL_DEPTH:
                    break
                if time.monotonic() > deadline:
                    raise SutError(f"{backend.name}: OT pool never filled")
                time.sleep(0.02)

    def cpu_seconds(self) -> float:
        return sum(cpu_seconds(p.pid) for p in self.processes)

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb(p.pid) for p in self.processes)

    def stats(self) -> List[dict]:
        """One stats document per process, backends first."""
        from repro.cluster import fetch_stats

        return [fetch_stats(*p.address) for p in self.processes]

    def close(self) -> None:
        for process in reversed(self.processes):
            process.stop()

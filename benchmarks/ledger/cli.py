"""Command line of the ledger (``python -m benchmarks.ledger``).

One workload, as the ``command`` of BENCHMARK.json runs it::

    python -m benchmarks.ledger --workload establish-modp --seed 1 \
        --seconds 25 --trace 0

prints every end-to-end metric (``--trace 0``) or every per-layer
metric (``--trace 1``) and ends with one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics``.

All workloads::

    python -m benchmarks.ledger run [--seed N] [--repeat N]
    python -m benchmarks.ledger trace [--seed N]
    python -m benchmarks.ledger run --smoke
    python -m benchmarks.ledger pin

``run`` and ``trace`` end with the ledger document (machine
fingerprint, git revision, per-workload results) as one JSON line;
``--repeat N`` runs every workload on N seeds and, for N >= 5, records
each metric's median, quartiles and bound in ``bounds.json``.  ``pin``
re-derives the verdict pins of the default seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from benchmarks.ledger import replay as replaylib
from benchmarks.ledger.metrics import (
    END_TO_END,
    PER_LAYER,
    end_to_end,
    stats_layers,
    tail_supported,
    trace_layers,
)
from benchmarks.ledger.stats import spread
from benchmarks.ledger.sut import ROOT, Fleet, make_run_dir, remove_run_dir
from benchmarks.ledger.workloads import (
    SETUPS,
    WORKLOADS,
    Gate,
    LoadGenerator,
    Tally,
    replay_seeds,
    run_pass,
    session_seed,
)

HERE = Path(__file__).resolve().parent
PINS_PATH = HERE / "pins.json"
BOUNDS_PATH = HERE / "bounds.json"

DEFAULT_SEED = 1
DEFAULT_SECONDS = 25.0

#: Seeds the layer replay runs on.
REPLAY_SEEDS = 3

#: Sessions ``pin`` records verdicts for.
PIN_SESSIONS = 1000

#: ``run --smoke``: per-workload window and pre-grant cap.
SMOKE_SECONDS = 2.0
SMOKE_PREGRANT = 4

#: Bounds recorded by ``--repeat``: at least this share of the median.
MIN_BOUND = 0.10

#: Interpreter switch interval of the load-generator process.
LOAD_SWITCH_INTERVAL_S = 0.0005


def load_pins(seed: int) -> Optional[str]:
    """The pinned verdict letters of ``seed``, or None if unpinned."""
    pins = json.loads(PINS_PATH.read_text())
    return pins["verdicts"] if pins["seed"] == seed else None


def measure(workload, seed: int, seconds: float, traced: bool,
            smoke: bool = False) -> dict:
    """Run one workload and return its result document."""
    if smoke:
        workload = dataclasses.replace(
            workload, pregrant=min(workload.pregrant, SMOKE_PREGRANT)
        )
    gate = Gate(load_pins(seed))
    notes: List[str] = []
    if traced:
        untraced = run_pass(workload, seed, seconds / 2, gate)
        traced_pass = run_pass(workload, seed, seconds, gate, traced=True)
        values = {
            **replaylib.replay(replay_seeds(seed, REPLAY_SEEDS),
                               workload.group),
            **stats_layers(untraced),
            **trace_layers(traced_pass, untraced),
        }
        spec, passes = PER_LAYER, (untraced, traced_pass)
    else:
        measured = run_pass(workload, seed, seconds, gate,
                            setups=1 if smoke else SETUPS)
        values = end_to_end(workload, measured)
        spec, passes = END_TO_END, (measured,)
        if not tail_supported(workload, measured):
            notes.append(
                f"op_tail_ms is p{100 * workload.tail_q:g} of only "
                f"{measured.ops} ops: fewer than 10 beyond it"
            )
        if measured.establishes.timeouts:
            notes.append(
                f"{measured.establishes.timeouts} establishment tries "
                f"timed out and were made again"
            )
    tallies: List[Tally] = []
    for measured in passes:
        tallies.append(measured.window.tally)
        if measured.window.writes is not None:
            tallies.append(measured.window.writes)
    return {
        "workload": workload.name,
        "seed": seed,
        "correct": not gate.failures,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in spec
        },
        "failures": gate.failures,
        "errors": [e for t in tallies for e in t.errors],
        "verdicts": len(gate.verdicts),
        "verdict_digest": gate.digest(),
        "pinned": gate.pins is not None,
        "notes": notes,
    }


def print_result(result: dict, out=sys.stdout) -> None:
    print(f"== {result['workload']} (seed {result['seed']}): "
          f"{result['attempted']} ops attempted, {result['failed']} failed",
          file=out)
    for name, metric in result["metrics"].items():
        print(f"  {name:44s} {metric['value']:14.4f} {metric['unit']}",
              file=out)
    if result["pinned"]:
        print(f"  verdicts: {result['verdicts']} checked against the pins",
              file=out)
    else:
        print(f"  verdict digest: {result['verdict_digest']} "
              f"({result['verdicts']} verdicts, seed not pinned)", file=out)
    for line in result["notes"]:
        print(f"  note: {line}", file=out)
    for line in result["errors"]:
        print(f"  error: {line}", file=out)
    for line in result["failures"]:
        print(f"  CORRECTNESS FAILED {line}", file=out)
    out.flush()


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        revision = "unknown"
    return {
        "git_revision": revision,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "load_average": list(os.getloadavg()),
    }


def repeat_summary(results: List[dict]) -> Dict[str, Dict[str, dict]]:
    """Per workload and metric: median, quartiles, spread and the
    regression bound ``max(MIN_BOUND, spread)``."""
    by: Dict[str, Dict[str, List[float]]] = {}
    for result in results:
        for name, metric in result["metrics"].items():
            by.setdefault(result["workload"], {}).setdefault(
                name, []
            ).append(metric["value"])
    summary: Dict[str, Dict[str, dict]] = {}
    for workload, metrics in by.items():
        for name, values in metrics.items():
            entry = spread(values)
            entry["bound"] = max(MIN_BOUND, entry["spread"])
            entry["runs"] = len(values)
            summary.setdefault(workload, {})[name] = entry
    return summary


def pin(count: int) -> int:
    """Re-derive the default seed's verdicts, one session at a time."""
    workload = WORKLOADS["establish-modp"]
    run_dir = make_run_dir()
    fleet = Fleet(workload, run_dir, telemetry=False)
    letters = []
    try:
        fleet.start()
        gen = LoadGenerator(workload, fleet, Gate(None), DEFAULT_SEED)
        client = gen.client()
        for index in range(count):
            state = ""
            # A timeout is the machine's load, not the seed's verdict.
            while state not in ("established", "failed"):
                state = client.establish(
                    session_seed(DEFAULT_SEED, index)
                ).state
            letters.append(state[0].upper())
            if index % 50 == 49:
                print(f"pinned {index + 1}/{count}", flush=True)
    finally:
        fleet.close()
        remove_run_dir(run_dir)
    PINS_PATH.write_text(json.dumps({
        "seed": DEFAULT_SEED,
        "legend": "E = established, F = failed; index = session number",
        "verdicts": "".join(letters),
    }, indent=1) + "\n")
    print(f"wrote {count} verdicts to {PINS_PATH.name}")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger",
        description="WaveKey performance ledger",
    )
    parser.add_argument("mode", nargs="?", choices=("run", "trace", "pin"),
                        help="run/trace every workload, or re-pin verdicts "
                             "(omit to run one --workload)")
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="run each workload on this many seeds")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny counts: every workload in under a minute")
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    # A terminated run still unwinds, so every SUT process is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # With the default 5 ms, one load thread's client-side OT held the
    # other's resumes back by up to 5 ms per blocking call: the tail
    # measured the load generator, not the SUT.
    sys.setswitchinterval(LOAD_SWITCH_INTERVAL_S)
    if args.mode == "pin":
        return pin(PIN_SESSIONS)
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    if args.mode is None:
        if not args.workload or len(args.workload) != 1:
            parser.error("give one --workload, or a mode")
        result = measure(WORKLOADS[args.workload[0]], args.seed, seconds,
                         bool(args.trace), smoke=args.smoke)
        print_result(result)
        print(json.dumps({
            key: result[key]
            for key in ("correct", "attempted", "failed", "metrics")
        }))
        return 0 if result["correct"] else 1

    traced = args.mode == "trace"
    names = args.workload or list(WORKLOADS)
    results = []
    started = time.monotonic()
    for offset in range(args.repeat):
        for name in names:
            result = measure(WORKLOADS[name], args.seed + offset, seconds,
                             traced, smoke=args.smoke)
            print_result(result)
            results.append(result)
    document = {
        "schema": "wavekey-ledger/1",
        "mode": args.mode,
        "seed": args.seed,
        "seconds": seconds,
        "machine": machine(),
        "wall_s": time.monotonic() - started,
        "results": results,
    }
    if args.repeat > 1:
        document["repeat"] = repeat_summary(results)
        for workload, metrics in document["repeat"].items():
            for name, entry in metrics.items():
                print(f"  {workload:16s} {name:28s} median "
                      f"{entry['median']:12.4f} spread "
                      f"{100 * entry['spread']:6.2f}%")
    if args.repeat >= 5 and not traced:
        BOUNDS_PATH.write_text(json.dumps({
            "seed": args.seed, "repeat": args.repeat, "seconds": seconds,
            "machine": document["machine"], "bounds": document["repeat"],
        }, indent=1, sort_keys=True) + "\n")
        print(f"recorded bounds in {BOUNDS_PATH.name}")
    print(json.dumps(document))
    return 0 if all(r["correct"] for r in results) else 1

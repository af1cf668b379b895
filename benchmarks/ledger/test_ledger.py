"""Self-tests of the correctness gate, of BENCHMARK.json against the
harness, and a smoke run of every workload over real processes."""

import json
import subprocess
import sys
from types import SimpleNamespace

from benchmarks.ledger.cli import PINS_PATH
from benchmarks.ledger.metrics import END_TO_END, PER_LAYER
from benchmarks.ledger import workloads
from benchmarks.ledger.sut import ROOT
from benchmarks.ledger.workloads import (
    WORKLOADS,
    Gate,
    LoadGenerator,
    Tally,
    session_seed,
)

#: Wall-clock cap of one smoke run.
SMOKE_TIMEOUT_S = 120


def test_gate_names_the_op_whose_verdict_left_its_pin():
    gate = Gate(pins="EFE")
    gate.verdict(0, "established")
    gate.verdict(1, "failed")
    assert gate.failures == []
    gate.verdict(2, "failed")
    gate.verdict(3, "established")
    assert gate.failures == [
        "establish #2: verdict failed, pinned E",
        "establish #3: no pinned verdict (only 3 pinned)",
    ]


def test_unpinned_seed_reports_a_stable_digest():
    one, two = Gate(pins=None), Gate(pins=None)
    for index, state in ((2, "failed"), (1, "established")):
        one.verdict(index, state)
    for index, state in ((1, "established"), (2, "failed")):
        two.verdict(index, state)
    assert one.failures == [] and one.digest() == two.digest()
    two.verdict(3, "failed")
    assert one.digest() != two.digest()


class _ScriptedClient:
    """Answers ``establish`` with the given states, in order."""

    def __init__(self, states):
        self.states = list(states)
        self.seeds = []

    def establish(self, rng_seed):
        self.seeds.append(rng_seed)
        state = self.states.pop(0)
        return SimpleNamespace(
            state=state, success=state == "established",
            ticket="ticket" if state == "established" else None,
            failure_reason="deadline" if state == "timed_out" else None,
        )


def test_timed_out_try_is_made_again_with_the_same_seed():
    gen = LoadGenerator(WORKLOADS["establish-curve"], None, Gate("EE"), 1)
    client, tally = _ScriptedClient(["timed_out", "established"]), Tally()
    assert gen.establish(client, tally, index=1) == "ticket"
    assert client.seeds == [session_seed(1, 1)] * 2
    assert (tally.attempted, tally.failed, tally.timeouts) == (1, 0, 1)
    assert gen.gate.failures == []


def test_timed_out_tries_continue_past_a_fixed_count():
    gen = LoadGenerator(WORKLOADS["establish-curve"], None, Gate("EE"), 1)
    client = _ScriptedClient(["timed_out"] * 12 + ["established"])
    tally = Tally()
    assert gen.establish(client, tally, index=1) == "ticket"
    assert (tally.attempted, tally.failed, tally.timeouts) == (1, 0, 12)


def test_op_fails_when_every_try_in_its_budget_times_out(monkeypatch):
    monkeypatch.setattr(workloads, "ESTABLISH_BUDGET_S", 0.0)
    gen = LoadGenerator(WORKLOADS["establish-curve"], None, Gate("EE"), 1)
    client = _ScriptedClient(["timed_out"])
    tally = Tally()
    assert gen.establish(client, tally, index=1) is None
    assert (tally.attempted, tally.failed, tally.timeouts) == (1, 1, 1)
    assert "on every try" in tally.errors[0]


def test_pins_cover_the_default_seed():
    pins = json.loads(PINS_PATH.read_text())
    assert pins["seed"] == 1
    assert set(pins["verdicts"]) <= {"E", "F"}
    assert len(pins["verdicts"]) >= 500


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [
        name for name in WORKLOADS if name != "mixed-rw"
    ]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        PER_LAYER
    )
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def _ledger(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.ledger", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=SMOKE_TIMEOUT_S,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_runs_every_workload_through_the_gate():
    document = _ledger("run", "--smoke")
    assert [r["workload"] for r in document["results"]] == list(WORKLOADS)
    for result in document["results"]:
        assert result["correct"] and result["pinned"], result
        assert result["failed"] == 0, result["errors"]
        assert list(result["metrics"]) == [name for name, _ in END_TO_END]
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_reports_every_layer():
    result = _ledger("--workload", "resume-gateway", "--trace", "1",
                     "--smoke")
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert list(metrics) == [name for name, _ in PER_LAYER]
    assert metrics["trace.spans_dropped"]["value"] == 0
    assert metrics["span.gateway.cluster.splice_ms"]["value"] > 0
    assert metrics["cluster.hop_ms"]["value"] > 0

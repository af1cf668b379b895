"""Unit tests for the micro-batching inference scheduler."""

import threading
import time

import pytest

from repro.errors import ConfigurationError, ServiceError
from repro.obs import MetricsRegistry
from repro.service.batching import MicroBatcher


def double_all(items):
    return [item * 2 for item in items]


class TestLaunchPolicy:
    def test_full_batch_fires_without_waiting(self):
        metrics = MetricsRegistry()
        with MicroBatcher(
            "enc", double_all, max_batch_size=4, max_wait_s=30.0,
            metrics=metrics,
        ) as batcher:
            futures = [batcher.submit(i) for i in range(4)]
            results = [f.result(timeout=5.0) for f in futures]
        assert results == [0, 2, 4, 6]
        assert all(f.batch_size == 4 for f in futures)
        assert metrics.counter("enc.batches").value == 1
        assert metrics.counter("enc.items").value == 4

    def test_max_wait_flushes_partial_batch(self):
        with MicroBatcher(
            "enc", double_all, max_batch_size=100, max_wait_s=0.01
        ) as batcher:
            future = batcher.submit(21)
            assert future.result(timeout=5.0) == 42
            assert future.batch_size == 1

    def test_batch_size_one_is_per_request(self):
        metrics = MetricsRegistry()
        with MicroBatcher(
            "enc", double_all, max_batch_size=1, max_wait_s=30.0,
            metrics=metrics,
        ) as batcher:
            futures = [batcher.submit(i) for i in range(3)]
            for f in futures:
                f.result(timeout=5.0)
        assert all(f.batch_size == 1 for f in futures)
        assert metrics.counter("enc.batches").value == 3

    def test_coalesces_under_slow_batch_fn(self):
        gate = threading.Event()
        calls = []

        def gated(items):
            calls.append(len(items))
            gate.wait(5.0)
            return list(items)

        with MicroBatcher(
            "enc", gated, max_batch_size=8, max_wait_s=0.0
        ) as batcher:
            first = batcher.submit(0)
            # While the first (singleton) batch blocks in batch_fn, the
            # rest pile up and must launch together afterwards.
            while not calls:
                time.sleep(0.001)
            rest = [batcher.submit(i) for i in range(1, 5)]
            gate.set()
            first.result(timeout=5.0)
            for f in rest:
                f.result(timeout=5.0)
        assert calls[0] == 1
        assert all(f.batch_size == 4 for f in rest)

    def test_future_records_wait_and_compute(self):
        with MicroBatcher(
            "enc", double_all, max_batch_size=1, max_wait_s=0.0
        ) as batcher:
            future = batcher.submit(1)
            future.result(timeout=5.0)
        assert future.queue_wait_s >= 0.0
        assert future.compute_s >= 0.0


class TestFailurePaths:
    def test_batch_fn_exception_reaches_every_future(self):
        def boom(items):
            raise ValueError("model exploded")

        with MicroBatcher(
            "enc", boom, max_batch_size=2, max_wait_s=30.0
        ) as batcher:
            futures = [batcher.submit(i) for i in range(2)]
            for f in futures:
                with pytest.raises(ValueError, match="model exploded"):
                    f.result(timeout=5.0)

    def test_length_mismatch_is_a_service_error(self):
        with MicroBatcher(
            "enc", lambda items: [1], max_batch_size=2, max_wait_s=30.0
        ) as batcher:
            futures = [batcher.submit(i) for i in range(2)]
            for f in futures:
                with pytest.raises(ServiceError, match="returned 1 results"):
                    f.result(timeout=5.0)

    def test_result_timeout(self):
        gate = threading.Event()

        def gated(items):
            gate.wait(5.0)
            return list(items)

        with MicroBatcher(
            "enc", gated, max_batch_size=1, max_wait_s=0.0
        ) as batcher:
            future = batcher.submit(1)
            with pytest.raises(ServiceError, match="not ready"):
                future.result(timeout=0.01)
            gate.set()
            assert future.result(timeout=5.0) == 1


class TestLifecycle:
    def test_submit_before_start_raises(self):
        batcher = MicroBatcher("enc", double_all)
        with pytest.raises(ServiceError, match="not running"):
            batcher.submit(1)

    def test_double_start_raises(self):
        batcher = MicroBatcher("enc", double_all).start()
        try:
            with pytest.raises(ServiceError, match="already started"):
                batcher.start()
        finally:
            batcher.stop()

    def test_stop_drains_pending_work(self):
        with MicroBatcher(
            "enc", double_all, max_batch_size=100, max_wait_s=30.0
        ) as batcher:
            future = batcher.submit(5)
        # Exiting the context stops the batcher; the pending item must
        # still have been served (graceful drain), not dropped.
        assert future.result(timeout=5.0) == 10

    def test_stop_is_idempotent(self):
        batcher = MicroBatcher("enc", double_all).start()
        batcher.stop()
        batcher.stop()

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            MicroBatcher("enc", double_all, max_batch_size=0)
        with pytest.raises(ConfigurationError):
            MicroBatcher("enc", double_all, max_wait_s=-1.0)

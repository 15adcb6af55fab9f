"""Tests for repro.runtime.helper (the fleet path's helper thread)."""

import threading
import time

import pytest

from repro.obs.metrics import MetricsRegistry, counter, use_registry
from repro.runtime import helper as helper_module
from repro.runtime import pool as pool_module
from repro.runtime.helper import HELPER_THREAD_NAME, shared_map
from repro.runtime.timings import (
    SweepTimings,
    active_timings,
    collect_timings,
    stage,
    use_timings,
)


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(helper_module, "usable_cpus", lambda: 2)


def _slow_square(value):
    time.sleep(0.01)  # releases the GIL, so the helper takes a share
    return value * value, threading.current_thread().name


class TestSharedMap:
    def test_results_in_input_order_on_both_threads(self, two_cpus):
        out = shared_map(_slow_square, range(12))
        assert [value for value, _ in out] == [v * v for v in range(12)]
        assert {name for _, name in out} == {
            threading.current_thread().name, HELPER_THREAD_NAME}

    def test_first_failure_in_input_order_propagates(self, two_cpus):
        ran = []

        def fn(value):
            time.sleep(0.005)
            ran.append(value)
            if value in (3, 7):
                raise ValueError(value)
            return value

        with pytest.raises(ValueError, match="3"):
            shared_map(fn, range(10))
        assert sorted(ran) == list(range(10))
        # The helper survives a failing item and serves the next map.
        assert [v for v, _ in shared_map(_slow_square, [1, 2, 3])] \
            == [1, 4, 9]

    def test_serial_on_one_cpu(self, monkeypatch):
        monkeypatch.setattr(helper_module, "usable_cpus", lambda: 1)
        out = shared_map(_slow_square, range(4))
        assert {name for _, name in out} == {
            threading.current_thread().name}

    def test_serial_in_pool_workers(self, two_cpus, monkeypatch):
        monkeypatch.setattr(pool_module, "_IN_POOL_WORKER", True)
        assert not helper_module.helper_available()
        out = shared_map(_slow_square, range(4))
        assert {name for _, name in out} == {
            threading.current_thread().name}

    def test_nested_map_on_the_helper_runs_serially(self, two_cpus):
        def outer(value):
            inner = shared_map(_slow_square, [value, value + 1])
            return [v for v, _ in inner]

        assert shared_map(outer, range(6)) == [[v * v, (v + 1) ** 2]
                                               for v in range(6)]

    def test_one_helper_thread(self, two_cpus):
        for _ in range(3):
            shared_map(_slow_square, range(4))
        names = [t.name for t in threading.enumerate()]
        assert names.count(HELPER_THREAD_NAME) == 1


def _counted(value):
    time.sleep(0.005)
    counter("test/items").inc()
    with stage(active_timings(), "test_stage"):
        pass
    return value


class TestSharedMapTelemetry:
    def test_registry_receives_every_item_once(self, two_cpus):
        registry = MetricsRegistry()
        with use_registry(registry):
            shared_map(_counted, range(20))
        assert registry.counter("test/items").value == 20

    def test_timings_receive_every_item_once(self, two_cpus):
        timings = SweepTimings()
        with use_timings(timings):
            shared_map(_counted, range(20))
        assert timings.registry.counter("test/items").value == 20
        assert timings.stage_count("test_stage") == 20

    def test_ambient_timings_without_a_registry(self, two_cpus):
        """Stage seconds still arrive; counters stay off as in a serial
        map (collect_timings installs no registry)."""
        with collect_timings() as timings:
            shared_map(_counted, range(20))
        assert timings.stage_count("test_stage") == 20
        assert "test/items" not in timings.registry.counters

    def test_separate_registry_and_timings(self, two_cpus):
        timings, registry = SweepTimings(), MetricsRegistry()
        with use_timings(timings), use_registry(registry):
            shared_map(_counted, range(20))
        assert registry.counter("test/items").value == 20
        assert timings.stage_count("test_stage") == 20
        assert "test/items" not in timings.registry.counters

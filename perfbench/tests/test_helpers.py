"""Tests for the benchmark's own helpers.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import os
import re
import sys
import threading
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

from spans import SpanRecorder, layer_totals, self_ns  # noqa: E402
from speed import CALIBRATION_S, WINDOW, reference_seconds, setup_seconds  # noqa: E402
from summary import END_TO_END, per_layer_units, tail  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def ticking_clock(step=10):
    """A clock that advances ``step`` ns per reading."""
    now = [0]

    def clock():
        now[0] += step
        return now[0]

    return clock


# -------------------------------------------------------------- tail rule --


def test_tail_needs_ten_samples_beyond():
    assert tail(list(range(10))) is None
    percentile, value = tail(list(range(11)))
    assert value == 0
    assert percentile == pytest.approx(100.0 / 11)


def test_tail_is_highest_rank_with_ten_beyond():
    samples = [float(v) for v in range(100, 0, -1)]  # unsorted input
    percentile, value = tail(samples)
    assert value == 90.0
    assert sum(1 for s in samples if s > value) == 10
    assert percentile == 90.0


def test_tail_counts_ties_as_beyond():
    samples = [1.0] * 5 + [2.0] * 20
    percentile, value = tail(samples)
    assert value == 2.0
    assert percentile == pytest.approx(100.0 * 15 / 25)


# ------------------------------------------------------------ host speed --


def test_reference_seconds_divide_by_the_nearby_calibrations():
    assert WINDOW == 2
    slow = 2 * CALIBRATION_S
    scaled = reference_seconds([1.0, 1.0, 1.0], [slow, slow, slow])
    assert scaled == pytest.approx([0.5, 0.5, 0.5])


def test_calibrations_alternating_between_two_speeds_average():
    calibrations = [CALIBRATION_S, 3 * CALIBRATION_S] * 4
    scaled = reference_seconds([1.0] * 8, calibrations)
    # Window of five at index 2: fast, slow, fast, slow, fast.
    assert scaled[2] == pytest.approx(5 / 9)
    assert scaled[3] == pytest.approx(5 / 11)


def test_reference_seconds_follow_a_change_of_host_speed():
    calibrations = [CALIBRATION_S] * 5 + [2 * CALIBRATION_S] * 5
    scaled = reference_seconds([1.0] * 5 + [2.0] * 5, calibrations)
    assert scaled[:2] == pytest.approx([1.0, 1.0])
    assert scaled[-2:] == pytest.approx([1.0, 1.0])


def test_setup_takes_the_speed_of_the_first_operations():
    calibrations = [2 * CALIBRATION_S] * (2 * WINDOW + 1) + [100 * CALIBRATION_S]
    assert setup_seconds(1.0, calibrations) == pytest.approx(0.5)
    assert setup_seconds(1.0, [4 * CALIBRATION_S]) == pytest.approx(0.25)


def test_reference_seconds_need_one_calibration_per_operation():
    with pytest.raises(ValueError):
        reference_seconds([1.0, 2.0], [CALIBRATION_S])


# -------------------------------------------------------------- self time --


def test_self_time_subtracts_direct_children_only():
    recorder = SpanRecorder(clock=ticking_clock())

    def leaf():
        return "leaf"

    traced_leaf = recorder.wrap("leaf", leaf)

    def middle():
        traced_leaf()
        return traced_leaf()

    traced_middle = recorder.wrap("middle", middle)

    def outer():
        traced_middle()
        traced_leaf()

    recorder.wrap("outer", outer)()
    totals = recorder.layer_totals()
    # Each span reads the clock at entry and exit (10 ns per reading):
    # a leaf spans 10 ns; middle covers its two leaves (4 readings) plus
    # its own two, spanning 50 ns; outer spans 5 + 2 + 2 readings = 90 ns.
    assert totals["leaf"] == (3, 30, 30)
    assert totals["middle"] == (1, 50, 30)
    assert totals["outer"] == (1, 90, 30)


def test_self_ns_on_hand_built_spans():
    import numpy as np

    spans = {
        "name": np.array([0, 1, 2, 1], dtype=np.uint16),
        "parent": np.array([-1, 0, 1, 0], dtype=np.int64),
        "start_ns": np.array([0, 10, 20, 60], dtype=np.int64),
        "end_ns": np.array([100, 50, 30, 90], dtype=np.int64),
    }
    assert list(self_ns(spans)) == [30, 30, 10, 30]
    totals = layer_totals(spans, ["a", "b", "c"])
    assert totals == {"a": (1, 100, 30), "b": (2, 70, 60), "c": (1, 10, 10)}


def test_spans_on_other_threads_have_their_own_parents():
    recorder = SpanRecorder()
    traced = recorder.wrap("work", lambda: None)

    def in_thread():
        traced()

    with recorder.span("outer"):
        worker = threading.Thread(target=in_thread)
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    spans = recorder.spans()
    work = recorder.names.index("work")
    (index,) = [i for i, n in enumerate(spans["name"]) if n == work]
    assert spans["parent"][index] == -1


def test_exception_still_closes_the_span():
    recorder = SpanRecorder(clock=ticking_clock())

    def boom():
        raise KeyError("x")

    traced = recorder.wrap("boom", boom)
    with pytest.raises(KeyError):
        traced()
    recorder.wrap("after", lambda: None)()
    spans = recorder.spans()
    assert list(spans["parent"]) == [-1, -1]
    assert recorder.layer_totals()["boom"] == (1, 10, 10)


def test_on_result_sees_return_values():
    seen = []
    recorder = SpanRecorder()
    assert recorder.wrap("f", lambda x: x * 2, on_result=seen.append)(4) == 8
    assert seen == [8]


# ------------------------------------------------------------ installation --


def test_restore_puts_back_the_original_objects():
    class Layer:
        def method(self):
            return "method"

    module = types.ModuleType("fake_layer")

    def function():
        return "function"

    module.function = function
    original_method = Layer.__dict__["method"]
    recorder = SpanRecorder()
    recorder.install("layer.method", Layer, "method")
    recorder.install("layer.function", module, "function")
    assert Layer.__dict__["method"] is not original_method
    assert module.function is not function
    assert Layer().method() == "method"
    assert module.function() == "function"
    recorder.restore()
    assert Layer.__dict__["method"] is original_method
    assert module.function is function
    totals = recorder.layer_totals()
    assert totals["layer.method"][0] == 1
    assert totals["layer.function"][0] == 1


def test_restore_after_stacked_installs_of_one_attribute():
    class Layer:
        def method(self):
            return 1

    original = Layer.__dict__["method"]
    recorder = SpanRecorder()
    recorder.install("a", Layer, "method")
    recorder.install("b", Layer, "method")
    recorder.restore()
    assert Layer.__dict__["method"] is original


def test_every_traced_layer_resolves_in_the_simulator():
    sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
    from rep import resolve
    from summary import LAYERS, POOL_WORK

    for name, (module, path) in {**LAYERS, **POOL_WORK}.items():
        owner, attribute = resolve(module, path)
        assert callable(owner.__dict__[attribute]), name


# ------------------------------------------------------------ metric names --


def benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_end_to_end_names_match_benchmark_json():
    spec = benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END


def test_per_layer_names_match_benchmark_json():
    spec = benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()


def test_names_and_units_use_the_allowed_alphabet():
    spec = benchmark_json()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
    assert len(spec["per_layer"]) <= 128
    assert 1 <= len(spec["end_to_end"]) <= 16

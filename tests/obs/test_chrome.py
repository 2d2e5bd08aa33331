"""Chrome trace-event export: spec shape, worker lanes, counters."""

import io
import json

import pytest

from repro import obs


def _four_worker_trace():
    """A parent trace with four grafted worker lanes, as the engine
    builds for a ``--workers 4`` run."""
    parent = obs.Trace()
    parent.epoch_wall = 100.0
    with obs.tracing(parent):
        with obs.span("experiment", machine="2gp"):
            for lane in range(4):
                worker = obs.Trace()
                worker.epoch_wall = 100.0 + 0.01 * lane
                root = obs.SpanNode("chunk", {"n": 2}, 0.001)
                root.duration = 0.02
                loop_node = obs.SpanNode("loop", {"i": 0}, 0.002)
                loop_node.duration = 0.01
                loop_node.counters["sched.placements"] = 4
                root.children.append(loop_node)
                worker.roots.append(root)
                worker.counters["sched.placements"] = 4
                parent.graft(
                    worker, lane=lane, pid=5000 + lane,
                    queue_wait_s=0.001,
                )
    return parent


@pytest.fixture
def document(tmp_path):
    trace = _four_worker_trace()
    path = tmp_path / "trace.chrome.json"
    n_events = obs.write_chrome_trace(trace, str(path))
    doc = json.loads(path.read_text())
    return trace, doc, n_events


class TestEnvelope:
    def test_object_form_envelope(self, document):
        trace, doc, n_events = document
        assert set(doc) == {
            "traceEvents", "displayTimeUnit", "otherData"
        }
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["trace_id"] == trace.trace_id
        assert len(doc["traceEvents"]) == n_events

    def test_every_event_is_spec_shaped(self, document):
        _, doc, _ = document
        for event in doc["traceEvents"]:
            assert event["ph"] in ("X", "C", "M")
            assert "name" in event
            assert event["pid"] == 1
            if event["ph"] == "X":
                assert event["ts"] >= 0
                assert event["dur"] >= 0
                assert isinstance(event["tid"], int)

    def test_writes_to_open_file_too(self):
        buffer = io.StringIO()
        obs.write_chrome_trace(_four_worker_trace(), buffer)
        assert json.loads(buffer.getvalue())["traceEvents"]


class TestWorkerLanes:
    def test_one_tid_lane_per_worker(self, document):
        _, doc, _ = document
        x_tids = {
            event["tid"] for event in doc["traceEvents"]
            if event["ph"] == "X"
        }
        # main on tid 0, four workers on tids 1..4
        assert x_tids == {0, 1, 2, 3, 4}

    def test_worker_subtree_inherits_its_lane(self, document):
        _, doc, _ = document
        for event in doc["traceEvents"]:
            if event["ph"] == "X" and event["name"] in ("chunk", "loop"):
                assert event["tid"] != 0

    def test_thread_metadata_labels_lanes(self, document):
        _, doc, _ = document
        names = {
            event["tid"]: event["args"]["name"]
            for event in doc["traceEvents"]
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        assert names[0] == "main"
        assert names[1] == "worker-0"
        assert names[4] == "worker-3"
        sort_indexes = [
            event for event in doc["traceEvents"]
            if event["name"] == "thread_sort_index"
        ]
        assert len(sort_indexes) == 5

    def test_host_span_args_carry_lane_and_pid(self, document):
        _, doc, _ = document
        workers = [
            event for event in doc["traceEvents"]
            if event["ph"] == "X" and event["name"] == "worker"
        ]
        assert len(workers) == 4
        assert sorted(event["args"]["lane"] for event in workers) == \
            [0, 1, 2, 3]
        assert all("pid" in event["args"] for event in workers)


class TestCountersAndCpu:
    def test_counter_events_are_cumulative(self, document):
        _, doc, _ = document
        samples = [
            event for event in doc["traceEvents"]
            if event["ph"] == "C"
            and event["name"] == "sched.placements"
        ]
        values = [event["args"]["value"] for event in samples]
        assert values == [4, 8, 12, 16]
        timestamps = [event["ts"] for event in samples]
        assert timestamps == sorted(timestamps)

    def test_span_counters_become_args(self, document):
        _, doc, _ = document
        loop_events = [
            event for event in doc["traceEvents"]
            if event["ph"] == "X" and event["name"] == "loop"
        ]
        assert all(
            event["args"]["counter.sched.placements"] == 4
            for event in loop_events
        )

    def test_microsecond_units(self):
        trace = obs.Trace()
        node = obs.SpanNode("s", {}, 0.5)
        node.duration = 0.25
        trace.roots.append(node)
        events = obs.chrome_trace_events(trace)
        span_event = [e for e in events if e["ph"] == "X"][0]
        assert span_event["ts"] == pytest.approx(500_000.0)
        assert span_event["dur"] == pytest.approx(250_000.0)

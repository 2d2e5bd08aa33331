"""Trace sinks: JSONL round-trip, metrics dict, rendering."""

import io
import json

import pytest

from repro import obs


@pytest.fixture
def sample_trace():
    with obs.tracing() as trace:
        with obs.span("compile", loop="intro", machine="2gp"):
            with obs.span("attempt", ii=4) as sp:
                with obs.span("assign", ii=4):
                    obs.count("assign.placements", 6)
                    obs.count("assign.evictions", 2)
                sp.note(outcome="assign_failed")
            with obs.span("attempt", ii=5):
                with obs.span("assign", ii=5):
                    obs.count("assign.placements", 6)
                with obs.span("schedule", ii=5):
                    obs.count("sched.slot_probes", 9)
        obs.count("outside", 3)
    return trace


class TestJsonlRoundTrip:
    def test_every_line_is_valid_json(self, sample_trace, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        n_events = obs.write_jsonl(sample_trace, path)
        lines = [
            line for line in
            open(path).read().splitlines() if line
        ]
        assert len(lines) == n_events + 1  # events + header
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["ev"] == "trace"
        assert parsed[0]["version"] == 2
        assert parsed[0]["trace_id"] == sample_trace.trace_id
        assert parsed[0]["epoch_wall"] == pytest.approx(
            sample_trace.epoch_wall, abs=1e-5
        )
        assert all("ev" in event for event in parsed)

    def test_read_inverts_write(self, sample_trace, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        obs.write_jsonl(sample_trace, path)
        assert obs.read_jsonl(path) == obs.trace_events(sample_trace)

    def test_round_trip_rebuilds_equivalent_trace(self, sample_trace):
        buffer = io.StringIO()
        obs.write_jsonl(sample_trace, buffer)
        buffer.seek(0)
        rebuilt = obs.trace_from_events(obs.read_jsonl(buffer))
        assert rebuilt.counters == sample_trace.counters
        original = list(sample_trace.walk())
        recovered = list(rebuilt.walk())
        assert [node.name for node in recovered] == \
            [node.name for node in original]
        assert [node.attrs for node in recovered] == \
            [node.attrs for node in original]
        assert [node.counters for node in recovered] == \
            [node.counters for node in original]
        for before, after in zip(original, recovered):
            assert after.duration == pytest.approx(
                before.duration, abs=1e-9
            )

    def test_begin_end_events_balance(self, sample_trace):
        events = obs.trace_events(sample_trace)
        begins = sum(1 for e in events if e["ev"] == "begin")
        ends = sum(1 for e in events if e["ev"] == "end")
        assert begins == ends == len(list(sample_trace.walk()))

    def test_orphan_counters_survive(self, sample_trace):
        events = obs.trace_events(sample_trace)
        trailer = [e for e in events if e["ev"] == "counters"]
        assert trailer == [{"ev": "counters", "counters": {"outside": 3}}]
        rebuilt = obs.trace_from_events(events)
        assert rebuilt.counter("outside") == 3

    def test_unbalanced_events_rejected(self):
        with pytest.raises(ValueError):
            obs.trace_from_events([{"ev": "end", "span": "x"}])
        with pytest.raises(ValueError):
            obs.trace_from_events([
                {"ev": "begin", "span": "x", "t": 0.0},
            ])
        with pytest.raises(ValueError):
            obs.trace_from_events([
                {"ev": "begin", "span": "x", "t": 0.0},
                {"ev": "end", "span": "y", "dur": 0.0},
            ])

    def test_unknown_event_kind_rejected(self):
        with pytest.raises(ValueError):
            obs.trace_from_events([{"ev": "bogus"}])

    def test_version_mismatch_rejected(self):
        source = io.StringIO('{"ev": "trace", "version": 99}\n')
        with pytest.raises(ValueError):
            obs.read_jsonl(source)

    def test_profiled_version_2_log_still_reads(self):
        # Version-2 logs written with the old profiler attached carry
        # "cpu" and "prof" on their end events; readers ignore both.
        source = io.StringIO("\n".join([
            '{"ev": "trace", "version": 2, "trace_id": "5953dc12db8349eb",'
            ' "epoch_wall": 1792212679.531893}',
            '{"ev": "begin", "span": "compile", "t": 0.002109032,'
            ' "depth": 0, "attrs": {"loop": "intro", "ii": 5}}',
            '{"ev": "begin", "span": "assign", "t": 0.002413354,'
            ' "depth": 1, "attrs": {"ii": 5, "succeeded": true}}',
            '{"ev": "end", "span": "assign", "dur": 0.00784233,'
            ' "depth": 1, "counters": {"assign.placements": 4,'
            ' "copies.replans": 18}, "cpu": 0.007841085, "prof":'
            ' {"~:builtins.len": [52, 9.3556e-05],'
            ' "ddg/graph.py:215:__len__": [5, 1.9872e-05]}}',
            '{"ev": "end", "span": "compile", "dur": 0.0125, "depth": 0,'
            ' "cpu": 0.0124, "prof": {"~:builtins.max": [3, 2.5e-05]}}',
            '{"ev": "counters", "counters": {"outside": 3}}',
        ]) + "\n")
        trace = obs.read_trace(source)
        assert trace.trace_id == "5953dc12db8349eb"
        assert trace.epoch_wall == 1792212679.531893
        compile_span, assign_span = trace.walk()
        assert compile_span.name == "compile"
        assert compile_span.attrs == {"loop": "intro", "ii": 5}
        assert compile_span.duration == 0.0125
        assert assign_span.attrs == {"ii": 5, "succeeded": True}
        assert assign_span.started == 0.002413354
        assert assign_span.duration == 0.00784233
        assert assign_span.counters == {
            "assign.placements": 4, "copies.replans": 18,
        }
        assert trace.counters == {
            "assign.placements": 4, "copies.replans": 18, "outside": 3,
        }
        assert not hasattr(assign_span, "cpu")
        assert not hasattr(assign_span, "prof")
        assert obs.trace_events(trace)[2] == {
            "ev": "end", "span": "assign", "dur": 0.00784233, "depth": 1,
            "counters": {"assign.placements": 4, "copies.replans": 18},
        }


class TestMetricsDict:
    def test_shape(self, sample_trace):
        metrics = obs.metrics_dict(sample_trace)
        assert set(metrics) == {"counters", "phases"}
        assert metrics["counters"]["assign.placements"] == 12
        assert metrics["counters"]["outside"] == 3
        assign = metrics["phases"]["assign"]
        assert assign["count"] == 2
        assert assign["total_s"] >= assign["max_s"] >= assign["min_s"] > 0
        assert assign["mean_s"] == pytest.approx(
            assign["total_s"] / 2, rel=1e-3
        )

    def test_json_serializable(self, sample_trace):
        document = json.dumps(obs.metrics_dict(sample_trace))
        assert json.loads(document)["counters"]["sched.slot_probes"] == 9


class TestRendering:
    def test_tree_shows_names_attrs_counters(self, sample_trace):
        tree = obs.format_trace_tree(sample_trace)
        assert "compile" in tree
        assert "loop=intro" in tree
        assert "ii=5" in tree
        assert "assign.placements=6" in tree
        assert "└─" in tree

    def test_empty_trace_renders(self):
        assert obs.format_trace_tree(obs.Trace()) == "(empty trace)"
        assert obs.format_counters(obs.Trace()) == "(no counters)"
        assert obs.format_phase_table(obs.Trace()) == "(no phases)"

    def test_counters_block(self, sample_trace):
        block = obs.format_counters(sample_trace)
        assert "assign.placements" in block
        assert "= 12" in block

    def test_phase_table_lists_each_name_once(self, sample_trace):
        table = obs.format_phase_table(sample_trace)
        lines = [line for line in table.splitlines()
                 if line.strip().startswith("assign ")]
        assert len(lines) == 1

    def test_deep_trees_elide_children(self):
        with obs.tracing() as trace:
            with obs.span("experiment"):
                for index in range(60):
                    with obs.span("loop", n=index):
                        pass
        tree = obs.format_trace_tree(trace)
        assert "elided" in tree
        assert tree.count("loop") < 60

    def test_full_report_composes(self, sample_trace):
        report = obs.format_trace_report(sample_trace)
        for section in ("trace:", "phase profile:", "counters:"):
            assert section in report

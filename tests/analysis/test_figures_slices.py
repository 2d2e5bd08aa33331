"""Population slices."""

import pytest

from repro.analysis import (
    ExperimentResult,
    LoopOutcome,
    by_recurrence,
    by_size,
    slice_result,
)
from repro.workloads import build_kernel, paper_suite


def _result(label, deviations):
    result = ExperimentResult(
        label=label, machine_name="m", config_name="c"
    )
    for index, deviation in enumerate(deviations):
        result.outcomes.append(
            LoopOutcome(
                loop_name=f"loop{index}",
                unified_ii=3,
                clustered_ii=3 + deviation,
                copies=0,
            )
        )
    return result


class TestSlices:
    def test_slice_by_recurrence(self):
        loops = paper_suite(30)
        result = ExperimentResult(label="t", machine_name="m",
                                  config_name="c")
        for loop in loops:
            result.outcomes.append(LoopOutcome(
                loop_name=loop.name, unified_ii=2, clustered_ii=2, copies=0,
            ))
        sliced = slice_result(result, loops, by_recurrence)
        total = sum(sliced.size(label) for label in sliced.slices)
        assert total == 30
        assert sliced.match_percentage("with recurrences") == 100.0

    def test_classifiers(self):
        assert by_recurrence(build_kernel("lk5_tridiag")) == (
            "with recurrences"
        )
        assert by_recurrence(build_kernel("lk1_hydro")) == (
            "streaming only"
        )
        assert by_size(build_kernel("lk11_first_sum")) == "small (<=8 ops)"
        assert by_size(build_kernel("butterfly_fft")) == "medium (9-24 ops)"

    def test_unknown_loop_rejected(self):
        result = _result("A", [0])
        with pytest.raises(KeyError):
            slice_result(result, [], by_recurrence)

    def test_format_table(self):
        loops = paper_suite(10)
        result = ExperimentResult(label="t", machine_name="m",
                                  config_name="c")
        for loop in loops:
            result.outcomes.append(LoopOutcome(
                loop_name=loop.name, unified_ii=1, clustered_ii=1, copies=0,
            ))
        text = slice_result(result, loops, by_size).format_table()
        assert "loops" in text
        assert "match" in text

    def test_empty_slice_percentage(self):
        sliced = slice_result(
            _result("A", []), [], by_recurrence
        )
        assert sliced.match_percentage("nope") == 0.0

"""Algorithm variant configurations."""

from dataclasses import replace

import pytest

from repro.core import (
    ALL_VARIANTS,
    HEURISTIC,
    HEURISTIC_ITERATIVE,
    NO_BROADCAST_SHARING,
    NO_PREDICTION,
    SIMPLE,
    SIMPLE_ITERATIVE,
)


class TestVariantDefinitions:
    def test_four_paper_variants(self):
        assert len(ALL_VARIANTS) == 4
        names = {config.name for config in ALL_VARIANTS}
        assert names == {
            "Simple", "Heuristic", "Simple Iterative", "Heuristic Iterative",
        }

    def test_simple_disables_heuristic_and_iteration(self):
        assert not SIMPLE.use_heuristic
        assert not SIMPLE.iterative

    def test_heuristic_iterative_enables_both(self):
        assert HEURISTIC_ITERATIVE.use_heuristic
        assert HEURISTIC_ITERATIVE.iterative

    def test_mixed_variants(self):
        assert HEURISTIC.use_heuristic and not HEURISTIC.iterative
        assert not SIMPLE_ITERATIVE.use_heuristic
        assert SIMPLE_ITERATIVE.iterative

    def test_ablations_start_from_full_algorithm(self):
        assert NO_PREDICTION.use_heuristic and NO_PREDICTION.iterative
        assert not NO_PREDICTION.predict_copies
        assert not NO_BROADCAST_SHARING.share_broadcast

    def test_with_budget(self):
        custom = replace(HEURISTIC_ITERATIVE, budget_ratio=3)
        assert custom.budget_ratio == 3
        assert custom.name == HEURISTIC_ITERATIVE.name
        assert HEURISTIC_ITERATIVE.budget_ratio == 6  # original intact

    def test_configs_frozen(self):
        with pytest.raises(AttributeError):
            SIMPLE.iterative = True

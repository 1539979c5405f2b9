"""Tests for FNR and relative-error metrics (paper Section 5)."""

import math

import numpy as np
import pytest

from repro.baselines.nonprivate import exact_top_k
from repro.core.result import NoisyItemset, PrivateFIMResult
from repro.datasets.transactions import TransactionDatabase
from repro.errors import ValidationError
from repro.fim.topk import top_k_itemsets
from repro.metrics.utility import (
    evaluate_release,
    false_negative_rate,
    relative_error,
)


def make_release(entries, k, method="test"):
    itemsets = [
        NoisyItemset(
            itemset=itemset,
            noisy_count=frequency * 100,
            noisy_frequency=frequency,
            count_variance=1.0,
        )
        for itemset, frequency in entries
    ]
    return PrivateFIMResult(itemsets=itemsets, k=k, epsilon=1.0,
                            method=method)


class TestFNR:
    def test_perfect_release(self):
        truth = [(1,), (2,), (1, 2)]
        assert false_negative_rate(truth, truth, 3) == 0.0

    def test_total_miss(self):
        assert false_negative_rate([(1,)], [(9,)], 1) == 1.0

    def test_partial(self):
        truth = [(1,), (2,), (3,), (4,)]
        found = [(1,), (2,), (9,), (8,)]
        assert false_negative_rate(truth, found, 4) == pytest.approx(0.5)

    def test_equals_false_positive_rate_for_topk(self):
        # Same cardinality on both sides → FNR == FPR (paper note).
        truth = [(1,), (2,), (3,)]
        found = [(1,), (8,), (9,)]
        fnr = false_negative_rate(truth, found, 3)
        fpr = len(set(found) - set(truth)) / 3
        assert fnr == fpr

    def test_denominator_is_nominal_k(self):
        # Fewer than k true itemsets: denominator stays k.
        assert false_negative_rate([(1,)], [], 4) == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValidationError):
            false_negative_rate([], [], 0)


class TestRelativeError:
    def test_exact_release_is_zero(self):
        published = {(1,): 0.5, (2,): 0.25}
        assert relative_error(published, dict(published)) == 0.0

    def test_median_semantics(self):
        published = {(1,): 0.5, (2,): 0.5, (3,): 0.5}
        truth = {(1,): 0.5, (2,): 0.25, (3,): 0.1}
        # Errors: 0, 1.0, 4.0 → median 1.0.
        assert relative_error(published, truth) == pytest.approx(1.0)

    def test_empty_is_nan(self):
        assert math.isnan(relative_error({}, {}))

    def test_zero_truth_needs_floor(self):
        published = {(1,): 0.5}
        with pytest.raises(ValidationError):
            relative_error(published, {(1,): 0.0})
        value = relative_error(published, {(1,): 0.0}, floor=0.01)
        assert value == pytest.approx(50.0)


class TestEvaluateRelease:
    def test_exact_release_scores_perfectly(self, tiny_db):
        truth = top_k_itemsets(tiny_db, 4)
        release = exact_top_k(tiny_db, 4)
        metrics = evaluate_release(release, tiny_db, truth)
        assert metrics["fnr"] == 0.0
        assert metrics["relative_error"] == 0.0

    def test_junk_release_scores_fnr_one(self, tiny_db):
        truth = top_k_itemsets(tiny_db, 2)
        release = make_release([((3, 4), 0.9), ((2, 3), 0.8)], k=2)
        metrics = evaluate_release(release, tiny_db, truth)
        assert metrics["fnr"] == 1.0
        assert math.isnan(metrics["relative_error"])

    def test_re_computed_over_true_positives_only(self, tiny_db):
        truth = top_k_itemsets(tiny_db, 2)  # {0}:6/8, {1}:5/8
        release = make_release(
            [((0,), 0.75), ((4, 3), 0.999)], k=2
        )
        metrics = evaluate_release(release, tiny_db, truth)
        assert metrics["fnr"] == pytest.approx(0.5)
        # Only {0} counts toward RE; it is exact → 0, despite the junk
        # itemset having absurd error.
        assert metrics["relative_error"] == pytest.approx(0.0)

    def test_reads_true_supports_from_the_oracle_list(
        self, tiny_db, monkeypatch
    ):
        truth = top_k_itemsets(tiny_db, 4)
        release = make_release(
            [(itemset, 0.5) for itemset, _ in truth[:3]] + [((3, 4), 0.9)],
            k=4,
        )
        n = tiny_db.num_transactions
        want_re = float(np.median([
            abs(0.5 - tiny_db.support(itemset) / n)
            / (tiny_db.support(itemset) / n)
            for itemset, _ in truth[:3]
        ]))

        def recount(*_args, **_kwargs):
            raise AssertionError("evaluate_release recounted a support")

        monkeypatch.setattr(TransactionDatabase, "support", recount)
        metrics = evaluate_release(release, tiny_db, truth)
        assert metrics["fnr"] == pytest.approx(0.25)
        assert metrics["relative_error"] == pytest.approx(want_re)
        assert want_re > 0

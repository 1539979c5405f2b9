"""Integration tests for the extension layer working together.

The paper pipeline (privbasis) composes with every extension this
repository adds: threshold frontend → consistency repair →
association rules → export.  These tests chain them
end-to-end on registry datasets, plus stress/failure-injection cases
that no single-module test exercises.
"""

import csv
import io

import pytest

from repro.core.postprocess import enforce_consistency, is_consistent
from repro.core.privbasis import privbasis
from repro.core.threshold import privbasis_threshold
from repro.datasets.registry import load_dataset
from repro.datasets.transactions import TransactionDatabase
from repro.errors import ValidationError
from repro.experiments.export import release_to_csv
from repro.rules.association import rules_from_frequencies, rules_from_release


@pytest.fixture(scope="module")
def mushroom():
    return load_dataset("mushroom")


class TestFullExtensionChain:
    def test_threshold_repair_rules_chain(self, mushroom):
        """θ-release → consistency repair → rules, all budget-free
        after the single ε spend."""
        release = privbasis_threshold(
            mushroom, theta=0.4, epsilon=2.0, rng=17
        )
        n = mushroom.num_transactions

        family = {
            entry.itemset: (entry.noisy_count, entry.count_variance)
            for entry in release.itemsets
        }
        repaired = enforce_consistency(family, num_transactions=n)
        assert is_consistent(repaired, num_transactions=n)

        frequencies = {
            itemset: count / n
            for itemset, (count, _) in repaired.items()
        }
        rules = rules_from_frequencies(frequencies, min_confidence=0.6)
        # Dense dataset at moderate ε: the chain must produce usable
        # rules with correctly bounded confidences.
        assert rules
        for rule in rules:
            assert 0.6 <= rule.confidence <= 1.0

    def test_release_export_consistency(self, mushroom):
        release = privbasis(mushroom, k=20, epsilon=1.0, rng=9)
        rows = list(
            csv.DictReader(io.StringIO(release_to_csv(release)))
        )
        assert len(rows) == len(release.itemsets)
        # Rank order in the file matches noisy-count order.
        counts = [float(row["noisy_count"]) for row in rows]
        assert counts == sorted(counts, reverse=True)

    def test_rules_from_tf_release_too(self, mushroom):
        # rules_from_release accepts any PrivateFIMResult.
        from repro.baselines.tf import tf_method

        release = tf_method(mushroom, k=30, epsilon=5.0, m=2, rng=3)
        rules = rules_from_release(release, min_confidence=0.5)
        for rule in rules:
            assert rule.itemset in release.itemset_set()


class TestStress:
    def test_single_transaction_database(self):
        database = TransactionDatabase([(0, 1, 2)], num_items=3)
        release = privbasis(database, k=3, epsilon=1.0, rng=0)
        assert len(release.itemsets) >= 1

    def test_single_item_vocabulary(self):
        database = TransactionDatabase(
            [(0,)] * 10, num_items=1
        )
        release = privbasis(database, k=1, epsilon=1.0, rng=0)
        assert release.itemsets[0].itemset == (0,)

    def test_transactions_with_empty_rows(self):
        database = TransactionDatabase(
            [(0, 1), (), (1,), ()], num_items=2
        )
        release = privbasis(database, k=2, epsilon=1.0, rng=0)
        assert len(release.itemsets) >= 1

    def test_minuscule_epsilon_runs(self, mushroom):
        # Utility is garbage but nothing crashes or hangs.
        release = privbasis(mushroom, k=10, epsilon=1e-6, rng=0)
        assert len(release.itemsets) >= 1

    def test_threshold_above_all_frequencies(self, mushroom):
        release = privbasis_threshold(
            mushroom, theta=0.999999, epsilon=2.0, rng=0
        )
        # Nothing (or nearly nothing) clears the bar — and that's a
        # valid, empty-ish release, not an error.
        assert len(release.itemsets) <= 5

    def test_k_far_beyond_distinct_itemsets(self):
        database = TransactionDatabase(
            [(0, 1)] * 5 + [(1,)] * 5, num_items=2
        )
        release = privbasis(database, k=1000, epsilon=5.0, rng=0)
        # Candidate space has at most 3 non-empty subsets of {0, 1}.
        assert len(release.itemsets) <= 3

    def test_zero_transactions_rejected_cleanly(self):
        database = TransactionDatabase([], num_items=4)
        with pytest.raises(ValidationError):
            privbasis_threshold(database, 0.5, 1.0, rng=0)


class TestDeterminismAcrossExtensions:
    def test_same_seed_same_everything(self, mushroom):
        def run():
            release = privbasis_threshold(
                mushroom, theta=0.45, epsilon=1.0, rng=77
            )
            rules = rules_from_release(release, min_confidence=0.5)
            return (
                [entry.itemset for entry in release.itemsets],
                [(r.antecedent, r.consequent) for r in rules],
            )

        assert run() == run()

    def test_different_seeds_differ(self, mushroom):
        first = privbasis(mushroom, k=40, epsilon=0.2, rng=1)
        second = privbasis(mushroom, k=40, epsilon=0.2, rng=2)
        assert [e.noisy_count for e in first.itemsets] != [
            e.noisy_count for e in second.itemsets
        ]

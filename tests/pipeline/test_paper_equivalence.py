"""Golden test: PaperPlanner ≡ the pre-refactor monolithic privbasis.

The acceptance bar for the staged-pipeline refactor: under a fixed
seed, a release planned by :class:`PaperPlanner` must reproduce the
pre-refactor ``privbasis()`` *bit for bit* — itemsets, noisy counts
and frequencies, diagnostics (λ, F, P), and the ε ledger entries —
across every counting backend, including a backend advanced through
the streaming ``extend`` path.  ``_legacy_privbasis`` below is a
faithful inline copy of the pre-refactor function body (same
mechanism calls, same float expressions, same rng consumption order);
any divergence in the pipeline shows up as a failed comparison here.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.basis import DEFAULT_MAX_BASIS_LENGTH, single_basis
from repro.core.basis_freq import basis_freq
from repro.core.construct_basis import construct_basis_set
from repro.core.freq_elements import get_frequent_items, get_frequent_pairs
from repro.core.lambda_select import get_lambda
from repro.core.privbasis import privbasis
from repro.datasets.transactions import TransactionDatabase
from repro.dp.budget import PrivacyBudget
from repro.dp.rng import ensure_rng
from repro.engine.bitmap import BitmapBackend
from repro.engine.cache import CachedBackend
from repro.engine.naive import NaiveBackend
from repro.engine.session import PrivBasisSession
from repro.pipeline import DEFAULT_ALPHAS, pair_budget_size
from tests.engine.spill import spilled


def _legacy_privbasis(
    database,
    k,
    epsilon,
    eta=None,
    alphas=DEFAULT_ALPHAS,
    single_basis_lambda=12,
    noise="laplace",
    rng=None,
    backend=None,
):
    """The pre-refactor privbasis() body, verbatim in behavior."""
    from repro.engine.backend import resolve_backend

    if eta is None:
        eta = 1.2 if k <= 100 else 1.1
    backend = resolve_backend(database, backend)
    generator = ensure_rng(rng)
    budget = PrivacyBudget(epsilon)
    alpha1_eps, alpha2_eps, alpha3_eps = budget.split(alphas)

    lam = get_lambda(backend, k, alpha1_eps, eta=eta, rng=generator)
    budget.spend(alpha1_eps, "get_lambda")
    lam = min(lam, backend.num_items)

    if lam <= single_basis_lambda:
        frequent_items = get_frequent_items(
            backend, lam, alpha2_eps, rng=generator
        )
        budget.spend(alpha2_eps, "get_frequent_items")
        basis_set = single_basis(frequent_items)
        frequent_pairs = ()
    else:
        lam2 = pair_budget_size(lam, k, eta)
        available_pairs = lam * (lam - 1) // 2
        lam2 = min(lam2, available_pairs)
        if lam2 >= 1:
            beta1_eps = alpha2_eps * lam / (lam + lam2)
            beta2_eps = alpha2_eps - beta1_eps
        else:
            beta1_eps, beta2_eps = alpha2_eps, 0.0
        frequent_items = get_frequent_items(
            backend, lam, beta1_eps, rng=generator
        )
        budget.spend(beta1_eps, "get_frequent_items")
        if lam2 >= 1:
            pairs = get_frequent_pairs(
                backend, frequent_items, lam2, beta2_eps, rng=generator
            )
            budget.spend(beta2_eps, "get_frequent_pairs")
        else:
            pairs = []
        frequent_pairs = tuple(sorted(pairs))
        basis_set = construct_basis_set(
            frequent_items,
            frequent_pairs,
            DEFAULT_MAX_BASIS_LENGTH,
            greedy_optimize=True,
        )

    release = basis_freq(
        backend, basis_set, k, alpha3_eps, rng=generator, noise=noise
    )
    budget.spend(alpha3_eps, "basis_freq")
    return {
        "itemsets": [
            (
                entry.itemset,
                entry.noisy_count,
                entry.noisy_frequency,
                entry.count_variance,
            )
            for entry in release.itemsets
        ],
        "lam": lam,
        "frequent_items": tuple(sorted(frequent_items)),
        "frequent_pairs": tuple(frequent_pairs),
        "ledger": [
            (entry.label, entry.epsilon) for entry in budget.entries
        ],
    }


def _fingerprint(result):
    return {
        "itemsets": [
            (
                entry.itemset,
                entry.noisy_count,
                entry.noisy_frequency,
                entry.count_variance,
            )
            for entry in result.itemsets
        ],
        "lam": result.lam,
        "frequent_items": result.frequent_items,
        "frequent_pairs": result.frequent_pairs,
        "ledger": [
            (entry.label, entry.epsilon)
            for entry in result.budget.entries
        ],
    }


BACKEND_FACTORIES = {
    "bitmap": BitmapBackend,
    "sharded": lambda db: spilled(db, rows_per_segment=128),
    "naive": NaiveBackend,
    "cached": lambda db: CachedBackend(BitmapBackend(db)),
}


class TestGoldenEquivalence:
    @pytest.mark.parametrize("name", sorted(BACKEND_FACTORIES))
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 10, "epsilon": 1.0},
            {"k": 25, "epsilon": 0.4, "single_basis_lambda": 4},
            {"k": 15, "epsilon": 2.0, "noise": "geometric"},
        ],
    )
    def test_paper_planner_bit_identical(self, small_db, name, kwargs):
        factory = BACKEND_FACTORIES[name]
        # Backends go in the positional slot: a spilled backend's
        # database is a copy read back from its store, not ``small_db``.
        legacy = _legacy_privbasis(factory(small_db), rng=11, **kwargs)
        staged = privbasis(factory(small_db), rng=11, **kwargs)
        assert _fingerprint(staged) == legacy

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        k=st.integers(min_value=1, max_value=40),
        epsilon=st.floats(min_value=0.05, max_value=5.0),
        threshold=st.sampled_from([2, 6, 12]),
    )
    @settings(max_examples=20, deadline=None)
    def test_equivalence_property(
        self, dense_db, seed, k, epsilon, threshold
    ):
        legacy = _legacy_privbasis(
            dense_db,
            k=k,
            epsilon=epsilon,
            single_basis_lambda=threshold,
            rng=seed,
        )
        staged = privbasis(
            dense_db,
            k=k,
            epsilon=epsilon,
            single_basis_lambda=threshold,
            rng=seed,
        )
        assert _fingerprint(staged) == legacy

    def test_custom_alphas_bit_identical(self, dense_db):
        alphas = (0.2, 0.3, 0.5)
        legacy = _legacy_privbasis(
            dense_db, k=12, epsilon=0.9, alphas=alphas, rng=4
        )
        staged = privbasis(
            dense_db, k=12, epsilon=0.9, alphas=alphas, rng=4
        )
        assert _fingerprint(staged) == legacy

    @pytest.mark.parametrize("name", sorted(BACKEND_FACTORIES))
    def test_streaming_extend_path_bit_identical(self, name):
        """A backend advanced by ``extend`` must release exactly like
        the legacy monolith over the concatenated database."""
        base_rows = [(0, 1, 2), (0, 1), (2, 3), (0, 2, 3), (1,)] * 20
        delta_rows = [(0, 3), (1, 2, 3), (0, 1, 2, 3)] * 15
        base = TransactionDatabase(base_rows, num_items=4)
        delta = TransactionDatabase(delta_rows, num_items=4)
        merged = TransactionDatabase(
            base_rows + delta_rows, num_items=4
        )
        backend = BACKEND_FACTORIES[name](base)
        backend.extend(delta)
        legacy = _legacy_privbasis(merged, k=6, epsilon=1.5, rng=9)
        staged = privbasis(
            backend.database, k=6, epsilon=1.5, rng=9, backend=backend
        )
        assert _fingerprint(staged) == legacy

    def test_streaming_session_snapshot_path(self):
        """The snapshot-aware session after an ingest stays equivalent
        to the legacy monolith on the pinned snapshot."""
        base = [(0, 1, 2), (0, 1), (2, 3)] * 12
        delta = [(0, 3), (1, 2)] * 10
        session = PrivBasisSession(TransactionDatabase(base, num_items=4))
        version = session.ingest(delta)
        merged = TransactionDatabase(base + delta, num_items=4)
        staged = session.release(k=5, epsilon=1.2, rng=21)
        legacy = _legacy_privbasis(merged, k=5, epsilon=1.2, rng=21)
        assert _fingerprint(staged) == legacy
        assert staged.snapshot_version == version == 1

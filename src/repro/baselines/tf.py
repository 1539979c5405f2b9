"""The TF (truncated frequency) baseline — Bhaskar et al., KDD 2010.

Releases the top-k itemsets among all itemsets of length ≤ m (the
candidate family ``U``, |U| ≈ |I|^m) in two ε/2 phases:

1. **Selection.**  Each candidate's *truncated frequency* is
   ``f̂(X) = max(f(X), f_k − γ)`` with γ from the paper's Equation 3.
   Either (a) add ``Lap(4k/(εN))`` to every truncated frequency and
   take the k largest — the *Laplace* variant — or (b) sample k
   candidates without replacement with probability ∝
   ``exp(εN·f̂(X)/4k)`` — the *EM* variant.
2. **Measurement.**  Publish each selected itemset's true frequency
   plus ``Lap(2k/(εN))`` noise.

Truncation makes the mechanism runnable without enumerating ``U``:
candidates below the threshold share one score, so they form an
*implicit pool* handled in aggregate.

Implementation notes
--------------------
* The implicit pool's noisy scores are sampled **exactly** via
  sequential order statistics: the maximum of M i.i.d. Laplace draws is
  ``F⁻¹(u^{1/M})``; conditioning below it and recursing yields the
  descending order statistics one by one (at most k are ever needed).
  Within the pool all candidates are exchangeable, so a sampled winner
  is materialized as a uniformly random not-yet-chosen member.
* When ``f_k − γ ≤ 0`` — the degenerate regime paper Section 3.1
  analyzes — truncation prunes nothing and the explicit set would be
  all of ``U``.  We then mine explicitly down to the largest support
  floor that keeps the explicit set at or below ``explicit_cap``
  candidates and treat everything below it as implicit (at its
  truncated score).  This underweights candidates in the gap by at
  most ``floor/N`` of score, only *helps* TF if anything, and is
  exactly the regime where TF's utility guarantee is already vacuous
  (Table 2(b)).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.baselines.tf_analysis import (
    candidate_family_size,
    gamma_threshold,
    log_candidate_family_size,
)
from repro.core.result import NoisyItemset, PrivateFIMResult
from repro.datasets.transactions import TransactionDatabase
from repro.dp.laplace import laplace_noise
from repro.dp.rng import RngLike, ensure_rng
from repro.engine.backend import CountingBackend, resolve_backend
from repro.errors import ValidationError
from repro.fim.itemsets import Itemset
from repro.fim.topk import frequent_itemsets

#: Default bound on the explicitly mined candidate set (see module
#: docstring; only binds in TF's degenerate no-pruning regime).
DEFAULT_EXPLICIT_CAP = 300_000


def tf_method(
    database: TransactionDatabase,
    k: int,
    epsilon: float,
    m: int,
    rho: float = 0.9,
    variant: str = "laplace",
    explicit_cap: int = DEFAULT_EXPLICIT_CAP,
    rng: RngLike = None,
    backend: CountingBackend = None,
) -> PrivateFIMResult:
    """Run the TF method; ε-DP in total (ε/2 per phase).

    Parameters
    ----------
    m:
        Maximum candidate itemset length (the method's key parameter;
        the paper reports, per experiment, the m giving best
        precision).
    rho:
        Error-probability parameter of γ (paper uses ρ = 0.9).
    variant:
        ``"laplace"`` (noisy truncated frequencies) or ``"em"``
        (repeated exponential mechanism).
    backend:
        Counting engine for all data access (``f_k``, explicit
        mining, phase-2 measurement); defaults to a
        :class:`~repro.engine.bitmap.BitmapBackend`.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if m < 1:
        raise ValidationError(f"m must be >= 1, got {m}")
    if not (epsilon > 0):
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    if not 0 < rho < 1:
        raise ValidationError(f"rho must be in (0, 1), got {rho}")
    if variant not in ("laplace", "em"):
        raise ValidationError(
            f"variant must be 'laplace' or 'em', got {variant!r}"
        )
    backend = resolve_backend(database, backend)
    database = backend.database
    generator = ensure_rng(rng)
    n = backend.num_transactions
    if n == 0:
        raise ValidationError("database is empty")

    universe_size = candidate_family_size(backend.num_items, m)
    gamma = gamma_threshold(
        k=k,
        epsilon=epsilon,
        num_transactions=n,
        num_items=backend.num_items,
        m=m,
        rho=rho,
    )
    fk = _kth_candidate_frequency(backend, k, m)
    truncation = fk - gamma

    explicit = _mine_explicit(backend, m, truncation, explicit_cap)
    implicit_value = max(truncation, 0.0)
    implicit_count = universe_size - len(explicit)
    if implicit_count < 0:
        raise AssertionError(
            "explicit set larger than the candidate family"
        )

    if variant == "laplace":
        selected = _select_laplace(
            explicit, implicit_count, implicit_value, k, epsilon, n,
            generator,
        )
    else:
        selected = _select_em(
            explicit, implicit_count, implicit_value, k, epsilon, n,
            generator,
        )
    selected = _materialize_implicit(
        selected, explicit, database, m, generator
    )

    # Phase 2 (ε/2): noisy frequencies of the selected itemsets, noise
    # drawn per itemset in selection order.  The k exact supports are
    # tid-list intersections on the database; PrivBasis itself never
    # asks for an itemset's support, so the backend has no such query.
    scale = 2.0 * k / (epsilon * n)
    itemsets: List[NoisyItemset] = []
    for itemset in selected:
        true_frequency = database.support(itemset) / n
        noisy_frequency = float(
            true_frequency + laplace_noise(scale, rng=generator)
        )
        itemsets.append(
            NoisyItemset(
                itemset=itemset,
                noisy_count=noisy_frequency * n,
                noisy_frequency=noisy_frequency,
                count_variance=2.0 * (scale * n) ** 2,
            )
        )
    itemsets.sort(key=lambda entry: (-entry.noisy_frequency, entry.itemset))
    return PrivateFIMResult(
        itemsets=itemsets, k=k, epsilon=epsilon, method=f"tf-{variant}"
    )


# ----------------------------------------------------------------------
# Explicit candidate mining
# ----------------------------------------------------------------------
def _kth_candidate_frequency(
    backend: CountingBackend, k: int, m: int
) -> float:
    """``f_k`` — frequency of the k-th most frequent member of U."""
    top = backend.top_k(k, max_length=m)
    if not top:
        return 0.0
    if len(top) < k:
        return top[-1][1] / backend.num_transactions
    return top[k - 1][1] / backend.num_transactions


#: Memo for explicit mining: repeated trials at the same (dataset,
#: floor, m) re-mine identical explicit sets.  Each entry pins the
#: database it was mined from, both to validate the ``id()`` key (ids
#: can be reused after garbage collection) and because databases are
#: immutable so the mined dict stays valid as long as the entry lives.
_EXPLICIT_MINING_CACHE: Dict[
    Tuple[int, int, int],
    Tuple[TransactionDatabase, Dict[Itemset, int]],
] = {}

#: Entry bound; beyond it the memo is dropped wholesale (sweeps touch
#: only a handful of (dataset, floor, m) combinations, so eviction
#: policy does not matter).
_EXPLICIT_MINING_CACHE_LIMIT = 64


def clear_explicit_mining_cache() -> None:
    """Drop the TF explicit-mining memo (frees pinned databases)."""
    _EXPLICIT_MINING_CACHE.clear()


def _mine_explicit(
    backend: CountingBackend,
    m: int,
    truncation: float,
    explicit_cap: int,
) -> Dict[Itemset, int]:
    """All candidates with frequency above the truncation threshold.

    Support floor = ``ceil(truncation·N)``, raised (degenerate regime)
    until the *a-priori bound* ``Σ_{i≤m} C(|items ≥ floor|, i)`` on the
    mined set fits ``explicit_cap``.  Keys come in ascending tuple
    order: both selection variants draw their noise in key order, so
    seeded releases do not depend on how the miner walks the lattice.
    """
    backend = resolve_backend(backend)
    database = backend.database
    n = backend.num_transactions
    floor = max(1, int(math.ceil(truncation * n - 1e-9)))
    supports = backend.item_supports()
    floor = _raise_floor_to_cap(supports, floor, m, explicit_cap)
    key = (id(database), floor, m)
    entry = _EXPLICIT_MINING_CACHE.get(key)
    if entry is not None and entry[0] is database:
        return entry[1]
    mined = frequent_itemsets(database, min_support=floor, max_length=m)
    if len(_EXPLICIT_MINING_CACHE) >= _EXPLICIT_MINING_CACHE_LIMIT:
        _EXPLICIT_MINING_CACHE.clear()
    _EXPLICIT_MINING_CACHE[key] = (database, mined)
    return mined


def _raise_floor_to_cap(
    item_supports: np.ndarray, floor: int, m: int, cap: int
) -> int:
    """Smallest support floor ≥ ``floor`` whose candidate bound ≤ cap."""
    distinct = np.unique(item_supports[item_supports >= floor])
    if distinct.size == 0:
        return floor
    candidates = [floor] + [int(value) for value in distinct]
    for value in candidates:
        eligible = int(np.count_nonzero(item_supports >= value))
        bound = sum(math.comb(eligible, size) for size in range(1, m + 1))
        if bound <= cap:
            return value
    return int(distinct[-1]) + 1


# ----------------------------------------------------------------------
# Selection phase
# ----------------------------------------------------------------------
def _select_laplace(
    explicit: Dict[Itemset, int],
    implicit_count: int,
    implicit_value: float,
    k: int,
    epsilon: float,
    n: int,
    generator: np.random.Generator,
) -> List[Optional[Itemset]]:
    """Laplace variant: top-k of noisy truncated frequencies.

    Explicit candidates get individual noise; the implicit pool's top
    order statistics stream in descending order and merge lazily.
    ``None`` entries denote implicit winners (materialized later).
    """
    scale = 4.0 * k / (epsilon * n)
    names = list(explicit.keys())
    frequencies = np.array(
        [explicit[name] for name in names], dtype=float
    ) / n
    truncated = np.maximum(frequencies, implicit_value)
    noisy = truncated + laplace_noise(
        scale, size=truncated.shape, rng=generator
    )
    order = np.argsort(-noisy, kind="stable")

    implicit_stream = _laplace_order_statistics(
        implicit_count, implicit_value, scale, k, generator
    )
    selected: List[Optional[Itemset]] = []
    explicit_position = 0
    implicit_position = 0
    while len(selected) < k:
        explicit_score = (
            noisy[order[explicit_position]]
            if explicit_position < len(order)
            else -math.inf
        )
        implicit_score = (
            implicit_stream[implicit_position]
            if implicit_position < len(implicit_stream)
            else -math.inf
        )
        if explicit_score == -math.inf and implicit_score == -math.inf:
            break
        if explicit_score >= implicit_score:
            selected.append(names[order[explicit_position]])
            explicit_position += 1
        else:
            selected.append(None)
            implicit_position += 1
    return selected


def _laplace_order_statistics(
    count: int,
    location: float,
    scale: float,
    how_many: int,
    generator: np.random.Generator,
) -> List[float]:
    """Top ``how_many`` order statistics of ``count`` i.i.d. Laplace.

    Exact sequential sampling without materializing the pool: the
    maximum of M draws is ``F⁻¹(U^{1/M})``; each subsequent statistic
    conditions below its predecessor.  All computation in log-CDF space
    for stability at M ~ 10⁹.
    """
    values: List[float] = []
    log_cdf_bound = 0.0  # log F(previous statistic); starts at log 1
    remaining = count
    while remaining > 0 and len(values) < how_many:
        uniform = generator.random()
        # log F(next) = log F(bound) + log(u)/remaining
        log_cdf = log_cdf_bound + math.log(uniform) / remaining
        values.append(location + scale * _standard_laplace_ppf_log(log_cdf))
        log_cdf_bound = log_cdf
        remaining -= 1
    return values


def _standard_laplace_ppf_log(log_q: float) -> float:
    """Quantile of Laplace(0, 1) given the *log* of the quantile level."""
    log_half = -math.log(2.0)
    if log_q <= log_half:
        # q <= 1/2:  q = e^z / 2  =>  z = log(2q)
        return log_q + math.log(2.0)
    # q > 1/2:  1 - q = e^{-z} / 2  =>  z = -log(2(1-q))
    one_minus_q = -math.expm1(log_q)
    if one_minus_q <= 0.0:
        # log_q == 0 up to rounding: the quantile is unbounded; return
        # a very large value consistent with "the maximum of a huge
        # pool": practically unreachable.
        return math.inf
    return -math.log(2.0 * one_minus_q)


def _select_em(
    explicit: Dict[Itemset, int],
    implicit_count: int,
    implicit_value: float,
    k: int,
    epsilon: float,
    n: int,
    generator: np.random.Generator,
) -> List[Optional[Itemset]]:
    """EM variant: k draws without replacement, p ∝ exp(εN·f̂/4k).

    The implicit pool participates as one aggregate outcome with log
    weight ``log M + εN·f̂_pool/4k``; drawing it consumes one pool
    member.  Sampling uses the Gumbel-max trick over the explicit
    scores plus the aggregate, in log space.
    """
    exponent_scale = epsilon * n / (4.0 * k)
    names = list(explicit.keys())
    frequencies = np.array(
        [explicit[name] for name in names], dtype=float
    ) / n
    truncated = np.maximum(frequencies, implicit_value)
    log_weights = truncated * exponent_scale
    alive = np.ones(len(names), dtype=bool)
    pool_remaining = implicit_count
    pool_log_weight_unit = implicit_value * exponent_scale

    selected: List[Optional[Itemset]] = []
    for _ in range(k):
        candidate_scores = np.where(
            alive,
            log_weights + generator.gumbel(size=log_weights.shape),
            -np.inf,
        )
        best_explicit = (
            int(np.argmax(candidate_scores)) if len(names) else -1
        )
        best_explicit_score = (
            candidate_scores[best_explicit] if len(names) else -math.inf
        )
        pool_score = -math.inf
        if pool_remaining > 0:
            pool_score = (
                math.log(pool_remaining)
                + pool_log_weight_unit
                + generator.gumbel()
            )
        if best_explicit_score == -math.inf and pool_score == -math.inf:
            break
        if best_explicit_score >= pool_score:
            selected.append(names[best_explicit])
            alive[best_explicit] = False
        else:
            selected.append(None)
            pool_remaining -= 1
    return selected


# ----------------------------------------------------------------------
# Implicit winner materialization
# ----------------------------------------------------------------------
def _materialize_implicit(
    selected: Sequence[Optional[Itemset]],
    explicit: Dict[Itemset, int],
    database: TransactionDatabase,
    m: int,
    generator: np.random.Generator,
) -> List[Itemset]:
    """Replace ``None`` winners by uniform draws from the implicit pool.

    All implicit candidates share one truncated score, so conditioned
    on "an implicit candidate won", the winner is uniform over the
    pool.  Rejection-sample a uniform member of U (size s with
    probability ∝ C(|I|, s), then s distinct uniform items) until it
    avoids the explicit set and previous picks — collision probability
    is |E|/|U|, negligible in every regime TF runs in.
    """
    taken: Set[Itemset] = set(explicit.keys())
    log_sizes = np.array(
        [
            _log_comb(database.num_items, size)
            for size in range(1, m + 1)
        ]
    )
    size_probabilities = np.exp(log_sizes - log_sizes.max())
    size_probabilities /= size_probabilities.sum()

    result: List[Itemset] = []
    for winner in selected:
        if winner is not None:
            result.append(winner)
            taken.add(winner)
            continue
        for _ in range(10_000):
            size = 1 + int(
                generator.choice(len(size_probabilities),
                                 p=size_probabilities)
            )
            itemset = tuple(
                sorted(
                    int(item)
                    for item in generator.choice(
                        database.num_items, size=size, replace=False
                    )
                )
            )
            if itemset not in taken:
                break
        else:  # pragma: no cover - astronomically unlikely
            raise RuntimeError(
                "failed to sample an implicit candidate; the candidate "
                "family is almost exhausted"
            )
        taken.add(itemset)
        result.append(itemset)
    return result


def _log_comb(n: int, k: int) -> float:
    if k > n:
        return -math.inf
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )

"""Utility metrics for private top-k releases (paper Section 5).

* **False negative rate** — fraction of the exact top-k missing from
  the published result.  For top-k selection it equals the false
  positive rate (every missed true itemset is displaced by a wrong
  one), which the paper notes.
* **Relative error** — the median over published itemsets of
  ``|nf(X) − f(X)| / f(X)``, where ``f`` is the true frequency and
  ``nf`` the published noisy frequency.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Set, Tuple

import numpy as np

from repro.core.result import PrivateFIMResult
from repro.datasets.transactions import TransactionDatabase
from repro.errors import ValidationError
from repro.fim.itemsets import Itemset


def false_negative_rate(
    true_topk: Iterable[Itemset], published: Iterable[Itemset], k: int
) -> float:
    """``FNR = |top-k \\ published| / k`` (paper Section 5).

    ``k`` is the nominal release size: when fewer than ``k`` itemsets
    exist the denominator stays ``k``, matching the paper's formula.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    truth: Set[Itemset] = {tuple(itemset) for itemset in true_topk}
    found: Set[Itemset] = {tuple(itemset) for itemset in published}
    return len(truth - found) / float(k)


def relative_error(
    published_frequencies: Dict[Itemset, float],
    true_frequencies: Dict[Itemset, float],
    floor: float = 0.0,
) -> float:
    """Median of ``|nf(X) − f(X)| / f(X)`` over published itemsets.

    ``floor`` guards the denominator for itemsets whose true frequency
    is (near) zero — possible for the TF baseline, which can publish
    arbitrary low-frequency itemsets.  Pass ``floor = 1/N`` to treat
    absent itemsets as frequency-one-transaction.
    """
    if not published_frequencies:
        return float("nan")
    errors = []
    for itemset, noisy in published_frequencies.items():
        truth = true_frequencies.get(itemset, 0.0)
        denominator = max(truth, floor)
        if denominator <= 0:
            raise ValidationError(
                f"itemset {itemset} has zero true frequency; pass a "
                f"positive floor"
            )
        errors.append(abs(noisy - truth) / denominator)
    return float(np.median(errors))


def evaluate_release(
    result: PrivateFIMResult,
    database: TransactionDatabase,
    true_topk: Sequence[Tuple[Itemset, int]],
) -> Dict[str, float]:
    """FNR and median relative error of one release.

    ``true_topk`` is the exact (itemset, support) list — pass the
    cached oracle output so repeated trials don't re-mine.  The true
    frequencies are read from it; the database gives only ``N``.

    Interpretation note: the relative error is computed over the
    *correctly identified* itemsets (published ∩ exact top-k).  The
    paper says "over all published frequent itemsets"; including false
    positives — whose true frequency can be arbitrarily close to zero —
    would make the median unbounded whenever FNR > 0.5, which
    contradicts the ≤ 0.5 RE values its figures show for TF runs with
    FNR ≈ 0.7.  Restricting to the published itemsets that are actually
    frequent reproduces the figures' scale.  If nothing was correctly
    identified the RE is NaN (plotted as a gap).
    """
    n = float(database.num_transactions)
    true_supports = dict(true_topk[: result.k])
    published = result.itemset_set()
    fnr = false_negative_rate(true_supports, published, result.k)

    published_frequencies: Dict[Itemset, float] = {}
    true_frequencies: Dict[Itemset, float] = {}
    for entry in result.itemsets:
        if entry.itemset not in true_supports:
            continue
        published_frequencies[entry.itemset] = entry.noisy_frequency
        true_frequencies[entry.itemset] = true_supports[entry.itemset] / n
    rel = relative_error(
        published_frequencies, true_frequencies, floor=1.0 / n
    )
    return {"fnr": fnr, "relative_error": rel}

"""Table 2(a) — dataset parameters.

Regenerates, for all five datasets, the columns the paper reports: N,
|I|, average transaction length, and the top-k composition (λ unique
items, λ₂ pairs, λ₃ triples).  The shape check asserts the properties
the paper's narrative depends on:

* mushroom / pumsb-star have small λ (single-basis regime);
* retail / kosarak have a few dozen unique items (multi-basis regime);
* aol is singleton-dominated (λ ≈ k, λ₃ = 0).
"""

from __future__ import annotations

from repro.experiments.tables import render_table2a, table2a


def bench_table2a(run_once):
    rows = run_once(table2a)
    print()
    print(render_table2a(rows))

    stats = {row.name: row for row in rows}
    assert set(stats) == {
        "retail", "mushroom", "pumsb_star", "kosarak", "aol",
    }

    # Small-λ regime: both single-basis datasets fit in one basis of
    # at most a dozen items (paper: λ = 11 and 17).
    assert stats["mushroom"].lam <= 12
    assert stats["pumsb_star"].lam <= 20

    # Multi-basis regime: a few dozen unique items (paper: 38, 39).
    assert 20 <= stats["retail"].lam <= 60
    assert 20 <= stats["kosarak"].lam <= 60

    # Singleton-dominated regime (paper: λ = 171 of k = 200, λ₃ = 0).
    assert stats["aol"].lam >= 0.8 * stats["aol"].k
    assert stats["aol"].lam3 == 0

    # Deep itemsets exist where the paper says they do.
    assert stats["mushroom"].lam3 > 0
    assert stats["pumsb_star"].lam3 > 0

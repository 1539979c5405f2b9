"""Seeded pins of pairs-branch releases.

Recorded when pair supports still came back as a dict keyed by sorted
pair.  The pair step now reads the upper triangle of a support matrix
in row-major order, which is the same candidate order, so the
exponential-mechanism draws, the selected pairs and every noisy
frequency must be unchanged on every backend.  The spill uses 90-row
segments, so every shard's row count is off the 64-bit word boundary.
"""

from __future__ import annotations

import pytest

from repro.core.freq_elements import get_frequent_pairs
from repro.core.privbasis import privbasis
from repro.engine.bitmap import BitmapBackend
from repro.engine.naive import NaiveBackend
from tests.engine.spill import spilled

BACKENDS = {
    "bitmap": BitmapBackend,
    "sharded": lambda database: spilled(database, rows_per_segment=90),
}

#: ``privbasis(backend, k, ε, rng=seed)`` on ``small_db``, keyed by
#: ``(k, ε, seed)``: the selected pairs and the released
#: ``(itemset, noisy frequency)`` list.
RELEASE_PINS = {
    (25, 1.0, 3): {
        "pairs": (
            (0, 5), (0, 33), (7, 35), (8, 19), (14, 28), (15, 35),
            (17, 35), (24, 33), (33, 37),
        ),
        "released": [
            ((27,), 0.7645469055485123),
            ((5,), 0.7197676798077116),
            ((35,), 0.7050879082676171),
            ((33,), 0.5354255642889008),
            ((5, 27), 0.5026902699700342),
            ((7,), 0.466001658265528),
            ((0,), 0.3829165588738133),
            ((8,), 0.34943265471329027),
            ((0, 5), 0.33895528445259887),
            ((14,), 0.3323881302162884),
            ((23,), 0.28660431595905167),
            ((31,), 0.2617518212844082),
            ((0, 33), 0.2543338029732828),
            ((16,), 0.2360009604534567),
            ((15,), 0.23512228584246248),
            ((7, 35), 0.23226081903063112),
            ((28,), 0.2243683675957576),
            ((0, 27), 0.2224518247755619),
            ((2,), 0.2047404331687729),
            ((2, 28), 0.2006900179194423),
            ((17, 35), 0.1974094195184022),
            ((0, 5, 27), 0.18329888205631753),
            ((24, 33), 0.1800513490477436),
            ((24,), 0.17867587709941796),
            ((7, 15), 0.17419572668342276),
        ],
    },
    (40, 0.5, 8): {
        "pairs": (
            (1, 5), (1, 15), (2, 12), (2, 16), (2, 29), (2, 30),
            (5, 31), (5, 33), (5, 35), (7, 12), (7, 14), (7, 30),
            (11, 36), (12, 16), (12, 36), (14, 26), (14, 33), (15, 30),
            (18, 27), (22, 27), (26, 36), (28, 35), (31, 33),
        ),
        "released": [
            ((35,), 1.118818688634135),
            ((28, 35), 0.9594157566082289),
            ((5,), 0.8129600259476019),
            ((5, 35), 0.7278959713778788),
            ((15,), 0.7193280246842063),
            ((33,), 0.65645627409176),
            ((11,), 0.6230195525883846),
            ((11, 28, 35), 0.576928193643196),
            ((27,), 0.5689799148995867),
            ((28,), 0.5613236593025569),
            ((11, 35), 0.5511069285774061),
            ((7, 15), 0.5492626022138923),
            ((14,), 0.539774206860421),
            ((0,), 0.4815669504797247),
            ((28, 35, 36), 0.47601237087577997),
            ((1,), 0.4694289872184782),
            ((11, 28), 0.4634987571622729),
            ((35, 36), 0.4151925636547224),
            ((14, 26), 0.38129319907751424),
            ((7, 12, 15), 0.361085534458779),
            ((28, 36), 0.3593822202562916),
            ((1, 7), 0.3507589162215532),
            ((36,), 0.33936518372035396),
            ((5, 33), 0.33624023173484924),
            ((15, 29), 0.3283380765039388),
            ((15, 30), 0.314689239059231),
            ((1, 35), 0.29240152652650253),
            ((5, 31), 0.28591901368314376),
            ((15, 29, 30), 0.28475276369912633),
            ((1, 15), 0.2753834948138596),
            ((1, 7, 12, 15), 0.2718593642271061),
            ((1, 7, 12), 0.27129288322221634),
            ((31,), 0.2666379300060511),
            ((29,), 0.25293601216366995),
            ((14, 33), 0.24452091998907544),
            ((1, 7, 15), 0.23264948984506645),
            ((26, 33), 0.22543312498918255),
            ((11, 28, 35, 36), 0.21817211626197922),
            ((7, 12), 0.2064346753603165),
            ((1, 5), 0.1921350272085985),
        ],
    },
}

#: ``get_frequent_pairs(backend, range(0, 40, 3), 6, 0.8, rng=5)`` on
#: ``small_db``, in selection order.
PAIR_SELECTION_PIN = [
    (27, 33), (33, 36), (27, 36), (0, 15), (15, 27), (0, 27),
]


@pytest.mark.parametrize("name", sorted(BACKENDS))
@pytest.mark.parametrize("k, epsilon, seed", sorted(RELEASE_PINS))
def test_pairs_branch_release_is_pinned(small_db, name, k, epsilon, seed):
    result = privbasis(BACKENDS[name](small_db), k, epsilon, rng=seed)
    pin = RELEASE_PINS[(k, epsilon, seed)]
    assert result.frequent_pairs == pin["pairs"]
    assert [
        (entry.itemset, entry.noisy_frequency) for entry in result.itemsets
    ] == pin["released"]


@pytest.mark.parametrize(
    "factory", [*BACKENDS.values(), NaiveBackend], ids=[*BACKENDS, "naive"]
)
def test_pair_selection_is_pinned(small_db, factory):
    selected = get_frequent_pairs(
        factory(small_db), range(0, 40, 3), 6, 0.8, rng=5
    )
    assert selected == PAIR_SELECTION_PIN

"""Named dataset registry with per-process caching.

Experiments refer to datasets by the paper's names (``mushroom``,
``retail``, …).  The registry maps those names to the matched
generators, applies the benchmark scale policy, and caches generated
databases (and their exact top-k mining results) so repeated trials do
not regenerate them.  The disk tiers are re-read on every load.

Scale policy: the two biggest datasets (``kosarak``, ``aol``) default
to a 1/4-scale quick build so the full experiment grid runs in minutes;
setting the environment variable ``REPRO_FULL_SCALE=1`` (or passing
``full_scale=True``) builds paper-exact sizes.  Frequencies — and hence
all mining structure — are unchanged by scale; only the ε·N noise level
moves, which EXPERIMENTS.md accounts for.
"""

from __future__ import annotations

import os
import tempfile
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.datasets.generators import (
    aol_like,
    kosarak_like,
    mushroom_like,
    pumsb_star_like,
    retail_like,
)
from repro.datasets.transactions import TransactionDatabase
from repro.errors import ValidationError
from repro.fim.topk import TopKResult, top_k_itemsets

#: name -> (generator, quick_scale)
_GENERATORS: Dict[str, Tuple[Callable[..., TransactionDatabase], float]] = {
    "mushroom": (mushroom_like, 1.0),
    "pumsb_star": (pumsb_star_like, 1.0),
    "retail": (retail_like, 1.0),
    "kosarak": (kosarak_like, 0.25),
    "aol": (aol_like, 0.25),
}

_DATABASE_CACHE: Dict[Tuple[str, float, int], TransactionDatabase] = {}
#: Top-k memo: key includes ``id(database)``, so each entry also holds
#: a weak reference to the database it was mined from — ids are reused
#: after garbage collection, and a stale hit would silently return
#: another database's itemsets.  The weakref validates the key without
#: pinning transient databases alive.
_TOPK_CACHE: Dict[
    Tuple[int, int, Optional[int]],
    Tuple["weakref.ref[TransactionDatabase]", TopKResult],
] = {}

#: Entry bound; beyond it the memo is dropped wholesale (real
#: workloads touch a handful of (database, k) combinations, so
#: eviction policy does not matter — boundedness does).
_TOPK_CACHE_LIMIT = 256


@dataclass(frozen=True)
class TierSpec:
    """One disk-backed synthetic size tier (``tier-tiny`` …).

    Tiers exist to exercise the out-of-core data plane at controlled
    scales: each is generated **to disk** (gzip FIMI, atomic write) on
    first use by the vectorized sampler in
    :mod:`repro.datasets.chunked`, then always loaded back through the
    chunked reader — the load path is the same streaming code the
    benchmarks measure, not a shortcut.
    """

    name: str
    num_transactions: int
    num_items: int
    avg_items: float
    seed: int

    def chunks(self, chunk_size: Optional[int] = None):
        """The tier's deterministic synthetic chunk stream."""
        from repro.datasets.chunked import (
            DEFAULT_CHUNK_SIZE,
            synthesize_tier_chunks,
        )

        return synthesize_tier_chunks(
            self.num_transactions,
            self.num_items,
            self.avg_items,
            self.seed,
            chunk_size=chunk_size or DEFAULT_CHUNK_SIZE,
        )


#: The out-of-core benchmark tiers, smallest to largest.  ``large`` is
#: sized so its CSR representation (~40 MB of int64 payload) dwarfs
#: the default bench memory budget but generates in seconds.
TIERS: Dict[str, TierSpec] = {
    "tier-tiny": TierSpec("tier-tiny", 2_000, 200, 8.0, 11),
    "tier-small": TierSpec("tier-small", 60_000, 1_000, 10.0, 12),
    "tier-large": TierSpec("tier-large", 400_000, 4_000, 12.0, 13),
}


def dataset_names() -> List[str]:
    """The five paper dataset names, in Table 2(a) order."""
    return ["retail", "mushroom", "pumsb_star", "kosarak", "aol"]


def tier_names() -> List[str]:
    """The disk-backed size-tier names, smallest first."""
    return list(TIERS)


def registered_names() -> List[str]:
    """Every name :func:`load_dataset` resolves (datasets + tiers)."""
    return dataset_names() + tier_names()


def tier_data_dir() -> Path:
    """Where generated tier files live.

    ``REPRO_TIER_DIR`` overrides; the default is a stable path under
    the system temp dir so repeated runs (and cluster workers on one
    host) share one copy per tier.
    """
    override = os.environ.get("REPRO_TIER_DIR", "").strip()
    if override:
        return Path(override)
    return Path(tempfile.gettempdir()) / "repro-tiers"


def ensure_tier_file(
    name: str, data_dir: Optional[Path] = None
) -> Path:
    """Generate tier ``name`` to disk if missing; return its path.

    Generation streams chunk-by-chunk through an atomic tmp+rename
    write, so a crash mid-generation cannot leave a truncated file
    that a later run would load.
    """
    key = name.strip().lower().replace("_", "-")
    if key not in TIERS:
        raise ValidationError(
            f"unknown tier {name!r}; available: {tier_names()}"
        )
    spec = TIERS[key]
    directory = Path(data_dir) if data_dir is not None else tier_data_dir()
    path = directory / f"{spec.name}-seed{spec.seed}.dat.gz"
    if not path.exists():
        from repro.datasets.chunked import write_tier_file

        write_tier_file(path, spec.chunks())
    return path


def full_scale_enabled() -> bool:
    """True when the ``REPRO_FULL_SCALE`` environment flag is set."""
    return os.environ.get("REPRO_FULL_SCALE", "").strip() in {
        "1",
        "true",
        "yes",
    }


def load_dataset(
    name: str,
    scale: Optional[float] = None,
    seed: int = 2012,
    full_scale: Optional[bool] = None,
) -> TransactionDatabase:
    """Build (or fetch from cache) a named dataset.

    Classic datasets are memoized per ``(name, scale, seed)``; a tier
    is read from its file on every call.

    Parameters
    ----------
    name:
        One of :func:`dataset_names`.
    scale:
        Explicit transaction-count multiplier; overrides the policy.
    seed:
        Generator seed (datasets are deterministic given it).
    full_scale:
        Force paper-exact sizes; defaults to the environment flag.
    """
    tier_key = name.strip().lower().replace("_", "-")
    if tier_key in TIERS:
        # Tiers ignore the scale policy: their whole point is a fixed,
        # named size.  The load still goes through the strict chunked
        # reader so the memory and mmap planes parse identical bytes.
        # Tiers are not memoized: the mmap plane spills the copy it is
        # handed, which must then be garbage, not pinned here.
        from repro.datasets.chunked import load_chunked

        return load_chunked(
            ensure_tier_file(tier_key), num_items=TIERS[tier_key].num_items
        )
    key = name.strip().lower().replace("-", "_")
    if key not in _GENERATORS:
        raise ValidationError(
            f"unknown dataset {name!r}; available: {registered_names()}"
        )
    generator, quick_scale = _GENERATORS[key]
    if scale is None:
        use_full = (
            full_scale if full_scale is not None else full_scale_enabled()
        )
        scale = 1.0 if use_full else quick_scale
    cache_key = (key, float(scale), int(seed))
    cached = _DATABASE_CACHE.get(cache_key)
    if cached is None:
        cached = generator(scale=scale, rng=seed)
        _DATABASE_CACHE[cache_key] = cached
    return cached


def cached_top_k(
    database: TransactionDatabase,
    k: int,
    max_length: Optional[int] = None,
) -> TopKResult:
    """Exact top-k with memoization keyed on database identity.

    Ground truth is needed repeatedly (once per trial per metric).
    The cache keys on ``id(database)`` and each entry weakly
    references its database: a hit counts only if the entry's
    database is *the same object*, guarding against id reuse after
    garbage collection (transient databases would otherwise be served
    another dataset's itemsets).
    """
    key = (id(database), int(k), max_length)
    entry = _TOPK_CACHE.get(key)
    if entry is not None and entry[0]() is database:
        return entry[1]
    result = top_k_itemsets(database, k, max_length=max_length)
    if len(_TOPK_CACHE) >= _TOPK_CACHE_LIMIT:
        _TOPK_CACHE.clear()
    _TOPK_CACHE[key] = (weakref.ref(database), result)
    return result


def clear_caches() -> None:
    """Drop all cached databases and mining results (tests use this)."""
    _DATABASE_CACHE.clear()
    _TOPK_CACHE.clear()

"""The counting-backend engine and the cached serving session.

This package is the data-access seam of the library.  Layering:

1. :mod:`repro.engine.backend` — the :class:`CountingBackend`
   protocol: item supports, pairwise supports and the batched
   ``2^ℓ`` bin histograms of paper Algorithm 1, plus the exact top-k
   oracle.  Every
   mechanism in :mod:`repro.core` and every baseline counts through a
   backend, which keeps the DP accounting auditable (one inspectable
   surface) and the physical counting strategy swappable.
2. Concrete backends — :class:`BitmapBackend` (default, single
   process, pooled packed bitmaps, the dataset in RAM),
   :class:`ShardedBackend` (a dataset spilled to
   :mod:`repro.engine.mmap` segment files, its shards counted on a
   thread pool through a budget-bounded cache), and
   :class:`NaiveBackend` (pure-Python oracle for the equivalence
   tests).
3. :class:`CachedBackend` — memoizes every exact query result and
   counts every query; each release runs on one, and its counters
   are the release trace's per-stage query counts.
4. :class:`PrivBasisSession` — one database + one cached backend
   serving repeated ``release(k, epsilon)`` calls; the repeated-query
   serving layer the ROADMAP's production north-star asks for.

Streaming: every backend also implements ``extend(delta)`` —
incremental append of new transactions (packed-bitmap row extension,
tail-shard growth, oracle append, snapshot-scoped cache invalidation)
that is support-for-support identical to a cold rebuild on the
concatenated database.  Sessions ride on it via
:meth:`PrivBasisSession.ingest`, pinning a snapshot version on every
release; in the service, the dataset's ingest log
(:class:`repro.store.logstore.DatasetLogStore`) numbers those versions.

Choosing a backend: :class:`BitmapBackend` whenever the dataset fits
in RAM; :class:`ShardedBackend` over an :class:`~repro.engine.mmap
.MmapShardStore` when it should not stay resident (bounded memory,
bit-identical counts); always a :class:`PrivBasisSession` when more
than one release will hit the same database.
"""

from repro.engine.backend import (
    CountingBackend,
    as_backend,
    resolve_backend,
)
from repro.engine.bitmap import BitmapBackend
from repro.engine.cache import CachedBackend
from repro.engine.naive import NaiveBackend
from repro.engine.mmap import DEFAULT_SHARD_SIZE
from repro.engine.sharded import ShardedBackend
from repro.engine.session import PrivBasisSession, ReleaseRequest

__all__ = [
    "BitmapBackend",
    "CachedBackend",
    "CountingBackend",
    "DEFAULT_SHARD_SIZE",
    "NaiveBackend",
    "PrivBasisSession",
    "ReleaseRequest",
    "ShardedBackend",
    "as_backend",
    "resolve_backend",
]

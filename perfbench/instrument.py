"""Wrap the program's public functions with spans (traced runs only).

Every wrapper is installed from here, in the server process, before
the service is built; nothing under ``src/`` changes.  Module-level
functions are patched where their caller looks them up (for example
``repro.service.app.result_to_wire``, which ``app`` imported by name).

Span names are ``<layer>.<what>``; ``layers.layer_metrics`` turns
their totals into the per-layer metrics.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import time

from spans import Span, SpanRecorder

#: Holds a list that the first ``_read_line`` of a request fills with
#: the time the request line arrived, so an idle keep-alive wait is not
#: counted as parsing.
_ARRIVAL = contextvars.ContextVar("perfbench_arrival", default=None)


def install(recorder: SpanRecorder) -> None:
    """Patch every traced boundary of the service and the layers below."""
    # ``repro.core`` re-exports functions named like some of its
    # modules (``basis_freq``), so fetch the modules themselves.
    basis_freq, construct_basis, postprocess = (
        importlib.import_module(f"repro.core.{name}")
        for name in ("basis_freq", "construct_basis", "postprocess"))
    from repro.datasets.transactions import TransactionDatabase
    from repro.engine import mmap
    from repro.engine.cache import CachedBackend
    from repro.engine.session import PrivBasisSession
    from repro.fim.counting import ItemBitmaps
    from repro.pipeline import stages
    from repro.service import app, http
    from repro.store import wal
    from repro.store.ledger import LedgerJournal
    from repro.store.results import ResultStore
    from repro.store.state import StateStore

    patch = recorder.patch

    # -- service: framing, parsing, handler, lock, encoding ------------
    def read_line_wrapper(_name, original):
        @functools.wraps(original)
        async def read_line(reader, limit):
            line = await original(reader, limit)
            arrival = _ARRIVAL.get()
            if arrival is not None and not arrival:
                arrival.append(time.perf_counter())
            return line

        return read_line

    def read_request_wrapper(name, original):
        @functools.wraps(original)
        async def read_request(reader):
            arrival: list = []
            token = _ARRIVAL.set(arrival)
            try:
                request = await original(reader)
            finally:
                _ARRIVAL.reset(token)
            if request is None:
                return None
            end = time.perf_counter()
            request_id = request.headers.get("x-request-id", "")
            # Set in the connection task's own context, so the dispatch
            # and the response write that follow carry the same id.
            recorder.request.set(request_id)
            recorder.spans.append(Span(
                recorder.next_id(), name, arrival[0] if arrival else end,
                end, recorder.current.get(), request_id,
            ))
            return request

        return read_request

    def run_locked_wrapper(name, original):
        @functools.wraps(original)
        async def run_locked(self, dataset, call):
            inner = recorder.wrap("service.locked_call", call)
            opened = recorder.open(name)
            try:
                return await original(self, dataset, inner)
            finally:
                recorder.close(name, opened)

        return run_locked

    patch(http, "_read_line", "service.read_line", read_line_wrapper)
    patch(http, "read_request", "service.read_request",
          read_request_wrapper)
    patch(http, "write_response", "service.write_response")
    patch(app, "parse_release_request", "service.parse_release_request")
    patch(app, "result_to_wire", "service.result_to_wire")
    patch(app.PrivBasisService, "dispatch", "service.dispatch")
    patch(app.PrivBasisService, "_run_locked", "service.run_locked",
          run_locked_wrapper)
    patch(app.PrivBasisService, "_build_session", "service.session_build")
    patch(app.PrivBasisService, "_build_mmap_backend", "mmap.spill")
    patch(app.PrivBasisService, "_reuse_lookup", "reuse.lookup")
    patch(app, "top_k_truncate", "reuse.truncate")

    # -- engine.session -------------------------------------------------
    patch(PrivBasisSession, "release", "session.release")
    patch(PrivBasisSession, "ingest", "session.ingest")

    # -- pipeline stages ------------------------------------------------
    for stage in (stages.GetLambda, stages.SelectItems, stages.SelectPairs,
                  stages.BasisFreqStage):
        patch(stage, "run", f"pipeline.{stage.name}")

    def construct_wrapper(name, original):
        traced = recorder.wrap(name, original)

        @functools.wraps(original)
        def run(self, ctx, epsilon):
            traced(self, ctx, epsilon)
            bases = list(ctx.basis_set)
            recorder.count("core.bases", len(bases))
            recorder.count("core.candidate_bins",
                           sum(1 << len(basis) for basis in bases))

        return run

    patch(stages.ConstructBasis, "run", "pipeline.construct_basis",
          construct_wrapper)

    # -- core -------------------------------------------------------------
    patch(construct_basis, "average_case_ev", "core.average_case_ev")
    patch(basis_freq, "noisy_bin_counts", "core.noisy_bin_counts")
    patch(basis_freq, "itemset_estimates_from_bins", "core.estimates")
    patch(postprocess, "enforce_consistency", "core.estimates")

    # -- engine (CachedBackend public primitives) -------------------------
    for method, primitive in (
        ("item_supports", "item_supports"),
        ("pairwise_supports", "pairwise_supports"),
        ("bin_counts", "bin_counts"),
        ("bin_counts_batch", "bin_counts"),
        ("top_k", "top_k"),
        ("extend", "extend"),
    ):
        patch(CachedBackend, method, f"engine.{primitive}")
    # The top-k miner below ``top_k`` counts through the bitmap kernels
    # directly, not through the backend, so the conjunction and
    # extension primitives are timed at those kernels.
    patch(ItemBitmaps, "conjunction_row", "engine.conjunction_supports")
    patch(ItemBitmaps, "extension_supports", "engine.extension_supports")

    # -- engine.mmap ----------------------------------------------------
    patch(mmap.MmapShardStore, "shard_database", "mmap.shard_database")
    patch(mmap, "attach_file_segment", "mmap.attach")

    # -- store ------------------------------------------------------------
    patch(LedgerJournal, "debit", "store.debit")
    patch(LedgerJournal, "debit_within_limit", "store.debit")
    patch(ResultStore, "record", "store.results_record")
    patch(StateStore, "barrier", "store.barrier")
    patch(wal.WriteAheadLog, "append", "store.log_append")
    patch(wal.WriteAheadLog, "_do_sync", "store.wal_sync")

    def frame_wrapper(_name, original):
        @functools.wraps(original)
        def frame(seq, payload):
            line = original(seq, payload)
            recorder.count("store.wal_bytes", len(line))
            return line

        return frame

    patch(wal, "_frame", "store.wal_bytes", frame_wrapper)

    # -- datasets -------------------------------------------------------
    patch(TransactionDatabase, "extended", "datasets.extended")


def propagate_context(loop) -> None:
    """Run executor calls of ``loop`` in a copy of the caller's context.

    ``loop.run_in_executor`` does not carry context variables into the
    worker thread, so spans opened there would lose their parent and
    request id.  Only the event loop's own executor hand-offs are
    covered; the sharded backend's private worker pools are not, so
    their spans stay detached from request trees.
    """
    original = loop.run_in_executor

    def run_in_executor(executor, func, *args):
        return original(executor, contextvars.copy_context().run,
                        func, *args)

    loop.run_in_executor = run_in_executor

"""Server process: one ``PrivBasisService`` on an ephemeral port.

Usage (``run.py`` writes the config)::

    python3 perfbench/launcher.py CONFIG.json

``python -m repro.service`` cannot take a custom dataset loader such as
Quest-40k, so the benchmark starts the service through this file.  The
launcher prints ``PORT <n>`` once it listens, then obeys lines on
stdin:

- ``mark`` starts the measured window of a traced run (answers
  ``MARKED``);
- ``hwm`` answers ``HWM <kib>``, the peak resident set so far;
- ``stop`` or end of input stops the service, writes the report named
  in the config and exits.

Config keys: ``dataset`` (see ``workloads.py``), ``tenants`` (the
``TenantRegistry`` mapping), ``service`` (extra ``PrivBasisService``
arguments, ``state_dir`` included), ``trace`` and ``report``.

For traced runs the report holds the per-phase span totals of
``layers.aggregate`` and the resident set right after the dataset
loaded.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import time
from typing import Dict, Optional


def status_kib(field: str) -> Optional[int]:
    """A ``/proc/self/status`` memory field in KiB (``None`` off Linux)."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def make_loader(dataset: Dict[str, object]):
    """``name -> TransactionDatabase`` for the configured dataset."""
    if dataset["kind"] == "quest":
        from repro.datasets.synthetic import QuestConfig, generate_quest

        config = QuestConfig(**dataset["config"])
        seed = int(dataset["seed"])
        return lambda name: generate_quest(config, rng=seed)
    from repro.datasets.registry import load_dataset

    return load_dataset


async def serve(config: dict, recorder) -> dict:
    from repro.service import PrivBasisService, TenantRegistry

    loop = asyncio.get_running_loop()
    loader = make_loader(config["dataset"])
    extra: Dict[str, object] = {}
    if recorder is not None:
        import instrument

        instrument.propagate_context(loop)
        traced_load = recorder.wrap("datasets.load", loader)

        def loader(name, _load=traced_load):
            database = _load(name)
            extra["rss_after_load_kib"] = status_kib("VmRSS")
            return database

    service = PrivBasisService(
        TenantRegistry.from_mapping(config["tenants"]),
        dataset_loader=loader,
        **config["service"],
    )
    marks = []  # (time, counters) when the window started
    stopped = asyncio.Event()

    def control() -> None:
        for line in sys.stdin:
            command = line.split()
            if command == ["mark"]:
                counters = dict(recorder.counters) if recorder else {}
                marks.append((time.perf_counter(), counters))
                print("MARKED", flush=True)
            elif command == ["hwm"]:
                print(f"HWM {status_kib('VmHWM')}", flush=True)
            elif command == ["stop"]:
                break
        loop.call_soon_threadsafe(stopped.set)

    async with service.serving() as (_host, port):
        print(f"PORT {port}", flush=True)
        threading.Thread(target=control, daemon=True).start()
        await stopped.wait()
    report: Dict[str, object] = dict(extra)
    if recorder is not None:
        import layers

        report["trace"] = layers.aggregate(
            recorder.spans, recorder.counters, marks[-1])
    return report


def main(argv) -> int:
    with open(argv[1], encoding="utf-8") as handle:
        config = json.load(handle)
    recorder = None
    if config.get("trace"):
        import instrument
        from spans import SpanRecorder

        recorder = SpanRecorder()
        instrument.install(recorder)
    report = asyncio.run(serve(config, recorder))
    with open(config["report"], "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

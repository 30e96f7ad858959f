"""Merging per-process trace logs into one timeline.

Each process host records its own trace (``serve --trace``): the
messages it initiated and the runtime events of its address space.
Offline analysis wants one file.  Because every
:class:`~repro.transport.wallclock.WallClock` reads the same epoch
time, timestamps from different processes are directly comparable;
the merge is a *stable* sort on time, so events from one process that
share a timestamp keep their recorded order — which is what the
per-process conformance rules (:mod:`repro.analysis.trace_rules`)
depend on.

Each merged event is annotated with ``data["proc"]`` naming its source
log, so interleavings stay attributable after the merge.

When the ``REPRO_TRACE_EXPORT`` environment variable names a
directory, :func:`export_trace` copies merged traces there — CI sets
it so the integration suites leave their merged timelines behind for
the trace gate (conformance and sanitizer rules) and the uploaded
race-report artifact.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from repro.simnet.stats import TraceEvent
from repro.simnet.tracefmt import load_trace, save_trace


def annotate(events: Iterable[TraceEvent], proc: str) -> List[TraceEvent]:
    """Tag each event with the process (trace file) it came from."""
    tagged = []
    for event in events:
        data = dict(event.data) if event.data is not None else {}
        data.setdefault("proc", proc)
        tagged.append(
            TraceEvent(
                time=event.time,
                category=event.category,
                detail=event.detail,
                data=data,
            )
        )
    return tagged


def merge_events(
    streams: Sequence[List[TraceEvent]],
) -> List[TraceEvent]:
    """Stable time-ordered merge of several per-process event lists."""
    merged: List[TraceEvent] = []
    for stream in streams:
        merged.extend(stream)
    merged.sort(key=lambda event: event.time)  # stable: ties keep order
    return merged


def merge_trace_files(paths: Sequence, out_path) -> int:
    """Merge trace logs at ``paths`` into ``out_path``; event count."""
    streams = [
        annotate(load_trace(path), Path(path).stem) for path in paths
    ]
    merged = merge_events(streams)
    save_trace(merged, out_path)
    return len(merged)


def export_trace(path, label: Optional[str] = None) -> Optional[Path]:
    """Copy a trace into ``$REPRO_TRACE_EXPORT`` for CI artifacts.

    A no-op returning ``None`` unless the environment variable names a
    directory (created on demand).  ``label`` overrides the exported
    file's stem; the ``.jsonl`` suffix is kept so the analysis CLI's
    directory scan picks the copy up.
    """
    export_dir = os.environ.get("REPRO_TRACE_EXPORT")
    if not export_dir:
        return None
    source = Path(path)
    destination = Path(export_dir) / (
        f"{label}.jsonl" if label else source.name
    )
    destination.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(source, destination)
    return destination


def run_merge(args) -> int:
    """Entry point for ``python -m repro.transport merge-traces``."""
    count = merge_trace_files(args.traces, args.out)
    print(f"merged {len(args.traces)} trace(s), {count} events -> {args.out}")
    return 0

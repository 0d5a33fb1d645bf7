"""The structured decision tracer — schema-versioned JSONL emission.

A :class:`DecisionTracer` is handed to
:func:`repro.sim.engine.simulate` (``tracer=...``); the engine's
``TracePhase`` builds one schema-versioned record per scheduling round
(see :mod:`repro.obs.schema`) and the tracer serializes it.  A tracer is
on when it is attached.  Design constraints, in order:

1. **Nothing when detached.**  Without a tracer the phase pipeline tests
   one pre-hoisted ``None`` per decision; no record is built, no string
   is formatted, nothing allocates.
2. **Semantics-preserving when attached.**  The tracer only *reads*
   scheduler/engine state, and the scheduler's decision record is asked
   for after the timed decision, so tracing never shows up in decision
   latency; the golden-parity suite pins traced and untraced runs to
   byte-identical schedules.
3. **Streaming.**  Records are written (and flushed on close) as the run
   progresses, so a crashed or truncated simulation still leaves a
   readable prefix.

``DecisionTracer(path)`` owns the file and is a context manager;
``DecisionTracer(sink=...)`` appends parsed records to any ``append``-able
(used by in-memory tests and the CLI round-trips).
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Iterator, Mapping, Optional, TextIO, Union

from repro.obs.schema import TRACE_SCHEMA_VERSION, validate_record

__all__ = [
    "DecisionTracer",
    "read_trace",
    "load_trace",
    "read_trace_set",
    "load_trace_set",
    "trace_part_paths",
    "placements_list",
]

_PART_RE = re.compile(r"\.part-(\d{6})\Z")


class DecisionTracer:
    """Streams schema-versioned decision records to a JSONL file or sink.

    Parameters
    ----------
    path:
        Destination JSONL file (parent directories are created).  Mutually
        exclusive with ``sink``.
    sink:
        Any object with ``append`` (e.g. a list) receiving record dicts
        instead of serialized lines.
    rotate_mb:
        Size-based rotation threshold in MiB (path mode only; ``None``
        disables rotation).  When the live file reaches the threshold it
        is renamed to ``<path>.part-NNNNNN`` (NNNNNN counting up from 0)
        and a fresh live file is opened, so a long-lived ``repro serve``
        never grows one unbounded JSONL.  The logical stream is the part
        files in order followed by the live file — exactly what
        :func:`read_trace_set` replays; ``validate``/``summarize``/``diff``
        in ``python -m repro.obs`` accept the set transparently.
    """

    def __init__(
        self,
        path: Union[str, Path, None] = None,
        *,
        sink: Optional[Any] = None,
        rotate_mb: Optional[float] = None,
    ):
        if path is not None and sink is not None:
            raise ValueError("pass either path or sink, not both")
        if rotate_mb is not None:
            if path is None:
                raise ValueError("rotate_mb requires a path destination")
            if rotate_mb <= 0:
                raise ValueError(f"rotate_mb must be positive (got {rotate_mb})")
        self.records_emitted = 0
        self.parts_rotated = 0
        self._sink = sink
        self._path = Path(path) if path is not None else None
        self._rotate_bytes = (
            int(rotate_mb * 1024 * 1024) if rotate_mb is not None else None
        )
        self._fh: Optional[TextIO] = None

    @property
    def path(self) -> Optional[Path]:
        return self._path

    # -- lifecycle -----------------------------------------------------------
    def _file(self) -> TextIO:
        if self._fh is None:
            assert self._path is not None
            self._path.parent.mkdir(parents=True, exist_ok=True)
            # Opening "w" truncates the live file (fresh-run semantics);
            # rotated parts from a previous run at the same path would
            # otherwise prepend stale rounds to this run's logical stream.
            for stale in trace_part_paths(self._path):
                stale.unlink()
            self._fh = self._path.open("w", encoding="utf-8")
        return self._fh

    def _maybe_rotate(self) -> None:
        """Rename the live file to the next part and reopen (path mode)."""
        if self._rotate_bytes is None or self._fh is None:
            return
        if self._fh.tell() < self._rotate_bytes:
            return
        assert self._path is not None
        self._fh.close()
        part = self._path.with_name(
            f"{self._path.name}.part-{self.parts_rotated:06d}"
        )
        self._path.rename(part)
        self.parts_rotated += 1
        self._fh = self._path.open("w", encoding="utf-8")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "DecisionTracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- emission --------------------------------------------------------------
    def emit(self, record: dict) -> None:
        """Validate and serialize one record (stamping the schema version).

        Every record is checked against the schema here, so a malformed
        producer fails at the source, not in the reader.
        """
        record.setdefault("schema", TRACE_SCHEMA_VERSION)
        validate_record(record)
        self.records_emitted += 1
        if self._sink is not None:
            self._sink.append(record)
            return
        if self._path is None:
            raise ValueError("tracer has neither a path nor a sink")
        json.dump(record, self._file(), separators=(",", ":"), sort_keys=True)
        self._file().write("\n")
        self._maybe_rotate()


def read_trace(path: Union[str, Path]) -> Iterator[dict]:
    """Stream parsed records from a JSONL trace file."""
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not valid JSON: {exc}"
                ) from exc


def load_trace(path: Union[str, Path]) -> list[dict]:
    """Read a whole trace into memory (summarize/diff/export helpers)."""
    return list(read_trace(path))


def trace_part_paths(base: Union[str, Path]) -> list[Path]:
    """Rotated part files belonging to ``base``, in rotation order."""
    base = Path(base)
    parts = [
        candidate
        for candidate in base.parent.glob(f"{base.name}.part-*")
        if _PART_RE.search(candidate.name)
    ]
    parts.sort(key=lambda p: int(_PART_RE.search(p.name).group(1)))  # type: ignore[union-attr]
    return parts


def read_trace_set(path: Union[str, Path]) -> Iterator[dict]:
    """Stream one logical trace: rotated parts in order, then the live file.

    With no rotation this is exactly :func:`read_trace`, so every reader
    (validate/summarize/diff/export) can take the set unconditionally.
    """
    path = Path(path)
    parts = trace_part_paths(path)
    for part in parts:
        yield from read_trace(part)
    if path.exists() or not parts:
        yield from read_trace(path)


def load_trace_set(path: Union[str, Path]) -> list[dict]:
    """Read a whole rotated trace set into memory."""
    return list(read_trace_set(path))


def placements_list(allocation) -> list[list]:
    """Render an :class:`~repro.cluster.allocation.Allocation` (or any
    ``{(node, type): count}`` mapping, or ``None``) as the trace schema's
    sorted ``[[node, type, count], ...]`` triples."""
    if not allocation:
        return []
    placements = getattr(allocation, "placements", allocation)
    return sorted([n, t, c] for (n, t), c in placements.items())

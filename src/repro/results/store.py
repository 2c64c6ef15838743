"""The result store: a durable, queryable home for run records.

:class:`JsonlStore` is one append-only JSON-lines log, one record per line,
and nothing else: opening a store reads the log once, and every ``put``
appends one line that is on disk before it returns, so a campaign killed
mid-batch loses nothing.

:func:`open_store` opens a ``*.jsonl`` path and refuses any other.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

from repro.errors import ResultSchemaError, ResultStoreError
from repro.results.record import RecordBase, decode_record_json
# Every record is built for, or decoded by, a store.  Defining SmrRecord
# registers the "smr" kind, and no other module of the package imports it.
from repro.results import smr_record  # noqa: F401

__all__ = ["JsonlStore", "open_store"]

Where = Callable[[RecordBase], bool]


def _ensure_parent_dir(path: str) -> None:
    """Create the store file's directory; campaigns open stores before --out exists."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as error:
        raise ResultStoreError(f"cannot create store directory {directory!r}: {error}") from error


class JsonlStore:
    """Append-only JSON-lines log of run records.

    A keyed map of records: ``put`` upserts by content key (last write
    wins), iteration preserves first-insertion order, and :meth:`query`
    returns a live :class:`~repro.harness.experiment.ResultSet` so the
    table and stats layers work unchanged on stored data.

    Opening reads the log once and keeps the byte offset of each key's
    latest line.  Every ``put`` appends one line immediately; re-putting a
    key appends a superseding line and the key map tracks its offset.  An
    instance sees only its own appends: records another writer appends to
    the same file appear when the store is reopened.
    """

    backend = "jsonl"

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = os.fspath(path)
        _ensure_parent_dir(self.path)
        self._offsets: Dict[str, int] = {}
        if os.path.exists(self.path):
            self._scan()

    def _scan(self) -> None:
        # Offsets are byte positions (binary mode): text-mode tell() is both
        # disabled during iteration and an opaque cookie, so all file access
        # here speaks bytes and decodes per line.
        offset = 0
        size = os.path.getsize(self.path)
        with open(self.path, "rb") as handle:
            for line in iter(handle.readline, b""):
                stripped = line.strip()
                if stripped:
                    try:
                        record = decode_record_json(stripped.decode("utf-8", "replace"))
                    except ResultSchemaError:
                        if offset + len(line) == size and not line.endswith(b"\n"):
                            # A put() torn by a kill left a partial final line.
                            # Truncate it away so the next append starts clean;
                            # every complete record before it survives.
                            os.truncate(self.path, offset)
                            break
                        raise
                    self._offsets[record.key] = offset
                    if not line.endswith(b"\n"):
                        # A kill between a record and its newline: end the
                        # line, or the next append would run onto it.
                        with open(self.path, "ab") as tail:
                            tail.write(b"\n")
                offset += len(line)

    def put(self, record: RecordBase) -> None:
        with open(self.path, "ab") as handle:
            offset = handle.tell()
            handle.write(record.to_json().encode("utf-8"))
            handle.write(b"\n")
        self._offsets[record.key] = offset

    def get(self, key: str) -> Optional[RecordBase]:
        """A freshly decoded record, or ``None``; callers may keep its outcome."""
        offset = self._offsets.get(key)
        if offset is None:
            return None
        with open(self.path, "rb") as handle:
            handle.seek(offset)
            return decode_record_json(handle.readline().decode("utf-8"))

    def keys(self) -> List[str]:
        return list(self._offsets)

    def __len__(self) -> int:
        return len(self._offsets)

    def records(self) -> Iterator[RecordBase]:
        if not self._offsets:
            return
        with open(self.path, "rb") as handle:
            for offset in self._offsets.values():
                handle.seek(offset)
                yield decode_record_json(handle.readline().decode("utf-8"))

    def flush(self) -> None:
        """Nothing to do: every ``put`` is written before it returns."""

    def close(self) -> None:
        self.flush()

    def __enter__(self) -> "JsonlStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- querying -----------------------------------------------------------
    def query_records(
        self,
        *,
        protocol: Optional[str] = None,
        workload: Optional[str] = None,
        where: Optional[Where] = None,
        tags: Optional[Dict[str, Any]] = None,
    ) -> List[RecordBase]:
        """Records matching every given filter, in store order.

        ``tags`` maps tag names to the values they must equal
        (``store.query_records(tags={"seed": 2})``).
        """
        filters = tags or {}
        matched = []
        for record in self.records():
            if protocol is not None and record.protocol != protocol:
                continue
            if workload is not None and record.workload != workload:
                continue
            if any(record.tags.get(key) != value for key, value in filters.items()):
                continue
            if where is not None and not where(record):
                continue
            matched.append(record)
        return matched

    def query(
        self,
        *,
        protocol: Optional[str] = None,
        workload: Optional[str] = None,
        where: Optional[Where] = None,
        tags: Optional[Dict[str, Any]] = None,
    ):
        """Matching records as a :class:`~repro.harness.experiment.ResultSet`."""
        from repro.results.query import result_set_of

        return result_set_of(
            self.query_records(protocol=protocol, workload=workload, where=where, tags=tags)
        )


def open_store(spec: Union[str, os.PathLike, JsonlStore]) -> JsonlStore:
    """Open (or create) the ``*.jsonl`` store a path names.

    A :class:`JsonlStore` instance passes straight through.  Any other path
    raises :class:`~repro.errors.ResultStoreError` before a file or
    directory is touched, so a store in another format is never read as a
    log.
    """
    if isinstance(spec, JsonlStore):
        return spec
    text = os.fspath(spec)
    if not text.endswith(".jsonl"):
        raise ResultStoreError(
            f"result stores are JSON-lines files: use a *.jsonl path (got {text!r}); "
            "the SQLite and in-memory backends were removed"
        )
    return JsonlStore(text)

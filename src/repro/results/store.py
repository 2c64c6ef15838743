"""The result store: a durable, queryable home for run records.

:class:`JsonlStore` keeps one append-only JSON-lines log plus an atomic
sidecar index (``<path>.index.json``, written via temp-file +
``os.replace``).  Appends are durable immediately; the index is a pure
accelerator — when it is missing or stale the store rescans the log, so a
campaign killed between flushes loses nothing.

:func:`open_store` opens a ``*.jsonl`` path and refuses any other.
"""

from __future__ import annotations

import json
import os
import stat
import tempfile
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

from repro.errors import ResultSchemaError, ResultStoreError
from repro.results.record import SCHEMA_VERSION, RecordBase, decode_record_json
# Every record is built for, or decoded by, a store.  Defining SmrRecord
# registers the "smr" kind, and no other module of the package imports it.
from repro.results import smr_record  # noqa: F401

__all__ = ["JsonlStore", "open_store"]

Where = Callable[[RecordBase], bool]

_INDEX_SCHEMA = f"repro-results-index/{SCHEMA_VERSION}"


def _ensure_parent_dir(path: str) -> None:
    """Create the store file's directory; campaigns open stores before --out exists."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as error:
        raise ResultStoreError(f"cannot create store directory {directory!r}: {error}") from error


class JsonlStore:
    """Append-only JSON-lines log of run records with an atomic sidecar index.

    A keyed map of records: ``put`` upserts by content key (last write
    wins), iteration preserves first-insertion order, and :meth:`query`
    returns a live :class:`~repro.harness.experiment.ResultSet` so the
    table and stats layers work unchanged on stored data.

    Every ``put`` appends one line immediately (durability does not wait for
    :meth:`flush`); re-putting a key appends a superseding line and the
    in-memory key map tracks the latest offset.  ``flush`` rewrites the
    index atomically; on open, an index whose recorded size matches the log
    is trusted, anything else triggers a full rescan — a torn index can cost
    time, never records.
    """

    backend = "jsonl"

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = os.fspath(path)
        self.index_path = self.path + ".index.json"
        _ensure_parent_dir(self.path)
        self._offsets: Dict[str, int] = {}
        self._dirty = False
        # Byte position this instance believes is the end of the log; a put
        # landing anywhere else means another writer appended in between
        # (two processes appending to one store), so the next flush must
        # rescan instead of publishing an index that would mask the foreign
        # records.
        self._end = 0
        self._stale = False
        self._load()

    # -- persistence --------------------------------------------------------
    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        size = os.path.getsize(self.path)
        if os.path.exists(self.index_path):
            try:
                with open(self.index_path, "r", encoding="utf-8") as handle:
                    index = json.load(handle)
                if (
                    index.get("schema") == _INDEX_SCHEMA
                    and index.get("size") == size
                    and isinstance(index.get("offsets"), dict)
                ):
                    self._offsets = {str(k): int(v) for k, v in index["offsets"].items()}
                    self._end = size
                    return
            except (OSError, ValueError):
                pass  # stale or torn index: fall through to a rescan
        self._rescan()

    def _rescan(self) -> None:
        # Offsets are byte positions (binary mode): text-mode tell() is both
        # disabled during iteration and an opaque cookie, so all file access
        # here speaks bytes and decodes per line.
        self._offsets = {}
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
                offset += len(line)
        self._end = offset
        self._stale = False
        self._dirty = True

    def put(self, record: RecordBase) -> None:
        with open(self.path, "ab") as handle:
            offset = handle.tell()
            if offset != self._end:
                self._stale = True  # someone else appended since we last looked
            handle.write(record.to_json().encode("utf-8"))
            handle.write(b"\n")
            self._end = handle.tell()
        self._offsets[record.key] = offset
        self._dirty = True

    def get(self, key: str) -> Optional[RecordBase]:
        offset = self._offsets.get(key)
        if offset is None:
            return None
        with open(self.path, "rb") as handle:
            handle.seek(offset)
            return decode_record_json(handle.readline().decode("utf-8"))

    def keys(self) -> List[str]:
        return list(self._offsets)

    def __contains__(self, key: str) -> bool:
        return key in self._offsets

    def __len__(self) -> int:
        return len(self._offsets)

    def __iter__(self) -> Iterator[RecordBase]:
        return self.records()

    def records(self) -> Iterator[RecordBase]:
        if not self._offsets:
            return
        with open(self.path, "rb") as handle:
            for offset in self._offsets.values():
                handle.seek(offset)
                yield decode_record_json(handle.readline().decode("utf-8"))

    def flush(self) -> None:
        size = os.path.getsize(self.path) if os.path.exists(self.path) else 0
        if self._stale or size != self._end:
            # Another writer appended records we have not indexed; publishing
            # an index whose size matches the file would mask them forever.
            # Rescan first so the index (and this instance) covers everything.
            self._rescan()
            size = os.path.getsize(self.path) if os.path.exists(self.path) else 0
        if not self._dirty:
            return
        index = {
            "schema": _INDEX_SCHEMA,
            "size": size,
            "offsets": self._offsets,
        }
        directory = os.path.dirname(os.path.abspath(self.path))
        fd, temp_path = tempfile.mkstemp(
            prefix=os.path.basename(self.index_path) + ".", dir=directory
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(index, handle)
            # mkstemp creates the file 0600 whatever the umask; the index is
            # as readable as the log it describes.
            os.chmod(temp_path, stat.S_IMODE(os.stat(self.path).st_mode))
            os.replace(temp_path, self.index_path)
        except BaseException:
            if os.path.exists(temp_path):
                os.unlink(temp_path)
            raise
        self._dirty = False

    def close(self) -> None:
        self.flush()

    def __enter__(self) -> "JsonlStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def describe(self) -> str:
        return f"{self.backend}({len(self)} records)"

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

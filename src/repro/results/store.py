"""Pluggable result stores: durable, queryable homes for run records.

Three backends share one :class:`ResultStore` contract (and one
backend-conformance test suite):

``MemoryStore``
    A process-local dict (``open_store("memory")``): nothing survives the
    process, which suits tests and one-off in-process queries.
``JsonlStore``
    One append-only ``records.jsonl`` file plus an atomic sidecar index
    (``<path>.index.json``, written via temp-file + ``os.replace``).  Appends
    are durable immediately; the index is a pure accelerator — when it is
    missing or stale the store rescans the log, so a campaign killed between
    flushes loses nothing.
``SqliteStore``
    A SQLite table with the content-key as primary key and an index over
    ``(protocol, workload)``, so :meth:`ResultStore.query` pushes its
    equality filters into SQL.

:func:`open_store` maps a path (or ``"memory"``) onto a backend by suffix;
``jsonl:`` / ``sqlite:`` prefixes override the guess.
"""

from __future__ import annotations

import json
import os
import sqlite3
import tempfile
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

from repro.errors import ResultSchemaError, ResultStoreError
from repro.results.record import SCHEMA_VERSION, RecordBase, decode_record_json

__all__ = [
    "JsonlStore",
    "MemoryStore",
    "ResultStore",
    "SqliteStore",
    "open_store",
]

Where = Callable[[RecordBase], bool]

_INDEX_SCHEMA = f"repro-results-index/{SCHEMA_VERSION}"


def _ensure_parent_dir(path: str) -> None:
    """Create the store file's directory; campaigns open stores before --out exists."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as error:
        raise ResultStoreError(f"cannot create store directory {directory!r}: {error}") from error


class ResultStore:
    """Contract every backend implements: a keyed map of run records.

    ``put`` upserts by content key (last write wins), iteration preserves
    first-insertion order, and ``query`` returns a live
    :class:`~repro.harness.experiment.ResultSet` so the existing table and
    stats layers work unchanged on stored data.
    """

    backend = "abstract"

    # -- core map protocol --------------------------------------------------
    def put(self, record: RecordBase) -> None:
        raise NotImplementedError

    def get(self, key: str) -> Optional[RecordBase]:
        raise NotImplementedError

    def keys(self) -> List[str]:
        raise NotImplementedError

    def records(self) -> Iterator[RecordBase]:
        raise NotImplementedError

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return len(self.keys())

    def __iter__(self) -> Iterator[RecordBase]:
        return self.records()

    # -- querying -----------------------------------------------------------
    def query_records(
        self,
        *,
        protocol: Optional[str] = None,
        workload: Optional[str] = None,
        where: Optional[Where] = None,
        tags: Optional[Dict[str, Any]] = None,
        **tag_kwargs: Any,
    ) -> List[RecordBase]:
        """Records matching every given filter, in store order.

        Tag equality filters come either as keyword arguments
        (``store.query_records(seed=2)``) or — for tag names that collide
        with the named parameters, like the ubiquitous ``protocol`` tag —
        via the ``tags`` mapping.
        """
        filters = {**(tags or {}), **tag_kwargs}
        matched = []
        for record in self._scan(protocol=protocol, workload=workload):
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
        **tag_kwargs: Any,
    ):
        """Matching records as a :class:`~repro.harness.experiment.ResultSet`."""
        from repro.results.query import result_set_of

        return result_set_of(
            self.query_records(protocol=protocol, workload=workload, where=where,
                               tags=tags, **tag_kwargs)
        )

    def _scan(
        self, protocol: Optional[str] = None, workload: Optional[str] = None
    ) -> Iterator[RecordBase]:
        """Candidate records for a query; backends may pre-filter."""
        return self.records()

    # -- lifecycle ----------------------------------------------------------
    def flush(self) -> None:
        """Make every put durable (no-op for memory-backed stores)."""

    def close(self) -> None:
        self.flush()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def describe(self) -> str:
        return f"{self.backend}({len(self)} records)"


class MemoryStore(ResultStore):
    """Insertion-ordered in-process store."""

    backend = "memory"

    def __init__(self) -> None:
        self._records: Dict[str, RecordBase] = {}

    def put(self, record: RecordBase) -> None:
        self._records[record.key] = record

    def get(self, key: str) -> Optional[RecordBase]:
        return self._records.get(key)

    def keys(self) -> List[str]:
        return list(self._records)

    def records(self) -> Iterator[RecordBase]:
        return iter(list(self._records.values()))


class JsonlStore(ResultStore):
    """Append-only JSON-lines log with an atomic sidecar index.

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
        # (sharded campaigns share one file), so the next flush must rescan
        # instead of publishing an index that would mask the foreign records.
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
            os.replace(temp_path, self.index_path)
        except BaseException:
            if os.path.exists(temp_path):
                os.unlink(temp_path)
            raise
        self._dirty = False


class SqliteStore(ResultStore):
    """SQLite-backed store with indexed (protocol, workload) queries."""

    backend = "sqlite"

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = os.fspath(path)
        _ensure_parent_dir(self.path)
        self._connection = sqlite3.connect(self.path)
        # WAL + synchronous=NORMAL keeps the per-put commit (every record is
        # in the database the moment put() returns, surviving a process kill)
        # without paying a full fsync per record.  In-memory databases reject
        # WAL; that's fine.
        try:
            self._connection.execute("PRAGMA journal_mode=WAL")
            self._connection.execute("PRAGMA synchronous=NORMAL")
        except sqlite3.OperationalError:  # pragma: no cover - esoteric filesystems
            pass
        self._connection.execute(
            """
            CREATE TABLE IF NOT EXISTS records (
                ordinal INTEGER PRIMARY KEY AUTOINCREMENT,
                key TEXT UNIQUE NOT NULL,
                protocol TEXT NOT NULL,
                workload TEXT NOT NULL,
                n INTEGER NOT NULL,
                ts REAL NOT NULL,
                delta REAL NOT NULL,
                seed INTEGER NOT NULL,
                schema_version INTEGER NOT NULL,
                payload TEXT NOT NULL
            )
            """
        )
        self._connection.execute(
            "CREATE INDEX IF NOT EXISTS idx_records_protocol_workload "
            "ON records (protocol, workload)"
        )
        self._connection.commit()

    def put(self, record: RecordBase) -> None:
        # One upsert per put: re-putting a key overwrites the payload but
        # keeps the original ordinal, preserving first-insertion order.
        self._connection.execute(
            "INSERT INTO records "
            "(key, protocol, workload, n, ts, delta, seed, schema_version, payload) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?) "
            "ON CONFLICT(key) DO UPDATE SET "
            "protocol=excluded.protocol, workload=excluded.workload, n=excluded.n, "
            "ts=excluded.ts, delta=excluded.delta, seed=excluded.seed, "
            "schema_version=excluded.schema_version, payload=excluded.payload",
            (
                record.key,
                record.protocol,
                record.workload,
                record.n,
                record.ts,
                record.delta,
                record.seed,
                record.schema_version,
                record.to_json(),
            ),
        )
        self._connection.commit()

    def get(self, key: str) -> Optional[RecordBase]:
        cursor = self._connection.execute(
            "SELECT payload FROM records WHERE key = ?", (key,)
        )
        row = cursor.fetchone()
        return decode_record_json(row[0]) if row is not None else None

    def keys(self) -> List[str]:
        cursor = self._connection.execute("SELECT key FROM records ORDER BY ordinal")
        return [row[0] for row in cursor.fetchall()]

    def records(self) -> Iterator[RecordBase]:
        cursor = self._connection.execute("SELECT payload FROM records ORDER BY ordinal")
        for (payload,) in cursor:
            yield decode_record_json(payload)

    def _scan(
        self, protocol: Optional[str] = None, workload: Optional[str] = None
    ) -> Iterator[RecordBase]:
        clauses, args = [], []
        if protocol is not None:
            clauses.append("protocol = ?")
            args.append(protocol)
        if workload is not None:
            clauses.append("workload = ?")
            args.append(workload)
        sql = "SELECT payload FROM records"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY ordinal"
        for (payload,) in self._connection.execute(sql, args):
            yield decode_record_json(payload)

    def __len__(self) -> int:
        cursor = self._connection.execute("SELECT COUNT(*) FROM records")
        return cursor.fetchone()[0]

    def close(self) -> None:
        self.flush()
        self._connection.close()


_SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")


def open_store(spec: Union[str, os.PathLike, ResultStore]) -> ResultStore:
    """Open (or create) the store a path names.

    ``"memory"``/``":memory:"`` → :class:`MemoryStore`; ``*.jsonl`` →
    :class:`JsonlStore`; ``*.sqlite``/``*.sqlite3``/``*.db`` →
    :class:`SqliteStore`.  Explicit ``jsonl:PATH`` / ``sqlite:PATH``
    prefixes override the suffix guess.  A :class:`ResultStore` instance
    passes straight through.
    """
    if isinstance(spec, ResultStore):
        return spec
    text = os.fspath(spec)
    if text in ("memory", ":memory:"):
        return MemoryStore()
    if text.startswith("jsonl:"):
        return JsonlStore(text[len("jsonl:"):])
    if text.startswith("sqlite:"):
        return SqliteStore(text[len("sqlite:"):])
    if text.endswith(".jsonl"):
        return JsonlStore(text)
    if text.endswith(_SQLITE_SUFFIXES):
        return SqliteStore(text)
    raise ResultStoreError(
        f"cannot infer a store backend from {text!r}; use a .jsonl / .sqlite / .db "
        "path, 'memory', or an explicit jsonl:/sqlite: prefix"
    )

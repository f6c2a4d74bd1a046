"""SQLite index over the JSONL run registry: a disposable query cache.

The append-only ``runs.jsonl`` stays the single source of truth (see
:mod:`repro.runs.registry`); a :class:`RunIndex` sits *next to* it as
``runs.index.sqlite``, mapping queryable scenario fields and the
content-addressed ``scenario_key`` to the byte range of each record, so
``query``/``latest``/``load`` over millions of records hit B-tree lookups
plus one ``seek``+``read`` instead of a full-file parse.

The index is a cache, never a second store:

* :meth:`RunIndex.refresh` tail-scans only the bytes appended since the
  last refresh, so keeping the index current is O(new records).
* Any mismatch — index schema bump, record schema bump, a shrunk or
  rewritten records file (``doctor --quarantine``), or a corrupt/absent
  SQLite file — triggers a silent full rebuild from the JSONL.  Deleting
  ``runs.index.sqlite`` is always safe; ``repro runs reindex`` does a
  rebuild explicitly and reports what it indexed.
* Writes go through :meth:`~repro.runs.registry.RunRegistry.save` only;
  the index never appends records itself (lint rule REP007 enforces that
  no other module opens the registry files directly).

Corrupt lines and records from a foreign :data:`~repro.runs.result.SCHEMA_VERSION`
are counted but not indexed — exactly the records a full scan would skip,
which is what keeps indexed and scanned query results identical.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path
from types import TracebackType
from typing import Any, Iterator

from ..errors import RegistryError
from ..obs.metrics import METRICS
from .registry import RunRegistry
from .result import SCHEMA_VERSION, RunResult
from .scenario import canonical_backend

__all__ = ["RunIndex", "INDEX_SCHEMA_VERSION"]

#: Bump whenever the index layout (or what a row holds) changes; a
#: mismatch forces a rebuild.  2: ``backend`` holds the canonical name
#: (retired aliases such as ``model`` resolved, see ``canonical_backend``).
INDEX_SCHEMA_VERSION = 2

_INDEX_FILE = "runs.index.sqlite"

_CREATE = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id TEXT NOT NULL,
    kind TEXT NOT NULL,
    label TEXT NOT NULL,
    backend TEXT,
    topology TEXT,
    pattern TEXT,
    num_processors INTEGER,
    message_flits INTEGER,
    scenario_key TEXT,
    created_at REAL NOT NULL,
    offset INTEGER NOT NULL,
    length INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_runs_run_id ON runs (run_id);
CREATE INDEX IF NOT EXISTS idx_runs_scenario_key ON runs (scenario_key);
CREATE INDEX IF NOT EXISTS idx_runs_topology ON runs (topology);
CREATE INDEX IF NOT EXISTS idx_runs_kind ON runs (kind);
CREATE INDEX IF NOT EXISTS idx_runs_label ON runs (label);
"""

# Queryable columns exposed through query(); everything else needs the
# registry's predicate-based scan.
_FILTER_COLUMNS = (
    "kind",
    "label",
    "backend",
    "topology",
    "pattern",
    "num_processors",
    "message_flits",
    "scenario_key",
)


class RunIndex:
    """Indexed reads over one :class:`~repro.runs.registry.RunRegistry`.

    >>> from repro.runs import RunRegistry
    >>> from repro.runs.index import RunIndex
    >>> index = RunIndex(RunRegistry("bench-smoke/registry"))  # doctest: +SKIP
    >>> index.query(topology="bft")                            # doctest: +SKIP
    """

    def __init__(self, registry: RunRegistry) -> None:
        self.registry = registry
        #: Records skipped by the last refresh because their schema version
        #: or structure made them unindexable (mirrors the scan counters).
        self.skipped = 0
        self._conn: sqlite3.Connection | None = None

    @property
    def path(self) -> Path:
        return self.registry.path / _INDEX_FILE

    # --- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "RunIndex":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()

    def _connect(self) -> sqlite3.Connection:
        if self._conn is None:
            self.registry.path.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(self.path)
            conn.row_factory = sqlite3.Row
            conn.executescript(_CREATE)
            self._conn = conn
        return self._conn

    def _meta(self, conn: sqlite3.Connection, key: str) -> str | None:
        row = conn.execute("SELECT value FROM meta WHERE key = ?", (key,)).fetchone()
        return None if row is None else str(row["value"])

    def _set_meta(self, conn: sqlite3.Connection, key: str, value: str) -> None:
        conn.execute(
            "INSERT INTO meta (key, value) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
            (key, value),
        )

    # --- building ----------------------------------------------------------------

    def _reset(self) -> sqlite3.Connection:
        """Drop the SQLite file and start an empty index."""
        self.close()
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
        return self._connect()

    def refresh(self) -> int:
        """Bring the index up to date; returns newly indexed record count.

        Incremental (tail-scan of appended bytes) in the common case; any
        inconsistency — corrupt SQLite file, foreign index or record
        schema, shrunk records file — silently falls back to a full
        rebuild, because the JSONL is canonical and the index never is.
        """
        try:
            return self._refresh()
        except sqlite3.Error:
            METRICS.add("index.rebuilds.corrupt")
            self._reset()
            return self._refresh()

    def rebuild(self) -> int:
        """Rebuild from byte 0 unconditionally; returns indexed record count."""
        self._reset()
        return self._refresh()

    def _refresh(self) -> int:
        conn = self._connect()
        index_schema = self._meta(conn, "index_schema")
        record_schema = self._meta(conn, "record_schema")
        if (
            index_schema is not None
            and (
                index_schema != str(INDEX_SCHEMA_VERSION)
                or record_schema != str(SCHEMA_VERSION)
            )
        ):
            METRICS.add("index.rebuilds.schema")
            conn = self._reset()
            index_schema = None
        indexed_bytes = int(self._meta(conn, "indexed_bytes") or 0)
        records_path = self.registry.records_path
        size = records_path.stat().st_size if records_path.exists() else 0
        if size < indexed_bytes:
            # doctor --quarantine (or a hand edit) rewrote the file: the
            # indexed byte ranges no longer address the right records.
            METRICS.add("index.rebuilds.shrunk")
            conn = self._reset()
            indexed_bytes = 0
        added = 0
        self.skipped = 0
        with conn:
            for offset, length, record in self._tail(records_path, indexed_bytes):
                indexed_bytes = offset + length
                row = self._row_for(record, offset, length)
                if row is None:
                    self.skipped += 1
                    continue
                conn.execute(
                    "INSERT INTO runs (run_id, kind, label, backend, topology,"
                    " pattern, num_processors, message_flits, scenario_key,"
                    " created_at, offset, length)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    row,
                )
                added += 1
            self._set_meta(conn, "index_schema", str(INDEX_SCHEMA_VERSION))
            self._set_meta(conn, "record_schema", str(SCHEMA_VERSION))
            self._set_meta(conn, "indexed_bytes", str(indexed_bytes))
        METRICS.add("index.refreshes")
        METRICS.add("index.records_indexed", added)
        return added

    def _tail(
        self, records_path: Path, start: int
    ) -> Iterator[tuple[int, int, dict[str, Any] | None]]:
        """Yield ``(offset, length, record_or_None)`` for complete new lines.

        A trailing line without ``\\n`` is an append still in flight —
        left for the next refresh, like the registry's memoized scan.
        """
        if not records_path.exists():
            return
        with records_path.open("rb") as fh:
            fh.seek(start)
            offset = start
            for raw_line in fh:
                if not raw_line.endswith(b"\n"):
                    return
                length = len(raw_line)
                stripped = raw_line.strip()
                record: dict[str, Any] | None = None
                if stripped:
                    try:
                        parsed = json.loads(stripped.decode("utf-8"))
                    except (json.JSONDecodeError, UnicodeDecodeError):
                        parsed = None
                    if isinstance(parsed, dict):
                        record = parsed
                if stripped:
                    yield offset, length, record
                offset += length

    def _row_for(
        self, record: dict[str, Any] | None, offset: int, length: int
    ) -> tuple[Any, ...] | None:
        """Map one raw record to its index row (None = unindexable, skip)."""
        if record is None or record.get("schema_version") != SCHEMA_VERSION:
            return None
        run_id = record.get("run_id")
        created_at = record.get("created_at")
        if not isinstance(run_id, str) or not isinstance(created_at, (int, float)):
            return None
        scenario = record.get("scenario")
        if not isinstance(scenario, dict):
            scenario = {}
        provenance = record.get("provenance")
        if not isinstance(provenance, dict):
            provenance = {}
        backend = canonical_backend(
            scenario.get("backend") or provenance.get("backend")
        )
        return (
            run_id,
            str(record.get("kind", "scenario")),
            str(record.get("label", "")),
            backend,
            scenario.get("topology"),
            scenario.get("pattern"),
            scenario.get("num_processors"),
            scenario.get("message_flits"),
            provenance.get("scenario_key"),
            float(created_at),
            offset,
            length,
        )

    # --- reading -----------------------------------------------------------------

    def _record_at(self, offset: int, length: int) -> RunResult:
        """Load one record straight from its byte range in the JSONL file."""
        with self.registry.records_path.open("rb") as fh:
            fh.seek(offset)
            raw = fh.read(length)
        try:
            data = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise RegistryError(
                f"index points at bytes {offset}..{offset + length} of "
                f"{self.registry.records_path} but they are not a record; "
                "run `repro runs reindex`"
            ) from exc
        return RunResult.from_json(data)

    def count(self) -> int:
        """Indexed record count (refreshes first)."""
        self.refresh()
        conn = self._connect()
        row = conn.execute("SELECT COUNT(*) AS n FROM runs").fetchone()
        return int(row["n"])

    def latest(self) -> RunResult | None:
        """The most recently appended indexed record (refreshes first)."""
        self.refresh()
        conn = self._connect()
        row = conn.execute(
            "SELECT offset, length FROM runs ORDER BY seq DESC LIMIT 1"
        ).fetchone()
        if row is None:
            return None
        return self._record_at(int(row["offset"]), int(row["length"]))

    def load(self, run_id: str) -> RunResult:
        """Load one record by id (or ``"latest"``) via the index."""
        if run_id == "latest":
            record = self.latest()
            if record is None:
                raise RegistryError(f"registry {self.registry.path} holds no runs")
            return record
        self.refresh()
        conn = self._connect()
        row = conn.execute(
            "SELECT offset, length FROM runs WHERE run_id = ? "
            "ORDER BY seq DESC LIMIT 1",
            (run_id,),
        ).fetchone()
        if row is None:
            raise RegistryError(f"run {run_id!r} not found in {self.registry.path}")
        return self._record_at(int(row["offset"]), int(row["length"]))

    def query(self, **filters: Any) -> list[RunResult]:
        """Filter indexed records (insertion order), like ``registry.query``.

        Accepted filters: ``kind``, ``label``, ``backend``, ``topology``,
        ``pattern``, ``num_processors``, ``message_flits`` and
        ``scenario_key``; ``None`` values mean "any".
        """
        unknown = set(filters) - set(_FILTER_COLUMNS)
        if unknown:
            raise RegistryError(
                f"unknown index filter(s): {', '.join(sorted(unknown))}; "
                f"indexed fields are {', '.join(_FILTER_COLUMNS)}"
            )
        self.refresh()
        conn = self._connect()
        clauses = []
        params: list[Any] = []
        filters["backend"] = canonical_backend(filters.get("backend"))
        for column in _FILTER_COLUMNS:
            value = filters.get(column)
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        sql = "SELECT offset, length FROM runs"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY seq"
        METRICS.add("index.queries")
        rows = conn.execute(sql, params).fetchall()
        return [self._record_at(int(r["offset"]), int(r["length"])) for r in rows]

    def find_by_scenario_key(self, scenario_key: str) -> RunResult | None:
        """The most recent record whose provenance carries ``scenario_key``.

        This is the service's cache-lookup primitive: the key is content
        addressed (:func:`repro.runs.scenario.scenario_key`), so a hit is
        an exact answer to the same question, faults and backend included.
        """
        self.refresh()
        conn = self._connect()
        row = conn.execute(
            "SELECT offset, length FROM runs WHERE scenario_key = ? "
            "ORDER BY seq DESC LIMIT 1",
            (scenario_key,),
        ).fetchone()
        if row is None:
            return None
        return self._record_at(int(row["offset"]), int(row["length"]))

"""Persistent performance archive: append-only run history on disk.

Every synthesis probe, candidate sweep, Pareto run, planning-service
request and benchmark row can append one :class:`RunRecord` to a
:class:`PerfArchive` — a directory of append-only JSONL *segments* under
``~/.cache/repro/perf`` (override with ``$REPRO_PERF_DIR``, kill with
``$REPRO_PERF_DISABLE=1``).  Unlike the ``BENCH_*.json`` snapshots, which
each run overwrites, the archive keeps the whole trajectory, so

* ``repro perf history`` can show trends and ``repro perf compare`` can
  diff two runs phase by phase, and
* ``repro perf regressions`` can flag a fresh benchmark that fell outside
  a tolerance band around the archived trajectory (the CI sentinel).

Write discipline mirrors :mod:`repro.engine.cache`: appends serialize on
an advisory ``fcntl`` lock file so concurrent processes (pool workers,
parallel test runs, several services sharing one host) interleave whole
lines, never halves.  Reads take no lock and tolerate torn tails: a
truncated or corrupt line — a writer killed mid-append, a disk that filled
up — is counted and skipped, never raised.  Recording is *always* best
effort: an unwritable archive must never fail the synthesis or request
that tried to record into it.

Recording must not tax the path it observes either, so the producer hook
:func:`record_run` does no I/O: it finishes the line and holds it back,
and a root's held lines are written in one locked append when there are
64 of them, when the oldest is a second old at the next record, before
this process reads that root, on :func:`set_archive`, at interpreter exit
and wherever :func:`flush_records` is called (the end of a pool-worker
task; ``PlanningService.stop``, which is ``repro serve``'s shutdown
path).  A process killed outright therefore loses at most 64 lines or one
second of records.  :meth:`PerfArchive.append` remains the immediate,
unbuffered write.

Records carry host context (hostname, cpu count, python version) because
timings from different hosts must never be compared against each other:
the regression sentinel partitions on :func:`host_fingerprint`.
"""

from __future__ import annotations

import atexit
import dataclasses
import json
import math
import os
import platform
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

try:  # POSIX only; elsewhere appends fall back to best-effort O_APPEND.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

ARCHIVE_FORMAT_VERSION = 1

#: Environment variable overriding the default archive directory.
ARCHIVE_DIR_ENV = "REPRO_PERF_DIR"
#: Set to 1/true/yes to disable all recording (reads still work).
ARCHIVE_DISABLE_ENV = "REPRO_PERF_DISABLE"


class ArchiveError(Exception):
    """Raised for invalid archive queries (never from the record path)."""


# ----------------------------------------------------------------------
# Host context
# ----------------------------------------------------------------------
def host_context() -> Dict[str, object]:
    """Where a measurement was taken: the context that makes it comparable.

    Archived runs from different hosts are never compared against each
    other (a 64-core build box and a 1-core CI runner disagree about
    everything); :func:`host_fingerprint` is the partition key.  Computed
    once per process; every caller gets its own copy.
    """
    global _HOST
    if _HOST is None:
        _HOST = {
            "hostname": socket.gethostname(),
            "cpu_count": os.cpu_count() or 1,
            "python": platform.python_version(),
            "platform": platform.system().lower(),
        }
    return dict(_HOST)


_HOST: Optional[Dict[str, object]] = None


def host_fingerprint(host: Optional[Dict[str, object]] = None) -> str:
    """The comparability key: records with different fingerprints never meet."""
    host = host if host is not None else host_context()
    return "{}/{}cpu/py{}".format(
        host.get("hostname", "?"), host.get("cpu_count", "?"),
        host.get("python", "?"),
    )


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
@dataclass
class RunRecord:
    """One archived measurement (a probe, sweep, pareto run, request or bench row).

    ``kind`` partitions the archive: ``probe`` (one solver candidate),
    ``sweep`` (one step count's candidate sweep), ``pareto`` (a whole
    Algorithm-1 run), ``service`` (one planning request, ``extra['rung']``
    holding the resolver-ladder rung that answered) and ``bench`` (one
    benchmark metric row).  ``fingerprint`` is content-addressed where the
    producer has a natural content hash (instance fingerprints, request
    keys); ``features`` holds the coarse instance shape the probe-time
    model buckets on.
    """

    kind: str
    name: str = ""
    fingerprint: str = ""
    features: Dict[str, object] = field(default_factory=dict)
    strategy: str = ""
    backend: str = ""
    verdict: str = ""
    wall_s: float = 0.0
    phases: Dict[str, float] = field(default_factory=dict)
    quantiles: Dict[str, float] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)
    host: Dict[str, object] = field(default_factory=dict)
    session: str = ""
    run_id: str = ""
    created_at: float = 0.0

    def to_json(self) -> dict:
        """The record's fields (shared, not copied) plus the format version."""
        return dict(vars(self), version=ARCHIVE_FORMAT_VERSION)

    @classmethod
    def from_json(cls, data: dict) -> "RunRecord":
        if not isinstance(data, dict) or not data.get("kind"):
            raise ArchiveError("not a run record")
        known = {f.name for f in dataclasses.fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in known}
        record = cls(**kwargs)
        record.wall_s = float(record.wall_s or 0.0)
        record.created_at = float(record.created_at or 0.0)
        return record

    def host_key(self) -> str:
        return host_fingerprint(self.host or None)

    def describe(self) -> str:
        """One history line: when, what, how long, how it went."""
        when = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(self.created_at))
        label = self.name or self.fingerprint[:12] or "?"
        bits = [f"{when}", f"{self.kind:<7}", f"{label}"]
        if self.strategy:
            bits.append(f"strategy={self.strategy}")
        if self.backend:
            bits.append(f"backend={self.backend}")
        if self.verdict:
            bits.append(f"-> {self.verdict}")
        bits.append(f"{self.wall_s:.3f}s")
        return "  ".join(bits)


def exact_quantiles(
    values, quantiles=(0.50, 0.95, 0.99)
) -> Dict[str, float]:
    """Exact empirical quantiles of a sample list: ``{"p50": ..., ...}``.

    Producers that still hold the raw per-probe timings record these, so
    the archive carries true distribution shape — not just totals, and not
    the bucket-interpolated estimates the live metrics registry serves.
    """
    ordered = sorted(float(v) for v in values)
    if not ordered:
        return {}
    out: Dict[str, float] = {}
    for q in quantiles:
        index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
        out[f"p{int(round(q * 100))}"] = ordered[index]
    return out


def _session_id() -> str:
    """This process's session id, computed once (a forked child gets its own)."""
    global _SESSION
    if _SESSION is None:
        _SESSION = (
            f"{host_context()['hostname']}-{os.getpid()}-{int(_SESSION_EPOCH * 1000):x}"
        )
    return _SESSION


_SESSION: Optional[str] = None
_SESSION_EPOCH = time.time()
_SEQ_LOCK = threading.Lock()
_SEQ = 0


def _next_run_id(created_at: float) -> str:
    global _SEQ
    with _SEQ_LOCK:
        _SEQ += 1
        seq = _SEQ
    return f"{int(created_at * 1000):x}-{os.getpid()}-{seq}"


def _finish(record: RunRecord) -> str:
    """Stamp the bookkeeping fields; returns the record's archive line."""
    if not record.created_at:
        record.created_at = time.time()
    if not record.run_id:
        record.run_id = _next_run_id(record.created_at)
    if not record.session:
        record.session = _session_id()
    if not record.host:
        record.host = host_context()
    return json.dumps(record.to_json(), sort_keys=True, separators=(",", ":")) + "\n"


# ----------------------------------------------------------------------
# The archive
# ----------------------------------------------------------------------
class PerfArchive:
    """Append-only JSONL segment store (see module docstring).

    Segments are one file per UTC day (``segment-YYYYMMDD.jsonl``): small
    enough to prune by age, few enough that loading the whole trajectory
    stays one directory scan.
    """

    SEGMENT_PREFIX = "segment-"
    SEGMENT_SUFFIX = ".jsonl"
    LOCK_NAME = ".lock"

    def __init__(self, root=None) -> None:
        self.root = Path(root) if root is not None else default_archive_dir()
        self._key = os.path.abspath(self.root)  # names the root in _PENDING
        #: Lines the last load skipped because they would not parse.
        self.corrupt_lines = 0

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _segment_path(self, created_at: float) -> Path:
        day = time.strftime("%Y%m%d", time.gmtime(created_at))
        return self.root / f"{self.SEGMENT_PREFIX}{day}{self.SEGMENT_SUFFIX}"

    def append(self, record: RunRecord) -> bool:
        """Durably append one record; False (never an exception) on failure."""
        line = _finish(record)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError:
            return False
        return self._write(self._segment_path(record.created_at), line)

    def _write(self, path: Path, lines: str) -> bool:
        """Append whole lines to one segment of an existing root in a single
        ``write``.

        The advisory lock serializes whole-line appends across processes;
        on lock failure the append still proceeds — O_APPEND keeps single
        ``write`` calls intact on POSIX for these line sizes, the lock just
        removes any doubt.
        """
        try:
            with open(self.root / self.LOCK_NAME, "a+") as lock_handle:
                if fcntl is not None:
                    try:
                        fcntl.flock(lock_handle.fileno(), fcntl.LOCK_EX)
                    except OSError:
                        pass
                try:
                    with open(path, "a", encoding="utf-8") as handle:
                        handle.write(lines)
                        handle.flush()
                finally:
                    if fcntl is not None:
                        try:
                            fcntl.flock(lock_handle.fileno(), fcntl.LOCK_UN)
                        except OSError:
                            pass
        except OSError:
            return False
        return True

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def segments(self) -> List[Path]:
        flush_records(self.root)  # a read sees everything this process recorded
        if not self.root.exists():
            return []
        return sorted(
            p for p in self.root.iterdir()
            if p.name.startswith(self.SEGMENT_PREFIX)
            and p.name.endswith(self.SEGMENT_SUFFIX)
        )

    def iter_records(
        self,
        *,
        kind: Optional[str] = None,
        host: Optional[str] = None,
        predicate: Optional[Callable[[RunRecord], bool]] = None,
    ) -> Iterator[RunRecord]:
        """Records in append order, skipping (and counting) corrupt lines.

        ``host`` filters on :func:`host_fingerprint`; pass
        ``host_fingerprint()`` to see only this machine's trajectory.
        """
        self.corrupt_lines = 0
        for segment in self.segments():
            try:
                with open(segment, "r", encoding="utf-8") as handle:
                    for line in handle:
                        line = line.strip()
                        if not line:
                            continue
                        try:
                            record = RunRecord.from_json(json.loads(line))
                        except (ValueError, TypeError, ArchiveError):
                            # Torn tail of a killed writer, or hand damage.
                            self.corrupt_lines += 1
                            continue
                        if kind is not None and record.kind != kind:
                            continue
                        if host is not None and record.host_key() != host:
                            continue
                        if predicate is not None and not predicate(record):
                            continue
                        yield record
            except OSError:
                continue

    def records(self, **kwargs) -> List[RunRecord]:
        return list(self.iter_records(**kwargs))

    def tail(self, n: int, **kwargs) -> List[RunRecord]:
        records = self.records(**kwargs)
        return records[-n:] if n >= 0 else records

    def find(self, token: str, **kwargs) -> List[RunRecord]:
        """Records whose run id, session or fingerprint starts with ``token``.

        ``@N`` addresses the Nth most recent record instead (``@0`` is the
        latest) — the form the CLI examples use.
        """
        records = self.records(**kwargs)
        if token.startswith("@"):
            try:
                index = int(token[1:])
            except ValueError as exc:
                raise ArchiveError(f"bad record address {token!r}") from exc
            if index < 0 or index >= len(records):
                raise ArchiveError(
                    f"{token} is out of range (archive has {len(records)} "
                    f"matching records)"
                )
            return [records[-1 - index]]
        return [
            r for r in records
            if r.run_id.startswith(token)
            or r.session.startswith(token)
            or (token and r.fingerprint.startswith(token))
        ]

    def stats(self) -> Dict[str, object]:
        records = self.records()
        kinds: Dict[str, int] = {}
        for record in records:
            kinds[record.kind] = kinds.get(record.kind, 0) + 1
        total_bytes = 0
        for segment in self.segments():
            try:
                total_bytes += segment.stat().st_size
            except OSError:
                pass
        return {
            "root": str(self.root),
            "records": len(records),
            "kinds": kinds,
            "segments": len(self.segments()),
            "bytes": total_bytes,
            "corrupt_lines": self.corrupt_lines,
        }

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def prune(self, *, max_age_s: Optional[float] = None,
              now: Optional[float] = None) -> List[Path]:
        """Drop whole segments older than the horizon; returns removed paths."""
        if max_age_s is None:
            return []
        now = time.time() if now is None else now
        removed: List[Path] = []
        for segment in self.segments():
            try:
                if now - segment.stat().st_mtime > max_age_s:
                    segment.unlink()
                    removed.append(segment)
            except OSError:
                continue
        return removed


# ----------------------------------------------------------------------
# Process-wide access
# ----------------------------------------------------------------------
def default_archive_dir() -> Path:
    """The archive directory: $REPRO_PERF_DIR or ~/.cache/repro/perf."""
    override = os.environ.get(ARCHIVE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "perf"


def recording_enabled() -> bool:
    return os.environ.get(ARCHIVE_DISABLE_ENV, "0") in ("", "0", "false", "no")


_ARCHIVES: Dict[str, PerfArchive] = {}
_ARCHIVES_LOCK = threading.Lock()
_OVERRIDE: Optional[PerfArchive] = None


def get_archive() -> PerfArchive:
    """The ambient archive (honours $REPRO_PERF_DIR at *call* time)."""
    if _OVERRIDE is not None:
        return _OVERRIDE
    root = str(default_archive_dir())
    with _ARCHIVES_LOCK:
        archive = _ARCHIVES.get(root)
        if archive is None:
            archive = _ARCHIVES[root] = PerfArchive(root)
        return archive


def set_archive(archive: Optional[PerfArchive]) -> Optional[PerfArchive]:
    """Install an explicit archive (``None`` restores env resolution)."""
    global _OVERRIDE
    flush_records()
    previous = _OVERRIDE
    _OVERRIDE = archive
    return previous


#: What :func:`record_run` holds back, per archive root: finished lines as
#: ``(recorded at, created_at, line)``, written in one locked append once
#: there are ``_FLUSH_LINES`` of them or the oldest is ``_FLUSH_AGE_S`` old.
#: A root has an entry from its first record, which goes straight to disk,
#: until a batch finds the root gone.
_PENDING: Dict[str, List[Tuple[float, float, str]]] = {}
_PENDING_LOCK = threading.Lock()
_FLUSH_LINES = 64
_FLUSH_AGE_S = 1.0


def flush_records(root=None) -> None:
    """Write the records :func:`record_run` still holds back (for one
    archive root; for every root when None).

    Runs at interpreter exit and before this process reads the root; call
    it where neither happens — at the end of a pool-worker task (pool
    children skip ``atexit``) and when a service stops.
    """
    with _PENDING_LOCK:
        for key in list(_PENDING) if root is None else [os.path.abspath(root)]:
            pending = _PENDING.get(key)
            if not pending:
                continue
            archive = PerfArchive(key)
            batches: Dict[Path, List[str]] = {}
            for _, created_at, line in pending:
                batches.setdefault(archive._segment_path(created_at), []).append(line)
            del pending[:]
            for path, lines in batches.items():
                if not archive._write(path, "".join(lines)):
                    # The root is gone (a throwaway archive deleted by its
                    # owner): never resurrect it from here; the next record
                    # goes through append again, which creates it.
                    _PENDING.pop(key, None)


def _after_fork_in_child() -> None:
    """A forked child starts empty: its parent writes the lines it held back,
    and the lock may belong to a thread that does not exist here."""
    global _PENDING_LOCK, _SESSION
    _PENDING.clear()
    _PENDING_LOCK = threading.Lock()
    _SESSION = None


atexit.register(flush_records)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def record_run(kind: str, **fields) -> Optional[RunRecord]:
    """Build one record for the ambient archive; None when disabled or failed.

    The one-call producer hook used by the synthesizer, the sweep loop,
    the Pareto loop, the service resolver and the benchmark harness.  The
    finished line joins the root's pending batch (see ``_PENDING``), so a
    record costs its caller no I/O.  Never raises: recording is an
    observation, not a dependency.
    """
    if not recording_enabled():
        return None
    try:
        record = RunRecord(kind=kind, **fields)
        archive = get_archive()
        with _PENDING_LOCK:
            pending = _PENDING.get(archive._key)
            if pending is None:
                # A root's first record goes straight to disk, which creates
                # the root; an unwritable one fails here, every time.
                if not archive.append(record):
                    return None
                _PENDING[archive._key] = []
                return record
            line = _finish(record)
            now = time.monotonic()
            pending.append((now, record.created_at, line))
            due = len(pending) >= _FLUSH_LINES or now - pending[0][0] > _FLUSH_AGE_S
        if due:
            flush_records(archive.root)
        return record
    except Exception:
        return None

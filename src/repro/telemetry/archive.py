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

Records carry host context (hostname, cpu count, python version) because
timings from different hosts must never be compared against each other:
the regression sentinel partitions on :func:`host_fingerprint`.
"""

from __future__ import annotations

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
from typing import Callable, Dict, Iterator, List, Optional

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
    everything); :func:`host_fingerprint` is the partition key.
    """
    return {
        "hostname": socket.gethostname(),
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": platform.system().lower(),
    }


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
        data = dataclasses.asdict(self)
        data["version"] = ARCHIVE_FORMAT_VERSION
        return data

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
    return f"{socket.gethostname()}-{os.getpid()}-{int(_SESSION_EPOCH * 1000):x}"


_SESSION_EPOCH = time.time()
_SEQ_LOCK = threading.Lock()
_SEQ = 0


def _next_run_id(created_at: float) -> str:
    global _SEQ
    with _SEQ_LOCK:
        _SEQ += 1
        seq = _SEQ
    return f"{int(created_at * 1000):x}-{os.getpid()}-{seq}"


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
        #: Lines the last load skipped because they would not parse.
        self.corrupt_lines = 0

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _segment_path(self, created_at: float) -> Path:
        day = time.strftime("%Y%m%d", time.gmtime(created_at))
        return self.root / f"{self.SEGMENT_PREFIX}{day}{self.SEGMENT_SUFFIX}"

    def append(self, record: RunRecord) -> bool:
        """Durably append one record; False (never an exception) on failure.

        The advisory lock serializes whole-line appends across processes;
        on lock failure the append still proceeds — O_APPEND keeps single
        ``write`` calls intact on POSIX for these line sizes, the lock just
        removes any doubt.
        """
        if not record.created_at:
            record.created_at = time.time()
        if not record.run_id:
            record.run_id = _next_run_id(record.created_at)
        if not record.session:
            record.session = _session_id()
        if not record.host:
            record.host = host_context()
        line = json.dumps(record.to_json(), sort_keys=True,
                          separators=(",", ":")) + "\n"
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            path = self._segment_path(record.created_at)
            with open(self.root / self.LOCK_NAME, "a+") as lock_handle:
                if fcntl is not None:
                    try:
                        fcntl.flock(lock_handle.fileno(), fcntl.LOCK_EX)
                    except OSError:
                        pass
                try:
                    with open(path, "a", encoding="utf-8") as handle:
                        handle.write(line)
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
    previous = _OVERRIDE
    _OVERRIDE = archive
    return previous


def record_run(kind: str, **fields) -> Optional[RunRecord]:
    """Build and append one record to the ambient archive; None when disabled.

    The one-call producer hook used by the synthesizer, the sweep loop,
    the Pareto loop, the service resolver and the benchmark harness.
    Never raises: recording is an observation, not a dependency.
    """
    if not recording_enabled():
        return None
    try:
        record = RunRecord(kind=kind, **fields)
        if get_archive().append(record):
            return record
    except Exception:
        pass
    return None

"""Persistent, content-addressed cache of synthesized algorithms.

Every solved ``(topology, collective, C, S, R, root)`` candidate is
fingerprinted with SHA-256 over a canonical JSON payload and
stored as one JSON file per entry.  SAT entries carry the verified
algorithm's serialized schedule; UNSAT entries carry just the status, so a
warm Pareto sweep skips its failed probes as well as its successes.
UNKNOWN results are never cached — they depend on the resource limits of
the run that produced them.

The fingerprint covers only what determines satisfiability: the topology's
structure (node count and bandwidth constraints — *not* its name or its
alpha/beta cost parameters) and the instance signature, plus the constant
:data:`FORMULA`.  On a hit the stored algorithm is re-verified against the
run semantics and re-attached to the *requested* topology object, so cost
queries use the caller's alpha/beta.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

try:  # POSIX only; on other platforms mutations fall back to best-effort.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

from ..core.algorithm import Algorithm
from ..core.bounds import Cut
from ..core.instance import SynCollInstance
from ..solver import SolveResult
from ..telemetry import get_metrics
from ..topology import Topology

CACHE_FORMAT_VERSION = 1

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: The one formula every probe solves (the pruned ``ScclEncoding``), as the
#: cache, request and routing keys name it.  A constant of every key
#: payload, so keys written by earlier versions, which took it as an
#: option, still match.
FORMULA = {"encoding": "sccl", "prune": True}


class CacheError(Exception):
    """Raised for malformed cache configurations."""


def topology_fingerprint_payload(topology: Topology) -> dict:
    """The structural part of a topology: what the solver can observe."""
    return {
        "num_nodes": topology.num_nodes,
        "constraints": sorted(
            (sorted(list(c.links)), c.bandwidth) for c in topology.constraints
        ),
    }


def topology_cost_payload(topology: Topology) -> dict:
    """The cost-model part of a topology: what the router/simulator observe.

    Structure (:func:`topology_fingerprint_payload`) decides satisfiability;
    these parameters decide which satisfiable algorithm *wins* at a given
    buffer size.  Routing keys hash both, so a routing table built under old
    alpha/beta figures — or before a ``LinkDegraded`` fault inflated a link —
    is addressed afresh instead of silently served.
    """
    return {
        "alpha": topology.alpha,
        "beta": topology.beta,
        "link_latency": sorted(
            ([src, dst], value) for (src, dst), value in topology.link_latency.items()
        ),
        "link_beta_scale": sorted(
            ([src, dst], value)
            for (src, dst), value in topology.link_beta_scale.items()
        ),
    }


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_hash(payload) -> str:
    """SHA-256 of ``payload``'s canonical JSON: the hash behind request,
    routing and topology keys (:func:`fingerprint` splices the same form)."""
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


def _topology_blob(topology: Topology) -> str:
    return _canonical(topology_fingerprint_payload(topology))


def fingerprint(
    collective: str,
    topology: Topology,
    chunks_per_node: int,
    steps: int,
    rounds: int,
    *,
    root: int = 0,
) -> str:
    """Content hash identifying one synthesis candidate.

    The hash is over the canonical JSON of the whole payload.  The
    topology's part of it is serialised once per fabric
    (:meth:`~repro.topology.Topology.fact`) and spliced in: ``"topology"``
    and ``"version"`` sort after every other key.
    """
    head = _canonical({
        "collective": collective,
        "chunks_per_node": chunks_per_node,
        "steps": steps,
        "rounds": rounds,
        "root": root,
        **FORMULA,
    })
    blob = (
        f'{head[:-1]},"topology":{topology.fact(_topology_blob)},'
        f'"version":{CACHE_FORMAT_VERSION}}}'
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def instance_fingerprint(instance: SynCollInstance) -> str:
    return fingerprint(
        instance.collective,
        instance.topology,
        instance.chunks_per_node,
        instance.steps,
        instance.rounds,
        root=instance.root,
    )


def file_signature(path) -> Optional[Tuple[int, int, int]]:
    """``(st_mtime_ns, st_size, st_ino)`` of a file, None when it is absent.

    One ``stat``: what the holder of a decoded copy compares to learn that
    the file was replaced (atomic writers give it a new inode), rewritten,
    touched or removed since the copy was made.
    """
    try:
        stat = os.stat(path)
    except OSError:
        return None
    return (stat.st_mtime_ns, stat.st_size, stat.st_ino)


def atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file and one rename.

    Readers see the old file or the new one, never half of either, and
    concurrent writers leave one of their files whole (the last rename
    wins).  The temp file, ``.<first 8 of the name>-*.tmp`` beside
    ``path``, is removed if anything fails.  Creates the parent directory.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.stem[:8]}-", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise


@dataclass
class CacheEntry:
    """One persisted synthesis outcome.

    ``instance`` is an optional human-readable description of the candidate
    (collective, topology name, C/S/R, root) written alongside the
    opaque content hash so that ``repro cache ls`` can say what an entry
    *is*; entries written before it was introduced simply report unknowns.
    """

    key: str
    status: str                       # "sat" or "unsat"
    algorithm: Optional[dict] = None  # Algorithm.to_dict() for SAT entries
    backend: str = "cdcl"
    solve_time: float = 0.0
    created_at: float = 0.0
    instance: Optional[dict] = None   # descriptive metadata (not part of the key)
    #: How the verdict was obtained: ``"solved"`` (a solver proved it),
    #: ``"bound"`` (the encoder's cut arithmetic, see ``witness``) or
    #: ``"cut"`` (derived from a monotone UNSAT bound); no solver ran for
    #: the last two.  Entries written before this field existed report
    #: "solved".
    provenance: str = "solved"
    #: ``Cut.to_dict()`` of a ``"bound"`` verdict's refuting cut.
    witness: Optional[dict] = None

    def to_json(self) -> dict:
        data = {
            "version": CACHE_FORMAT_VERSION,
            "key": self.key,
            "status": self.status,
            "algorithm": self.algorithm,
            "backend": self.backend,
            "solve_time": self.solve_time,
            "created_at": self.created_at,
            "instance": self.instance,
            "provenance": self.provenance,
        }
        if self.witness is not None:
            data["witness"] = self.witness
        return data

    @classmethod
    def from_json(cls, data: dict) -> "CacheEntry":
        if data.get("version") != CACHE_FORMAT_VERSION:
            raise CacheError(f"unsupported cache format version {data.get('version')!r}")
        if data.get("status") not in ("sat", "unsat"):
            raise CacheError(f"invalid cached status {data.get('status')!r}")
        return cls(
            key=data["key"],
            status=data["status"],
            algorithm=data.get("algorithm"),
            backend=data.get("backend", "cdcl"),
            solve_time=float(data.get("solve_time", 0.0)),
            created_at=float(data.get("created_at", 0.0)),
            instance=data.get("instance"),
            provenance=str(data.get("provenance", "solved")),
            witness=data.get("witness"),
        )

    def describe_instance(self) -> str:
        """One-line candidate description for cache listings."""
        meta = self.instance or {}
        collective = meta.get("collective", "?")
        topology = meta.get("topology", "?")
        c = meta.get("chunks_per_node", "?")
        s = meta.get("steps", "?")
        r = meta.get("rounds", "?")
        return f"{collective} on {topology} C={c} S={s} R={r}"


class AlgorithmCache:
    """Directory-backed algorithm store.

    Entries live under ``<root>/<key[:2]>/<key>.json`` and are written
    atomically (temp file + rename), so concurrent writers — several
    processes sweeping at once and the planning service's threads — can
    share one cache directory.  Whole-index mutations (``evict``,
    ``clear``) additionally serialize on an ``fcntl`` lock file, so two
    concurrent evictions cannot race each other below their limits and an
    eviction cannot interleave with another's bookkeeping.  Single-entry
    stores stay lock-free: the atomic rename already makes them safe, and
    the store path is the service's hot path.
    """

    #: Name of the advisory lock file guarding index mutations.
    LOCK_NAME = ".lock"

    def __init__(self, root) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    @contextlib.contextmanager
    def _mutation_lock(self):
        """Advisory exclusive lock for index-wide mutations (evict/clear).

        Best effort on purpose: when ``fcntl`` is unavailable, the
        directory is unwritable or the filesystem refuses locks
        (``ENOLCK``), mutations proceed unlocked — per-entry deletes
        tolerate losing races (missing files are skipped), the lock only
        removes the window where two evictors both prune.
        """
        if fcntl is None:
            yield
            return
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            handle = open(self.root / self.LOCK_NAME, "a+")
        except OSError:
            yield
            return
        with handle:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            except OSError:
                yield
                return
            # Unlocked explicitly, not by the close: a child forked meanwhile
            # shares the descriptor and would hold the lock until it exits.
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def lookup_decoded(
        self, key: str, topology: Topology
    ) -> Optional[Tuple[CacheEntry, Optional[Algorithm]]]:
        """The entry under ``key`` with its SAT schedule decoded onto ``topology``
        and re-verified.

        None on a miss.  A schedule that no longer decodes or verifies is
        dropped and answered as a miss; the outcome is counted once, after
        the decode, so a corrupt entry never reads as a hit anywhere.
        """
        entry = self._read(key)
        algorithm = None
        if entry is not None and entry.status == "sat":
            algorithm = self._decode_algorithm(entry, topology, key)
            if algorithm is None:
                entry = None
        self._count(entry is not None)
        return None if entry is None else (entry, algorithm)

    def _read(self, key: str) -> Optional[CacheEntry]:
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = CacheEntry.from_json(json.load(handle))
        except (OSError, ValueError, KeyError, CacheError):
            return None
        if entry.key != key:
            return None
        # Refresh the file's mtime so LRU eviction sees recently-replayed
        # entries as hot.  Best effort: a read-only cache still serves hits.
        try:
            os.utime(path)
        except OSError:
            pass
        return entry

    def _count(self, hit: bool) -> None:
        get_metrics().inc("repro_cache_lookups_total", outcome="hit" if hit else "miss")

    def entry_signature(self, key: str) -> Optional[Tuple[int, int, int]]:
        """The :func:`file_signature` of the entry's file."""
        return file_signature(self._path(key))

    def count_hit(self) -> None:
        """Count a hit answered from a decoded copy whose signature still holds."""
        self._count(True)

    def store(self, entry: CacheEntry) -> None:
        atomic_write(self._path(entry.key), json.dumps(entry.to_json(), sort_keys=True))
        get_metrics().inc("repro_cache_stores_total")

    def discard(self, key: str) -> None:
        try:
            os.unlink(self._path(key))
        except OSError:
            pass

    def clear(self) -> None:
        with self._mutation_lock():
            for path in self.root.glob("*/*.json"):
                try:
                    path.unlink()
                except OSError:
                    pass

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json")) if self.root.exists() else 0

    # ------------------------------------------------------------------
    # Inspection / eviction (the roadmap's size limits, driven by the CLI)
    # ------------------------------------------------------------------
    def entry_paths(self) -> List[Path]:
        """All entry files, ordered least-recently-used first.

        Recency is the file mtime (refreshed on every cache hit); ties break
        on the key so the ordering — and therefore eviction — is
        deterministic.
        """
        if not self.root.exists():
            return []
        paths = []
        for path in self.root.glob("*/*.json"):
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue
            paths.append((mtime, path.stem, path))
        return [path for (_, _, path) in sorted(paths, key=lambda t: (t[0], t[1]))]

    def entries(self) -> List[Tuple[Path, CacheEntry]]:
        """All readable entries, least-recently-used first.

        Unreadable or malformed files are skipped (they are invisible to
        :meth:`lookup` anyway; ``repro cache verify`` reports them).
        """
        result: List[Tuple[Path, CacheEntry]] = []
        for path in self.entry_paths():
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    entry = CacheEntry.from_json(json.load(handle))
            except (OSError, ValueError, KeyError, CacheError):
                continue
            result.append((path, entry))
        return result

    def total_bytes(self) -> int:
        total = 0
        for path in self.entry_paths():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def evict(
        self,
        *,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
        max_age_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> List[str]:
        """Prune the cache to the given limits; returns the evicted keys.

        Eviction is LRU: entries are removed least-recently-used first until
        every supplied limit holds.  ``max_age_s`` drops entries whose last
        use is older than the horizon regardless of the other limits.  With
        no limits supplied this is a no-op.
        """
        # ``not x >= 0`` also refuses NaN, whose horizon would keep nothing
        # and silently switch off the other limits.
        limits = {"max_entries": max_entries, "max_bytes": max_bytes, "max_age_s": max_age_s}
        for name, value in limits.items():
            if value is not None and not value >= 0:
                raise CacheError(f"{name} must be a number >= 0, got {value}")
        with self._mutation_lock():
            return self._evict_locked(
                max_entries=max_entries, max_bytes=max_bytes,
                max_age_s=max_age_s, now=now,
            )

    def _evict_locked(
        self,
        *,
        max_entries: Optional[int],
        max_bytes: Optional[int],
        max_age_s: Optional[float],
        now: Optional[float],
    ) -> List[str]:
        ordered = self.entry_paths()  # LRU first
        sizes: Dict[Path, int] = {}
        mtimes: Dict[Path, float] = {}
        for path in ordered:
            try:
                stat = path.stat()
            except OSError:
                sizes[path], mtimes[path] = 0, 0.0
                continue
            sizes[path], mtimes[path] = stat.st_size, stat.st_mtime

        now = time.time() if now is None else now
        survivors = list(ordered)
        doomed: List[Path] = []

        if max_age_s is not None:
            horizon = now - max_age_s
            stale = [p for p in survivors if mtimes[p] < horizon]
            doomed.extend(stale)
            survivors = [p for p in survivors if mtimes[p] >= horizon]
        if max_entries is not None and len(survivors) > max_entries:
            cut = len(survivors) - max_entries
            doomed.extend(survivors[:cut])
            survivors = survivors[cut:]
        if max_bytes is not None:
            total = sum(sizes[p] for p in survivors)
            while survivors and total > max_bytes:
                victim = survivors.pop(0)
                total -= sizes[victim]
                doomed.append(victim)

        evicted: List[str] = []
        for path in doomed:
            try:
                path.unlink()
            except OSError:
                continue
            evicted.append(path.stem)
        return evicted

    # ------------------------------------------------------------------
    # Algorithm-level convenience API (used by runtime/ and evaluation/)
    # ------------------------------------------------------------------
    def load_algorithm(
        self,
        collective: str,
        topology: Topology,
        chunks_per_node: int,
        steps: int,
        rounds: int,
        *,
        root: int = 0,
    ) -> Optional[Algorithm]:
        """Return the cached verified algorithm for a candidate, or None.

        The stored schedule is re-attached to the caller's topology object
        (the fingerprint guarantees structural equality) and re-verified.
        """
        key = fingerprint(
            collective, topology, chunks_per_node, steps, rounds, root=root
        )
        found = self.lookup_decoded(key, topology)
        return None if found is None else found[1]

    def _decode_algorithm(
        self, entry: CacheEntry, topology: Topology, key: str
    ) -> Optional[Algorithm]:
        try:
            algorithm = Algorithm.from_dict(entry.algorithm)
            algorithm = dataclasses.replace(algorithm, topology=topology)
            algorithm.verify()
        except Exception:
            # Corrupted or stale entry: drop it (the caller counts a miss).
            self.discard(key)
            get_metrics().inc("repro_cache_corrupt_total")
            return None
        return algorithm


def default_cache_dir() -> Path:
    """The cache directory: $REPRO_CACHE_DIR or ~/.cache/repro-sccl/algorithms."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-sccl" / "algorithms"


def default_cache() -> AlgorithmCache:
    """The process-default persistent cache (see :func:`default_cache_dir`)."""
    return AlgorithmCache(default_cache_dir())


# ----------------------------------------------------------------------
# SynthesisResult bridging (used by the synthesizer and the sweep loop)
# ----------------------------------------------------------------------
def lookup_result(
    cache: AlgorithmCache,
    instance: SynCollInstance,
    *,
    key: Optional[str] = None,
):
    """Replay a cached outcome as a :class:`~repro.core.synthesizer.SynthesisResult`.

    Returns ``None`` on a miss (including corrupted entries).  Hits carry
    ``cache_hit=True``, the backend that originally produced the entry, and
    zero encode/solve time — the evaluation tables use those fields to
    distinguish solved from replayed rows.  ``key`` is the instance's
    fingerprint when the caller already computed it.
    """
    from ..core.synthesizer import SynthesisResult

    if key is None:
        key = instance_fingerprint(instance)
    found = cache.lookup_decoded(key, instance.topology)
    if found is None:
        return None
    entry, algorithm = found
    status = SolveResult.SAT if entry.status == "sat" else SolveResult.UNSAT
    return SynthesisResult(
        instance=instance,
        status=status,
        algorithm=algorithm,
        backend=entry.backend,
        cache_hit=True,
        provenance=entry.provenance,
        witness=None if entry.witness is None else Cut.from_dict(entry.witness),
    )


def store_result(
    cache: AlgorithmCache,
    result,
    *,
    key: Optional[str] = None,
) -> bool:
    """Persist a SAT or UNSAT synthesis outcome; UNKNOWN is never stored.

    ``key`` is the instance's fingerprint when the caller already computed it.
    """
    status = result.status
    if status is SolveResult.SAT:
        if result.algorithm is None:
            return False
        payload = result.algorithm.to_dict()
        status_name = "sat"
    elif status is SolveResult.UNSAT:
        payload = None
        status_name = "unsat"
    else:
        return False
    if key is None:
        key = instance_fingerprint(result.instance)
    instance = result.instance
    witness = getattr(result, "witness", None)
    entry = CacheEntry(
        key=key,
        status=status_name,
        algorithm=payload,
        backend=result.backend,
        solve_time=result.solve_time,
        created_at=time.time(),
        provenance=getattr(result, "provenance", "solved"),
        witness=None if witness is None else witness.to_dict(),
        instance={
            "collective": instance.collective,
            "topology": instance.topology.name,
            "num_nodes": instance.topology.num_nodes,
            "chunks_per_node": instance.chunks_per_node,
            "steps": instance.steps,
            "rounds": instance.rounds,
            "root": instance.root,
            **FORMULA,
        },
    )
    try:
        cache.store(entry)
    except OSError:
        # The cache is an optimization: an unwritable directory must never
        # fail a synthesis that already succeeded.
        return False
    return True

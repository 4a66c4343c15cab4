"""``record_run`` batches its lines; nothing a reader or a crash can see changes.

A record costs its producer a list append: the finished line waits in a
per-root batch that is written in one locked append at 64 lines, after one
second, before this process reads the root, on ``set_archive``, at exit and
at the end of a pool-worker task.  These tests pin what that must not
break: read-your-writes through any ``PerfArchive`` on the root, exactly
one line per record across exits, forks and pool workers, whole lines under
concurrent flushes, and a record path that never raises.
"""

import json
import os
import shutil
import subprocess
import sys
import threading
import time

import pytest

from repro.engine import SweepRequest, make_dispatcher
from repro.telemetry import archive as archive_module
from repro.telemetry.archive import (
    ARCHIVE_DIR_ENV,
    ARCHIVE_DISABLE_ENV,
    PerfArchive,
    RunRecord,
    flush_records,
    record_run,
    set_archive,
)
from repro.topology import ring

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def lines_on_disk(root):
    """Archive lines written so far — read without going through the archive,
    whose reads flush."""
    return [
        line
        for segment in sorted(root.glob("segment-*.jsonl"))
        for line in segment.read_text().splitlines()
    ]


@pytest.fixture
def root(tmp_path):
    root = tmp_path / "perf"
    previous = set_archive(PerfArchive(root))
    try:
        yield root
    finally:
        set_archive(previous)


def run_script(script, root):
    """Run ``script`` in a fresh interpreter whose ambient archive is ``root``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"), **{ARCHIVE_DIR_ENV: str(root)})
    return subprocess.run(
        [sys.executable, "-c", script],
        env=env, cwd=REPO, timeout=120, capture_output=True, text=True,
    )


# ----------------------------------------------------------------------
# When lines reach the disk
# ----------------------------------------------------------------------
def test_records_wait_in_memory_and_reads_see_them(root):
    for index in range(5):
        assert record_run("probe", name=f"p{index}") is not None
    # The first record of a root proves it writable; the rest are held back.
    assert len(lines_on_disk(root)) == 1
    # ... but not from a reader, whichever archive object it reads through.
    assert [r.name for r in PerfArchive(root).records()] == [f"p{i}" for i in range(5)]
    assert len(lines_on_disk(root)) == 5
    record_run("probe", name="p5")
    assert PerfArchive(str(root)).stats()["records"] == 6


def test_batch_is_written_at_64_lines(root):
    for index in range(1 + 63):
        record_run("probe", name=f"p{index}")
    assert len(lines_on_disk(root)) == 1
    record_run("probe", name="p64")
    assert len(lines_on_disk(root)) == 65
    record_run("probe", name="p65")
    assert len(lines_on_disk(root)) == 65


def test_batch_is_written_when_its_oldest_line_is_a_second_old(root, monkeypatch):
    monkeypatch.setattr(archive_module, "_FLUSH_AGE_S", 0.05)
    record_run("probe", name="first")
    record_run("probe", name="held")
    assert len(lines_on_disk(root)) == 1
    time.sleep(0.06)
    record_run("probe", name="late")
    assert [json.loads(line)["name"] for line in lines_on_disk(root)] == [
        "first", "held", "late",
    ]


def test_set_archive_and_flush_records_write_what_is_held(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    previous = set_archive(PerfArchive(first))
    try:
        record_run("probe", name="a0")
        record_run("probe", name="a1")
        set_archive(PerfArchive(second))
        assert len(lines_on_disk(first)) == 2
        record_run("probe", name="b0")
        record_run("probe", name="b1")
        assert len(lines_on_disk(second)) == 1
        flush_records()
        assert len(lines_on_disk(second)) == 2
    finally:
        set_archive(previous)


def test_append_is_still_immediate(root):
    archive = PerfArchive(root)
    for index in range(3):
        assert archive.append(RunRecord(kind="probe", name=f"direct{index}"))
        assert len(lines_on_disk(root)) == index + 1


def test_lines_keep_their_fields_and_format(root):
    record = record_run(
        "probe", name="x", features={"nodes": 4}, phases={"solve_s": 0.25},
        extra={"nested": {"deep": [1, 2]}},
    )
    record_run("probe", name="y")
    (first, second) = (json.loads(line) for line in PerfArchive(root).segments()[0]
                       .read_text().splitlines())
    assert first["version"] == 1 and first["extra"] == {"nested": {"deep": [1, 2]}}
    assert first["run_id"] == record.run_id and first["session"] == second["session"]
    assert first["host"] == second["host"] == archive_module.host_context()
    assert set(first) == set(second) == {f for f in vars(record)} | {"version"}
    # to_json shares the record's containers instead of copying them.
    assert record.to_json()["features"] is record.features


# ----------------------------------------------------------------------
# Exactly one line per record across exits, forks and pool workers
# ----------------------------------------------------------------------
_THREE_PROBES = """
from repro.telemetry import record_run
for index in range(3):
    assert record_run("probe", name=f"p{index}") is not None
"""


def test_normal_exit_writes_the_held_lines(tmp_path):
    root = tmp_path / "perf"
    done = run_script(_THREE_PROBES, root)
    assert done.returncode == 0, done.stderr
    assert [json.loads(line)["name"] for line in lines_on_disk(root)] == ["p0", "p1", "p2"]


_FORK = """
import os, sys
from repro.telemetry import record_run
for index in range(4):
    record_run("probe", name=f"parent{index}")      # one written, three held
pid = os.fork()
if pid == 0:
    record_run("probe", name="child0")
    record_run("probe", name="child1")              # held: written by the child's exit
    sys.exit(0)
_, status = os.waitpid(pid, 0)
assert status == 0
record_run("probe", name="parent4")
"""


def test_fork_with_held_lines_writes_each_once(tmp_path):
    root = tmp_path / "perf"
    done = run_script(_FORK, root)
    assert done.returncode == 0, done.stderr
    records = PerfArchive(root).records()
    assert sorted(r.name for r in records) == [
        "child0", "child1", "parent0", "parent1", "parent2", "parent3", "parent4",
    ]
    sessions = {r.name[:-1]: r.session for r in records}
    assert sessions["parent"] != sessions["child"]
    assert len({r.session for r in records}) == 2


def test_pool_workers_record_every_probe_exactly_once(tmp_path, monkeypatch):
    root = tmp_path / "perf"
    monkeypatch.setenv(ARCHIVE_DIR_ENV, str(root))
    candidates = ((2, 1), (3, 1), (4, 1), (4, 2), (5, 2), (6, 2))
    request = SweepRequest(
        "Allgather", ring(4), steps=2, candidates=candidates, stop_at_first_sat=False,
    )
    outcome = make_dispatcher("parallel", max_workers=2).sweep(request)
    assert len(outcome.results) == len(candidates)  # all awaited: no losers
    probes = PerfArchive(root).records(kind="probe")
    assert sorted(r.name for r in probes) == sorted(
        f"Allgather/ring4/C{chunks}S2R{rounds}" for rounds, chunks in candidates
    )
    assert len({r.run_id for r in probes}) == len(candidates)
    assert os.getpid() not in {int(r.run_id.split("-")[1]) for r in probes}
    assert len(PerfArchive(root).records(kind="sweep")) == 1


_BATCH_WRITER = """
import sys
from repro.telemetry import record_run
writer, count = sys.argv[1], int(sys.argv[2])
for index in range(count):
    assert record_run("probe", name=f"{writer}-{index}", extra={"pad": "x" * 300})
"""


def test_concurrent_batch_flushes_interleave_whole_lines(tmp_path):
    root = tmp_path / "perf"
    writers, per_writer = 8, 150  # batches of 64, 64 and the rest at exit
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"), **{ARCHIVE_DIR_ENV: str(root)})
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _BATCH_WRITER, f"w{i}", str(per_writer)], env=env, cwd=REPO,
        )
        for i in range(writers)
    ]
    for proc in procs:
        assert proc.wait(timeout=120) == 0
    archive = PerfArchive(root)
    records = archive.records()
    assert archive.corrupt_lines == 0
    assert sorted(r.name for r in records) == sorted(
        f"w{i}-{j}" for i in range(writers) for j in range(per_writer)
    )
    for line in lines_on_disk(root):
        assert json.loads(line)["kind"] == "probe"


def test_threads_recording_concurrently_lose_nothing(root):
    threads, per_thread = 8, 200
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        def work(tid):
            for index in range(per_thread):
                record_run("service", name=f"t{tid}-{index}")
                if index % 50 == 0:
                    PerfArchive(root).records(kind="bench")  # a reader in the middle

        workers = [threading.Thread(target=work, args=(tid,)) for tid in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert not worker.is_alive()
    finally:
        sys.setswitchinterval(interval)
    names = [r.name for r in PerfArchive(root).records()]
    assert len(names) == threads * per_thread == len(set(names))


# ----------------------------------------------------------------------
# Recording never raises
# ----------------------------------------------------------------------
def test_disabled_recording_holds_nothing(root, monkeypatch):
    monkeypatch.setenv(ARCHIVE_DISABLE_ENV, "1")
    assert record_run("probe", name="x") is None
    monkeypatch.delenv(ARCHIVE_DISABLE_ENV)
    assert PerfArchive(root).records() == []


def test_unwritable_root_reports_none_every_time(tmp_path):
    blocked = tmp_path / "blocked"
    blocked.write_text("a file where the directory should be\n")
    previous = set_archive(PerfArchive(blocked / "perf"))
    try:
        assert record_run("probe", name="x") is None
        assert record_run("probe", name="y") is None
        assert record_run("probe", not_a_field=object()) is None
        flush_records()
    finally:
        set_archive(previous)


def test_a_deleted_root_is_not_resurrected_by_a_flush(root):
    """A throwaway archive removed by its owner (the bench sandbox, a test's
    tmp dir) must stay removed when the held lines are written at exit."""
    record_run("probe", name="written")
    record_run("probe", name="held")
    shutil.rmtree(root)
    flush_records()  # the held line is lost, silently
    assert not root.exists()
    # The next record is a first record again: it creates the root.
    assert record_run("probe", name="after") is not None
    assert [r.name for r in PerfArchive(root).records()] == ["after"]


def test_root_lost_while_lines_are_held_never_raises(root):
    record_run("probe", name="written")
    record_run("probe", name="held")
    shutil.rmtree(root)
    root.write_text("a file where the directory was\n")
    flush_records()
    assert record_run("probe", name="after") is None
    flush_records()

"""The one atomic-write primitive behind cache entries and routing tables:
whole files or nothing, no temp file left behind, parent created."""

import os
import threading

import pytest

from repro.engine import cache as cache_module
from repro.engine.cache import atomic_write


def _siblings(path):
    return sorted(p.name for p in path.parent.iterdir())


def test_writes_the_text_and_creates_parent_directories(tmp_path):
    path = tmp_path / "a" / "b" / "entry.json"
    atomic_write(path, '{"k": 1}')
    assert path.read_text(encoding="utf-8") == '{"k": 1}'


def test_replaces_an_existing_file_whole(tmp_path):
    path = tmp_path / "entry.json"
    path.write_text("old contents that are longer than the new ones\n")
    atomic_write(path, "new")
    assert path.read_text(encoding="utf-8") == "new"


def test_leaves_no_temp_file_behind(tmp_path):
    path = tmp_path / "entry.json"
    for text in ("one", "two", "three"):
        atomic_write(path, text)
    assert _siblings(path) == ["entry.json"]


@pytest.mark.parametrize(
    "text",
    ["", "x", "line one\nline two\n", "ring→dgx1 ✓ Allgather", "0123456789" * 100_000],
    ids=["empty", "one-char", "newlines", "non-ascii", "one-megabyte"],
)
def test_bytes_on_disk_are_the_utf8_of_the_text(tmp_path, text):
    path = tmp_path / "entry.json"
    atomic_write(path, text)
    assert path.read_bytes() == text.encode("utf-8")


def test_the_temp_file_sits_beside_the_target(tmp_path, monkeypatch):
    """Same directory (so the rename never crosses a filesystem), hidden,
    named after the first 8 characters of the target's stem."""
    seen = []
    real_replace = os.replace

    def spy(src, dst):
        seen.append((src, dst))
        real_replace(src, dst)

    monkeypatch.setattr(cache_module.os, "replace", spy)
    path = tmp_path / "0123456789abcdef.json"
    atomic_write(path, "x")
    ((src, dst),) = seen
    src = os.fspath(src)
    assert os.path.dirname(src) == str(tmp_path)
    assert os.path.basename(src).startswith(".01234567-")
    assert src.endswith(".tmp")
    assert os.fspath(dst) == str(path)


def test_a_failed_rename_keeps_the_old_file_and_removes_the_temp(tmp_path, monkeypatch):
    path = tmp_path / "entry.json"
    path.write_text("old")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(cache_module.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        atomic_write(path, "new")
    assert path.read_text() == "old"
    assert _siblings(path) == ["entry.json"]


def test_an_interrupt_mid_write_removes_the_temp(tmp_path, monkeypatch):
    """``BaseException`` too: a Ctrl-C between write and rename leaves no
    stray ``.tmp`` for the next listing to trip over."""
    path = tmp_path / "entry.json"

    def interrupted(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(cache_module.os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        atomic_write(path, "never lands")
    assert not path.exists()
    assert _siblings(path) == []


def test_a_parent_that_is_a_file_raises_and_writes_nothing(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file where the directory should be")
    with pytest.raises(OSError):
        atomic_write(blocker / "entry.json", "x")
    assert blocker.read_text() == "a file where the directory should be"
    assert _siblings(blocker) == ["blocker"]


def test_concurrent_writers_leave_one_whole_file(tmp_path):
    path = tmp_path / "entry.json"
    payloads = [str(index) * 50_000 for index in range(6)]
    barrier = threading.Barrier(len(payloads))
    errors = []

    def writer(text):
        try:
            barrier.wait()
            for _ in range(5):
                atomic_write(path, text)
        except Exception as exc:  # pragma: no cover - the assertion
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30.0)

    assert errors == []
    assert path.read_text() in payloads
    assert _siblings(path) == ["entry.json"]

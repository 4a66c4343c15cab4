"""Every artefact writer replaces its file whole or not at all.

``write_plan``, ``write_msccl_xml`` and ``repro export -o`` all go through ``engine/cache.py:atomic_write``: a
failed rename leaves the previous file byte-identical and no temp file
beside it.
"""

import os

import pytest

from repro.baselines import baseline_suite
from repro.cli.main import main
from repro.engine import cache as cache_module
from repro.interchange import plan_from_algorithm, write_msccl_xml, write_plan
from repro.topology import ring


@pytest.fixture(scope="module")
def algorithm():
    return baseline_suite("Allgather", ring(4))[0].algorithm


def _export(algorithm, path, tmp_path):
    plan = tmp_path / "input-plan.json"
    if not plan.exists():
        write_plan(plan_from_algorithm(algorithm), plan)
    code = main(["export", "--plan-input", str(plan), "--format", "xml", "-o", str(path)])
    if code != 0:
        raise OSError(f"repro export exited {code}")


WRITERS = {
    "write_plan": lambda algorithm, path, _: write_plan(plan_from_algorithm(algorithm), path),
    "write_msccl_xml": lambda algorithm, path, _: write_msccl_xml(algorithm, path),
    "repro export -o": _export,
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_a_failed_rename_keeps_the_previous_file(writer, algorithm, tmp_path, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    path = out / "artefact"
    write = WRITERS[writer]
    write(algorithm, path, tmp_path)
    previous = path.read_bytes()
    assert previous
    assert os.listdir(out) == ["artefact"]

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(cache_module.os, "replace", refuse)
    with pytest.raises(OSError):
        write(algorithm, path, tmp_path)
    assert path.read_bytes() == previous
    assert os.listdir(out) == ["artefact"]


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_a_write_replaces_the_whole_file(writer, algorithm, tmp_path):
    path = tmp_path / "artefact"
    path.write_text("x" * 1_000_000)
    WRITERS[writer](algorithm, path, tmp_path)
    text = path.read_text()
    assert "x" * 100 not in text and len(text) < 1_000_000

"""Plan-bundle round-trip, fingerprint and provenance tests."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import make_instance, synthesize
from repro.interchange import (
    AlgorithmPlan,
    InterchangeError,
    plan_from_result,
    read_plan,
    topology_fingerprint,
    write_plan,
)
from repro.topology import dgx1, ring


@pytest.fixture(scope="module")
def allgather_result():
    result = synthesize(make_instance("Allgather", ring(4), 1, 2, 3))
    assert result.is_sat
    return result


class TestPlanRoundTrip:
    def test_json_roundtrip_verifies(self, allgather_result, tmp_path):
        plan = plan_from_result(allgather_result)
        path = write_plan(plan, tmp_path / "ag.json")
        restored = read_plan(path)
        restored.algorithm.verify()
        assert restored.algorithm.signature() == allgather_result.algorithm.signature()
        assert restored.fingerprint == plan.fingerprint

    def test_provenance_carried(self, allgather_result):
        plan = plan_from_result(allgather_result)
        data = plan.to_json()
        restored = AlgorithmPlan.from_json(data)
        assert restored.provenance["backend"] == allgather_result.backend
        assert restored.provenance["encoding"] == "sccl"
        assert restored.provenance["tool"]["name"] == "repro-sccl"
        assert restored.cost["steps"] == 2
        assert restored.cost["rounds"] == 3
        assert restored.cost["bandwidth_cost"] == [3, 1]

    def test_unsat_result_rejected(self):
        result = synthesize(make_instance("Allgather", ring(4), 1, 1, 1))
        assert result.is_unsat
        with pytest.raises(InterchangeError, match="unsat"):
            plan_from_result(result)


class TestFingerprint:
    def test_structural_not_nominal(self):
        import dataclasses

        topo = ring(4)
        renamed = dataclasses.replace(topo, name="other", alpha=1.0)
        assert topology_fingerprint(topo) == topology_fingerprint(renamed)
        assert topology_fingerprint(topo) != topology_fingerprint(ring(6))
        assert topology_fingerprint(topo) != topology_fingerprint(dgx1())

    def test_matches_topology(self, allgather_result):
        plan = plan_from_result(allgather_result)
        assert plan.matches_topology(ring(4))
        assert not plan.matches_topology(ring(6))


class TestTamperRejection:
    def test_tampered_topology_rejected(self, allgather_result):
        data = plan_from_result(allgather_result).to_json()
        data["algorithm"]["topology"]["constraints"].pop()
        with pytest.raises(InterchangeError, match="fingerprint"):
            AlgorithmPlan.from_json(data)

    def test_tampered_schedule_rejected(self, allgather_result):
        data = plan_from_result(allgather_result).to_json()
        data["algorithm"]["steps"][0]["sends"].pop()
        with pytest.raises(InterchangeError):
            AlgorithmPlan.from_json(data)

    def test_wrong_format_rejected(self):
        with pytest.raises(InterchangeError, match="format"):
            AlgorithmPlan.from_json({"format": "something-else"})

    def test_truncated_file_rejected(self, allgather_result, tmp_path):
        plan = plan_from_result(allgather_result)
        path = write_plan(plan, tmp_path / "ag.json")
        path.write_text(path.read_text()[:100])
        with pytest.raises(InterchangeError):
            read_plan(path)


LEGACY_PLAN = Path(__file__).parent / "data" / "legacy_indented_plan.json"


class TestLayoutCompatibility:
    """Bundles are one compact line now; the indented ones already out there still load."""

    def test_legacy_bundle_is_the_indented_layout(self):
        text = LEGACY_PLAN.read_text(encoding="utf-8")
        assert text.startswith('{\n  "algorithm": {\n')

    def test_both_layouts_load_and_agree(self, tmp_path):
        legacy = read_plan(LEGACY_PLAN)
        text = legacy.dumps()
        assert text.endswith("}\n") and text.count("\n") == 1 and '":{"' in text
        compact = read_plan(write_plan(legacy, tmp_path / "compact.json"))
        assert compact.algorithm == legacy.algorithm
        assert json.loads(compact.dumps()) == json.loads(text)
        assert json.loads(text) == json.loads(LEGACY_PLAN.read_text(encoding="utf-8"))

    def test_cli_imports_both_and_json_tool_pretty_prints(self, tmp_path):
        from repro.cli import main

        compact = write_plan(read_plan(LEGACY_PLAN), tmp_path / "compact.json")
        assert main(["import", str(LEGACY_PLAN), "-q"]) == 0
        assert main(["import", str(compact), "-q"]) == 0
        # repro export --format plan | python -m json.tool
        exported = tmp_path / "exported.json"
        assert main(["export", "--plan-input", str(compact), "--format", "plan",
                     "-o", str(exported)]) == 0
        pretty = subprocess.run(
            [sys.executable, "-m", "json.tool", "--sort-keys", "--indent", "2", str(exported)],
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        assert pretty.startswith('{\n  "algorithm": {\n')
        assert json.loads(pretty) == json.loads(compact.read_text(encoding="utf-8"))

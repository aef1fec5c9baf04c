"""The `repro heal` demo: self-healing passes, the contrast mode fails."""

import json

from repro.faults.heal import (
    format_heal_result,
    heal_payload,
    heal_scenario,
    run_heal_demo,
)


class TestHealDemo:
    def test_repair_on_ends_clean(self):
        result = run_heal_demo(seed=0, num_jobs=6)
        assert result.ok, result.format_violations()
        stats = result.stats
        assert stats["repair_copies"] > 0
        assert stats["decommissions_completed"] == 1
        assert stats["under_replicated"] == 0
        assert stats["missing_blocks"] == 0
        assert [e.kind for e in heal_scenario(0, 6).faults] == [
            "kill",
            "join",
            "decommission",
        ]
        report = format_heal_result(result)
        assert "PASS" in report
        json.dumps(heal_payload(result))  # serializable for heal.json

    def test_contrast_mode_is_convicted(self):
        result = run_heal_demo(seed=0, num_jobs=6, disable_repair=True)
        assert not result.ok
        assert result.stats["repair_copies"] == 0
        assert any(
            "under-replication" in message for _, message in result.violations
        )
        assert "FAIL" in format_heal_result(result)

    def test_demo_is_deterministic(self):
        first = run_heal_demo(seed=1, num_jobs=6)
        second = run_heal_demo(seed=1, num_jobs=6)
        assert heal_payload(first) == heal_payload(second)

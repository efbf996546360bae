"""Fault-tolerant campaign execution, end to end.

Serial retry loops, permanent-failure quarantine, pooled worker-crash
recovery, deadline re-issue of stragglers, resume semantics for failed
points, the chaos CLI, and the headline determinism guarantee: a
fault-injected campaign's *completed* points are byte-identical to a
fault-free run's — serial or pooled, live or replayed.
"""

import json
from concurrent.futures import BrokenExecutor

import pytest

from repro.faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    RetryPolicy,
    inject_faults,
)
from repro.sweep.campaign import execute_campaign
from repro.sweep.record import canonical_json
from repro.sweep.runners import ProcessPoolRunner, SerialRunner
from repro.sweep.spec import smoke_spec
from repro.sweep.__main__ import main


@pytest.fixture(scope="module")
def spec():
    return smoke_spec(iterations=1)


@pytest.fixture(scope="module")
def labels(spec):
    return sorted(p.display_label for p in spec.expand())


@pytest.fixture(scope="module")
def baseline(spec):
    """The fault-free canonical bytes every chaos run must reproduce."""
    return canonical_json(SerialRunner().run(spec.expand()))


def policy(**kwargs):
    kwargs.setdefault("max_attempts", 3)
    kwargs.setdefault("base_delay_s", 0.001)
    kwargs.setdefault("jitter", 0.0)
    return RetryPolicy(**kwargs)


class Collector:
    """Callable observer: buckets events by kind."""

    def __init__(self):
        self.events = {}

    def __call__(self, event):
        self.events.setdefault(event.kind, []).append(event)

    def kinds(self):
        return set(self.events)


class TestFailFast:
    """No policy: the first failure ends the run with its own exception."""

    @pytest.mark.parametrize("runner", [SerialRunner, lambda: ProcessPoolRunner(jobs=2)])
    def test_evaluation_error_propagates_with_its_type(self, spec, labels, runner):
        plan = FaultPlan(faults=(FaultSpec(action="fail", label=labels[0]),))
        with inject_faults(plan):
            with pytest.raises(InjectedFault):
                runner().run(spec.expand())

    def test_broken_pool_is_not_respawned(self, spec, labels):
        plan = FaultPlan(faults=(FaultSpec(action="crash", label=labels[0]),))
        events = []
        runner = ProcessPoolRunner(jobs=2)
        runner.event_sink = events.append
        with inject_faults(plan):
            with pytest.raises(BrokenExecutor):
                runner.run(spec.expand())
        assert not {"worker_lost", "pool_restarted"} & {e.kind for e in events}


class TestSerialRetry:
    def test_transient_failure_is_retried_to_success(self, spec, labels):
        plan = FaultPlan(
            faults=(FaultSpec(action="fail", label=labels[0], attempts_below=2),)
        )
        seen = Collector()
        with inject_faults(plan):
            result = execute_campaign(
                spec, retry_policy=policy(), observers=[seen]
            )
        assert result.failed == 0 and result.evaluated == spec.size
        retried = seen.events["point_retried"]
        assert [e.label for e in retried] == [labels[0]]
        assert retried[0].attempt == 1 and retried[0].reason == "error"
        assert "point_failed" not in seen.kinds()

    def test_poison_point_is_quarantined_not_raised(self, spec, labels):
        plan = FaultPlan(faults=(FaultSpec(action="fail", label=labels[0]),))
        seen = Collector()
        with inject_faults(plan):
            result = execute_campaign(spec, retry_policy=policy(), observers=[seen])
        assert result.failed == 1
        [failed] = seen.events["point_failed"]
        assert failed.record.failed and failed.record.label == labels[0]
        assert failed.record.meta["attempts"] == 3
        assert "InjectedFault" in failed.record.error
        # Every retryable attempt produced a retry event first.
        assert len(seen.events["point_retried"]) == 2

    def test_fatal_errors_skip_the_retry_budget(self, spec, labels):
        class Fatal(ValueError):
            pass

        plan = FaultPlan(faults=(FaultSpec(action="fail", label=labels[0]),))
        seen = Collector()

        # A ValueError-raising backend: fatal classification, one attempt.
        import repro.faults.inject as inject_mod

        real_maybe_fault = inject_mod.FaultyBackend._maybe_fault

        def fatal_fault(self):
            try:
                real_maybe_fault(self)
            except Exception:
                raise Fatal("deterministic bug") from None

        with inject_faults(plan):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(inject_mod.FaultyBackend, "_maybe_fault", fatal_fault)
                result = execute_campaign(
                    spec, retry_policy=policy(), observers=[seen]
                )
        assert result.failed == 1
        assert "point_retried" not in seen.kinds()
        [failed] = seen.events["point_failed"]
        assert failed.record.meta["attempts"] == 1

    def test_simulated_crash_matches_pool_schedule(self, spec, labels):
        """A crash fault in the main process degrades to a retryable error."""
        plan = FaultPlan(
            faults=(FaultSpec(action="crash", label=labels[3], attempts_below=2),)
        )
        with inject_faults(plan):
            result = execute_campaign(spec, retry_policy=policy())
        assert result.failed == 0 and result.evaluated == spec.size


class TestPooledFaultTolerance:
    def test_real_worker_crash_is_recovered(self, spec, labels, baseline):
        plan = FaultPlan(
            faults=(FaultSpec(action="crash", label=labels[0], attempts_below=2),)
        )
        seen = Collector()
        with inject_faults(plan):
            result = execute_campaign(
                spec, jobs=2, retry_policy=policy(), observers=[seen]
            )
        assert result.failed == 0 and result.evaluated == spec.size
        assert "worker_lost" in seen.kinds()
        assert "pool_restarted" in seen.kinds()
        assert canonical_json(result.records) == baseline

    def test_hung_point_is_reissued_past_its_deadline(self, spec, labels, baseline):
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    action="hang", label=labels[0], attempts_below=2, seconds=30.0
                ),
            )
        )
        seen = Collector()
        with inject_faults(plan):
            result = execute_campaign(
                spec,
                jobs=2,
                retry_policy=policy(deadline_s=0.5),
                observers=[seen],
            )
        assert result.failed == 0 and result.evaluated == spec.size
        reasons = {e.reason for e in seen.events["point_retried"]}
        assert "deadline" in reasons
        assert canonical_json(result.records) == baseline

    def test_poison_crasher_is_quarantined_without_killing_the_campaign(
        self, spec, labels
    ):
        plan = FaultPlan(faults=(FaultSpec(action="crash", label=labels[0]),))
        seen = Collector()
        with inject_faults(plan):
            result = execute_campaign(
                spec, jobs=2, retry_policy=policy(), observers=[seen]
            )
        assert result.failed == 1 and result.evaluated == spec.size - 1
        [failed] = seen.events["point_failed"]
        assert failed.record.label == labels[0]
        assert "crash" in failed.record.error.lower()


class TestPoolKeys:
    def test_a_repeated_key_is_evaluated_once(self, spec, baseline):
        points = spec.expand()
        seen = Collector()
        runner = ProcessPoolRunner(jobs=2, retry_policy=policy())
        runner.event_sink = seen
        records = runner.run(points + points[:2])
        assert [r.key for r in records] == [p.key() for p in points + points[:2]]
        assert len(seen.events["point_completed"]) == len(points)
        assert canonical_json(records[: len(points)]) == baseline


class TestResumeSemantics:
    def _failed_checkpoint(self, spec, labels, tmp_path):
        path = str(tmp_path / "failed.jsonl")
        plan = FaultPlan(faults=(FaultSpec(action="fail", label=labels[0]),))
        with inject_faults(plan):
            result = execute_campaign(spec, checkpoint=path, retry_policy=policy())
        assert result.failed == 1
        return path

    def test_resume_skips_permanently_failed_points(self, spec, labels, tmp_path):
        path = self._failed_checkpoint(spec, labels, tmp_path)
        resumed = execute_campaign(spec, checkpoint=path, retry_policy=policy())
        assert resumed.evaluated == 0
        assert resumed.resumed == spec.size  # the failure record counts
        assert resumed.failed == 1

    def test_retry_failed_re_attempts_them(self, spec, labels, tmp_path):
        path = self._failed_checkpoint(spec, labels, tmp_path)
        # No fault plan now: the re-attempt succeeds and supersedes.
        retried = execute_campaign(
            spec, checkpoint=path, retry_policy=policy(), retry_failed=True
        )
        assert retried.evaluated == 1 and retried.failed == 0
        # The checkpoint's last record per key now shows success everywhere.
        clean = execute_campaign(spec, checkpoint=path)
        assert clean.failed == 0 and clean.resumed == spec.size

    def test_failure_records_survive_the_checkpoint_roundtrip(
        self, spec, labels, tmp_path
    ):
        path = self._failed_checkpoint(spec, labels, tmp_path)
        from repro.sweep.checkpoint import CampaignCheckpoint

        records = CampaignCheckpoint(path).load()
        failed = [r for r in records.values() if r.failed]
        assert len(failed) == 1
        assert failed[0].label == labels[0]
        assert failed[0].meta["status"] == "failed"
        assert failed[0].cycles is None


class TestChaosParity:
    """The acceptance scenario: crash + hang + transient fail + poison, pooled."""

    def _plan(self, labels):
        return FaultPlan(
            faults=(
                FaultSpec(action="fail", label=labels[1], attempts_below=2),
                FaultSpec(action="crash", label=labels[2], attempts_below=2),
                FaultSpec(action="hang", label=labels[3], attempts_below=2, seconds=30.0),
                FaultSpec(action="fail", label=labels[0]),  # the poison
            )
        )

    def test_serial_and_pooled_chaos_match_the_fault_free_bytes(
        self, spec, labels, baseline, tmp_path
    ):
        chaos_policy = policy(deadline_s=2.0)
        plan = self._plan(labels)
        with inject_faults(plan):
            serial = execute_campaign(spec, retry_policy=chaos_policy)
        with inject_faults(plan):
            pooled = execute_campaign(spec, jobs=2, retry_policy=chaos_policy)
        assert serial.failed == pooled.failed == 1
        # canonical_json drops failed records: completed points must be
        # byte-identical to each other and to the fault-free baseline
        # filtered down to the same keys.
        assert canonical_json(serial.records) == canonical_json(pooled.records)
        clean = json.loads(baseline)
        chaos = json.loads(canonical_json(pooled.records))
        chaos_keys = {row["key"] for row in chaos}
        assert len(chaos) == spec.size - 1
        assert [row for row in clean if row["key"] in chaos_keys] == chaos

    def test_live_and_replayed_streams_agree(self, spec, labels, tmp_path):
        from repro.sweep.eventlog import CampaignReplay

        log = str(tmp_path / "chaos.events.jsonl")
        seen = Collector()
        with inject_faults(self._plan(labels)):
            result = execute_campaign(
                spec,
                jobs=2,
                retry_policy=policy(deadline_s=2.0),
                event_log=log,
                observers=[seen],
            )
        assert result.failed == 1
        required = {"point_retried", "point_failed", "worker_lost", "pool_restarted"}
        assert required <= seen.kinds()
        stats = CampaignReplay(log).replay()
        assert stats.finished and stats.failed == 1
        # The persisted stream carries the same incident kinds.
        kinds = {json.loads(line).get("kind") for line in open(log)}
        assert required <= kinds


class TestChaosCli:
    def test_chaos_subcommand_runs_and_reports(self, labels, tmp_path, capsys):
        ckpt = str(tmp_path / "chaos.jsonl")
        code = main(
            [
                "chaos",
                "--checkpoint",
                ckpt,
                "--event-log",
                "--fail",
                f"{labels[1]}@1",
                "--fail",
                labels[0],
                "--retry-delay",
                "0.001",
                "--expect-failed",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 FAILED" in out

    def test_expect_failed_mismatch_exits_nonzero(self, labels, capsys):
        assert main(["chaos", "--retry-delay", "0.001", "--expect-failed", "3"]) == 1
        assert "expected 3" in capsys.readouterr().err

    def test_clean_chaos_run_exits_zero(self, capsys):
        assert main(["chaos", "--retry-delay", "0.001"]) == 0

    def test_main_driver_retry_flags_and_exit_code(self, labels, tmp_path, capsys):
        ckpt = str(tmp_path / "drill.jsonl")
        plan = FaultPlan(faults=(FaultSpec(action="fail", label=labels[0]),))
        with inject_faults(plan):
            code = main(
                [
                    "--checkpoint",
                    ckpt,
                    "--max-attempts",
                    "2",
                    "--retry-delay",
                    "0.001",
                ]
            )
        assert code == 1  # finished with failed points
        assert "1 FAILED" in capsys.readouterr().out
        # Resume skips the failed point; --retry-failed re-attempts it.
        assert main(["--checkpoint", ckpt, "--max-attempts", "2"]) == 1
        assert main(["--checkpoint", ckpt, "--max-attempts", "2", "--retry-failed"]) == 0

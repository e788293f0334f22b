"""Tests for the t+1-round lower bound machinery (E4)."""


from repro.consensus import (
    FloodSet,
    enumerate_crash_adversaries,
    find_fooling_pair,
    find_round_bound_violation,
    round_lower_bound_certificate,
)


class TestAdversaryEnumeration:
    def test_includes_no_fault(self):
        advs = list(enumerate_crash_adversaries(3, 1, 1))
        assert any(not a.faulty for a in advs)

    def test_count_single_fault_single_round(self):
        # 1 + (3 victims) * (1 round) * (2^2 receiver subsets) = 13.
        advs = list(enumerate_crash_adversaries(3, 1, 1))
        assert len(advs) == 1 + 3 * 1 * 4

    def test_count_grows_with_rounds(self):
        one = len(list(enumerate_crash_adversaries(3, 1, 1)))
        two = len(list(enumerate_crash_adversaries(3, 1, 2)))
        assert two == 1 + 3 * 2 * 4
        assert two > one

    def test_two_fault_patterns_present(self):
        advs = list(enumerate_crash_adversaries(3, 2, 1))
        assert any(len(a.faulty) == 2 for a in advs)


class TestRoundBound:
    def test_one_round_fails_with_one_fault(self):
        result = find_round_bound_violation(
            FloodSet(rounds_override=1), n=3, t=1, rounds=1
        )
        assert result.violation is not None
        assert result.violated_property in ("agreement", "validity")

    def test_two_rounds_suffice_for_one_fault(self):
        result = find_round_bound_violation(FloodSet(), n=3, t=1)
        assert result.violation is None
        assert result.runs_checked > 100  # the search was genuinely exhaustive

    def test_two_rounds_fail_with_two_faults(self):
        result = find_round_bound_violation(
            FloodSet(rounds_override=2), n=4, t=2, rounds=2
        )
        assert result.violation is not None

    def test_certificate_t1(self):
        cert = round_lower_bound_certificate(
            lambda r: FloodSet(rounds_override=r), n=3, t=1
        )
        assert cert.candidates_checked == 1
        assert len(cert.witnesses) == 1
        assert "t+1=2" in cert.claim

    def test_violating_run_is_replayable(self):
        """The witness carries the concrete crash pattern; re-running it
        reproduces the violation."""
        from repro.consensus import run_synchronous

        result = find_round_bound_violation(
            FloodSet(rounds_override=1), n=3, t=1, rounds=1
        )
        bad = result.violation
        replay = run_synchronous(
            FloodSet(rounds_override=1),
            list(bad.inputs),
            adversary=bad.adversary,
            t=1,
            rounds=1,
        )
        assert replay.decisions == bad.decisions


class TestFoolingPair:
    def test_found_for_truncated_protocol(self):
        pair = find_fooling_pair(FloodSet(rounds_override=1), n=3, t=1, rounds=1)
        assert pair is not None
        # The fooled process really cannot distinguish the two runs.
        assert pair.run_a.indistinguishable_to(pair.run_b, pair.fooled_process)
        # And the runs' honest decision sets genuinely differ.
        da = frozenset(v for v in pair.run_a.honest_decisions().values())
        db = frozenset(v for v in pair.run_b.honest_decisions().values())
        assert da != db

    def test_max_runs_cap_is_exact(self, monkeypatch):
        from repro.consensus import lower_bounds

        calls = []
        simulate = lower_bounds.run_synchronous

        def counting(*args, **kwargs):
            calls.append(args[1])
            return simulate(*args, **kwargs)

        monkeypatch.setattr(lower_bounds, "run_synchronous", counting)
        find_fooling_pair(FloodSet(), n=3, t=1, rounds=2, max_runs=5)
        assert len(calls) == 5
        # The cap takes the first runs in search order: one input vector.
        assert all(inputs == [0, 0, 0] for inputs in calls)
        calls.clear()
        find_fooling_pair(FloodSet(), n=3, t=1, rounds=1, max_runs=10_000)
        assert len(calls) == 8 * len(list(enumerate_crash_adversaries(3, 1, 1)))

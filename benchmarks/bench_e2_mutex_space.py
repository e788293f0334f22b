"""E2 — Burns–Lynch: read/write mutex needs n registers (§2.1), n = 2 case.

Paper claims reproduced:
* the covering adversary defeats any 2-process algorithm over a single
  read/write register (mutual exclusion violated constructively);
* Peterson's algorithm — three registers for n = 2 — is fully correct,
  showing register-counting is what separates the cases.
"""

from conftest import record

from repro.shared_memory import burns_lynch_attack, naive_spin_lock_system
from repro.shared_memory.mutex import peterson_system, tournament_system


def test_e2_covering_adversary(benchmark):
    cert = benchmark(lambda: burns_lynch_attack(naive_spin_lock_system()))
    record(
        benchmark,
        schedule_length=cert.details["schedule_length"],
        reads_before_first_write=cert.details["p0_reads_before_first_write"],
    )
    cert.revalidate()


def test_e2_peterson_with_three_registers_is_correct(benchmark):
    def verify():
        system = peterson_system()
        return {
            "registers": len(system.initial_memory),
            "mutex": system.check_mutual_exclusion() is None,
            "fair": all(
                system.check_lockout_freedom(p) is None for p in ("p0", "p1")
            ),
        }

    outcome = benchmark(verify)
    record(benchmark, **outcome)
    assert outcome["registers"] == 3 >= 2  # >= n, as the theorem requires
    assert outcome["mutex"] and outcome["fair"]


def test_e2_tournament_four_liveness(benchmark):
    """The generic liveness checkers at n = 4: lockout- and
    deadlock-freedom of p0 in the Burns–Lynch tournament.  The system is
    explored once before timing (mutual exclusion, inputs included), so
    the line times the starvation-cycle searches alone."""
    system = tournament_system(4)
    assert system.check_mutual_exclusion(max_states=2_000_000) is None

    def check():
        return {
            "lockout_free": system.check_lockout_freedom(
                "p0", max_states=2_000_000) is None,
            "deadlock_free": system.check_deadlock_freedom(
                "p0", max_states=2_000_000) is None,
        }

    outcome = benchmark(check)
    record(benchmark, states=system.reachable_state_count(2_000_000), **outcome)
    assert outcome == {"lockout_free": True, "deadlock_free": True}

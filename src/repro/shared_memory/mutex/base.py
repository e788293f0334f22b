"""The mutual exclusion problem: framework, environment and checkers.

Mutual exclusion is where the survey's story starts (§2.1): Cremers and
Hibbard's model of processes cycling through **remainder → trying →
critical → exit** regions, with the crucial modelling points the paper
dwells on —

* the *requests are not under the algorithm's control*: ``('try', p)`` and
  ``('exit', p)`` are input actions of the system;
* *progress is conditional on the environment cooperating*: the
  environment must eventually issue ``exit`` for a process it has seen
  enter its critical region, but is never obliged to issue ``try``;
* *admissibility*: a process engaged in the protocol keeps taking steps,
  a process in its remainder region takes none.

:class:`MutexProcess` packages the region protocol; algorithms subclass it
and implement only their trying/exit protocols.  :class:`MutexSystem`
wires processes and shared variables together and exposes the three
property checkers the literature's results are stated in terms of:
mutual exclusion (safety), deadlock-freedom (progress) and
lockout-freedom (fairness).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Optional, Sequence

from ...core.automaton import Action, State
from ...core.canonical import text
from ...core.errors import InvariantViolation
from ...core.exploration import check_invariant, explore
from ...core.execution import Execution
from ...core.freeze import frozendict
from ..process import SharedMemoryProcess
from ..system import (
    SharedMemorySystem, StarvationWitness, _process_of_action, find_starvation_cycle,
)
from ..variables import Access

REMAINDER = "rem"
TRYING = "try"
CRITICAL = "crit"
EXIT = "exit"

REGIONS = (REMAINDER, TRYING, CRITICAL, EXIT)


class MutexProcess(SharedMemoryProcess):
    """Base class for mutual-exclusion participants.

    The local state is a :class:`~repro.core.freeze.frozendict` carrying at
    least ``region`` (one of rem/try/crit/exit) and ``announce`` (a pending
    output: 'crit' after winning entry, 'rem' after finishing exit, or
    None).  Subclasses implement:

    * :meth:`start_trying` — initialise the trying protocol's bookkeeping;
    * :meth:`trying_access` / :meth:`after_trying` — the trying protocol;
      ``after_trying`` signals entry by returning a state with
      ``region=CRITICAL`` (the framework adds the announcement);
    * :meth:`start_exit`, :meth:`exit_access` / :meth:`after_exit` — the
      exit protocol; ``after_exit`` returns ``region=REMAINDER`` when done.
    """

    def initial_local(self) -> frozendict:
        return frozendict(region=REMAINDER, announce=None, **self.initial_fields())

    def initial_fields(self) -> Dict[str, Hashable]:
        """Algorithm-specific local fields (default none)."""
        return {}

    # -- hooks for subclasses ---------------------------------------------

    def start_trying(self, local: frozendict) -> frozendict:
        """Local state when the trying protocol begins."""
        return local

    def trying_access(self, local: frozendict) -> Optional[Access]:
        raise NotImplementedError

    def after_trying(self, local: frozendict, response: Hashable) -> frozendict:
        raise NotImplementedError

    def start_exit(self, local: frozendict) -> frozendict:
        """Local state when the exit protocol begins."""
        return local

    def doorway_complete(self, local: frozendict) -> bool:
        """Has the trying protocol passed its *doorway*?

        Bounded-waiting guarantees are stated from the end of the doorway
        (the wait-free prefix of the trying protocol — e.g. taking a
        ticket in the bakery, registering in the handoff lock): before
        that, an arbitrarily slow process can of course be lapped.  The
        default says the doorway is the try transition itself.
        """
        return local["region"] == TRYING

    def exit_access(self, local: frozendict) -> Optional[Access]:
        """The exit protocol's next access; None means exit is complete."""
        return None

    def after_exit(self, local: frozendict, response: Hashable) -> frozendict:
        raise NotImplementedError(f"{self.name}: after_exit not implemented")

    # -- SharedMemoryProcess plumbing --------------------------------------

    def pending_access(self, local: frozendict) -> Optional[Access]:
        if local["announce"] is not None:
            return None
        if local["region"] == TRYING:
            return self.trying_access(local)
        if local["region"] == EXIT:
            access = self.exit_access(local)
            if access is None:
                # Exit protocol with no memory accesses: finish immediately
                # via an internal no-op step is not possible here, so
                # subclasses with empty exit protocols override start_exit
                # to land directly in the remainder region.
                return None
            return access
        return None

    def after_access(self, local: frozendict, response: Hashable) -> frozendict:
        if local["region"] == TRYING:
            new_local = self.after_trying(local, response)
            if new_local["region"] == CRITICAL:
                new_local = new_local.set("announce", "crit")
            return new_local
        if local["region"] == EXIT:
            new_local = self.after_exit(local, response)
            if new_local["region"] == REMAINDER:
                new_local = new_local.set("announce", "rem")
            return new_local
        raise InvariantViolation(
            f"{self.name} performed an access in region {local['region']!r}"
        )

    def output_action(self, local: frozendict) -> Optional[Action]:
        if local["announce"] == "crit":
            return ("crit", self.name)
        if local["announce"] == "rem":
            return ("rem", self.name)
        return None

    def after_output(self, local: frozendict) -> frozendict:
        return local.set("announce", None)

    def on_input(self, local: frozendict, action: Action) -> Optional[frozendict]:
        if action == ("try", self.name):
            if local["region"] != REMAINDER or local["announce"] is not None:
                return None  # ill-formed request; ignore
            return self.start_trying(local.set("region", TRYING))
        if action == ("exit", self.name):
            if local["region"] != CRITICAL or local["announce"] is not None:
                return None
            new_local = self.start_exit(local.set("region", EXIT))
            if new_local["region"] == EXIT and self.exit_access(new_local) is None:
                # Empty exit protocol: return to the remainder immediately.
                new_local = new_local.set("region", REMAINDER).set("announce", "rem")
            return new_local
        return None

    def input_actions(self) -> FrozenSet[Action]:
        return frozenset({("try", self.name), ("exit", self.name)})

    def output_actions(self) -> FrozenSet[Action]:
        return frozenset({("crit", self.name), ("rem", self.name)})


def region_of(local: frozendict) -> str:
    return local["region"]


class MutexSystem(SharedMemorySystem):
    """A shared-memory system of :class:`MutexProcess` participants."""

    def regions(self, state: State) -> Dict[str, str]:
        """Map each process name to its current region."""
        return {
            p.name: region_of(self.local_state(state, p.name))
            for p in self.processes
        }

    def critical_processes(self, state: State) -> Sequence[str]:
        return [name for name, r in self.regions(state).items() if r == CRITICAL]

    # -- property checkers --------------------------------------------------

    def check_mutual_exclusion(self, max_states: int = 200_000) -> Optional[Execution]:
        """Search for a reachable state with two processes in their critical
        regions.  Returns a counterexample execution or None (safe)."""
        return check_invariant(
            self,
            invariant=lambda s: len(self.critical_processes(s)) <= 1,
            max_states=max_states,
            include_inputs=True,
        )

    def _environment_owes(self, state: State) -> Optional[Action]:
        """The exit input a well-behaved environment owes in this state.

        A process that has *announced* its critical entry (announce cleared,
        region still critical) is waiting on the environment to return the
        resource; admissibility requires that exit eventually arrive.
        """
        for p in self.processes:
            local = self.local_state(state, p.name)
            if local["region"] == CRITICAL and local["announce"] is None:
                return ("exit", p.name)
        return None

    def check_lockout_freedom(
        self, victim: str, max_states: int = 100_000
    ) -> Optional[StarvationWitness]:
        """Search for an admissible execution locking ``victim`` out.

        Returns a starvation witness (fair cycle with the victim forever in
        its trying region) or None.
        """
        return find_starvation_cycle(
            self,
            victim=victim,
            victim_stuck=lambda s: region_of(self.local_state(s, victim)) == TRYING,
            environment_returns=self._environment_owes,
            max_states=max_states,
        )

    def check_deadlock_freedom(
        self, victim: str, max_states: int = 100_000
    ) -> Optional[StarvationWitness]:
        """Search for an admissible execution in which ``victim`` is stuck in
        its trying region *and nobody ever enters the critical region*.

        This is the progress property even unfair algorithms must satisfy.
        """
        return find_starvation_cycle(
            self,
            victim=victim,
            victim_stuck=lambda s: region_of(self.local_state(s, victim)) == TRYING,
            environment_returns=self._environment_owes,
            forbidden_actions=lambda a: isinstance(a, tuple) and a[0] == "crit",
            max_states=max_states,
        )

    def reachable_state_count(self, max_states: int = 200_000) -> int:
        return len(explore(self, max_states=max_states, include_inputs=True).reachable)

    def measure_bypass(
        self,
        victim: str,
        steps: int = 20_000,
        seeds: Sequence[int] = range(8),
    ) -> int:
        """The worst observed *bounded-waiting* count for ``victim``.

        Burns et al. state their value bounds in terms of bounded waiting:
        how many times other processes enter their critical regions while
        the victim sits in its trying region.  Bypass is a property of
        admissible executions (every enabled process keeps stepping), so
        the exact bound is not a plain longest-path question; this method
        measures the maximum over long runs under seeded fair schedulers
        with a greedy anti-victim bias (others' steps preferred), which
        empirically saturates the true bound for the bundled algorithms
        (0/1 for the fair ones) and grows with the step budget for the
        unfair ones.
        """
        import random

        worst = 0
        for seed in seeds:
            rng = random.Random(seed)
            state = next(iter(self.initial_states()))
            current_wait = 0
            starvation = {p.name: 0 for p in self.processes}
            for _ in range(steps):
                # Environment churn: request for idle, release critical.
                for p in self.processes:
                    local = self.local_state(state, p.name)
                    if local["region"] == REMAINDER and local["announce"] is None:
                        state = next(iter(self.apply(state, ("try", p.name))))
                    elif local["region"] == CRITICAL and local["announce"] is None:
                        state = next(iter(self.apply(state, ("exit", p.name))))
                enabled = sorted(self.enabled_actions(state), key=text)
                if not enabled:
                    break
                # Fairness floor: a process starved for too long must step.
                overdue = [
                    a for a in enabled
                    if starvation.get(_process_of_action(self, a), 0) >= 50
                ]
                pool = overdue or [
                    a for a in enabled if _process_of_action(self, a) != victim
                ] or enabled
                action = pool[rng.randrange(len(pool))]
                owner = _process_of_action(self, action)
                for name in starvation:
                    starvation[name] += 1
                if owner is not None:
                    starvation[owner] = 0
                state = next(iter(self.apply(state, action)))
                if isinstance(action, tuple) and action[0] == "crit":
                    victim_local = self.local_state(state, victim)
                    victim_proc = self.process_named(victim)
                    if action[1] == victim:
                        current_wait = 0
                    elif (
                        region_of(victim_local) == TRYING
                        and victim_proc.doorway_complete(victim_local)
                    ):
                        current_wait += 1
                        worst = max(worst, current_wait)
                    else:
                        current_wait = 0
            # The final in-progress wait also counts.
            worst = max(worst, current_wait)
        return worst

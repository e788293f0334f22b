"""Machine-checked certificates for impossibility and lower-bound results.

The survey insists (§3.2) that "it is not possible to fake an impossibility
proof".  In this library every mechanized result produces a *certificate*:
a structured record of exactly what was checked, over what bounded scope,
with the witness data needed to re-validate the conclusion independently of
the search that produced it.

Two kinds of certificate exist, mirroring the paper's two kinds of result:

* :class:`ImpossibilityCertificate` — "no protocol in the stated class
  achieves the stated properties", backed by either an exhaustive
  enumeration (every candidate has a recorded failure witness) or a
  constructive adversary (a procedure that defeated the specific protocol
  under test).

* :class:`CounterexampleCertificate` — "this concrete execution violates
  the stated property" or "this concrete algorithm achieves the stated
  bound"; the paper calls algorithms of the second kind *counterexample
  algorithms*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..core.canonical import text
from ..core.errors import CertificateError


@dataclass
class FailureWitness:
    """Why one candidate protocol fails: a named property plus evidence.

    ``evidence`` is typically an execution, a schedule, or a pair of
    indistinguishable executions; ``replay`` re-validates it.
    """

    candidate: Any
    property_violated: str
    evidence: Any = None
    replay: Optional[Callable[[], bool]] = None

    def revalidate(self) -> None:
        if self.replay is not None and not self.replay():
            raise CertificateError(
                f"witness for candidate {self.candidate!r} failed replay "
                f"(property {self.property_violated!r})"
            )


@dataclass
class ImpossibilityCertificate:
    """Certificate that a task is impossible within a bounded scope.

    Attributes:
        claim: one-sentence statement of the impossibility.
        scope: precise description of the protocol class / bound searched
            (the honesty clause: the paper's theorems are unbounded, the
            mechanized check is not).
        technique: which of the survey's proof-technique families was used
            (pigeonhole, scenario, chain, bivalence, stretching, symmetry).
        candidates_checked: how many candidates were enumerated (0 when the
            certificate comes from a constructive adversary instead).
        witnesses: per-candidate failure witnesses (possibly sampled).
    """

    claim: str
    scope: str
    technique: str
    candidates_checked: int = 0
    witnesses: List[FailureWitness] = field(default_factory=list)
    details: Dict[str, Any] = field(default_factory=dict)

    def revalidate(self) -> None:
        """Replay every witness; raise :class:`CertificateError` on failure."""
        for witness in self.witnesses:
            witness.revalidate()

    def summary(self) -> str:
        lines = [
            f"IMPOSSIBLE ({self.technique}): {self.claim}",
            f"  scope: {self.scope}",
        ]
        if self.candidates_checked:
            lines.append(f"  candidates checked: {self.candidates_checked}")
        if self.witnesses:
            lines.append(f"  witnesses recorded: {len(self.witnesses)}")
        for key, value in sorted(self.details.items()):
            lines.append(f"  {key}: {value}")
        return "\n".join(lines)


@dataclass
class CounterexampleCertificate:
    """Certificate that a concrete object demonstrates a possibility claim.

    Used both for violations ("this schedule locks process 1 out") and for
    the paper's *counterexample algorithms* ("this algorithm achieves n/2
    values, refuting the n-value conjecture").
    """

    claim: str
    technique: str
    evidence: Any = None
    replay: Optional[Callable[[], bool]] = None
    details: Dict[str, Any] = field(default_factory=dict)

    def revalidate(self) -> None:
        if self.replay is not None and not self.replay():
            raise CertificateError(f"counterexample failed replay: {self.claim}")

    def summary(self) -> str:
        lines = [f"WITNESS ({self.technique}): {self.claim}"]
        for key, value in sorted(self.details.items()):
            lines.append(f"  {key}: {value}")
        return "\n".join(lines)


@dataclass
class BoundCertificate:
    """Certificate for a quantitative lower/upper bound measurement.

    Records the measured series so EXPERIMENTS.md entries can be
    regenerated: ``series`` maps a parameter point (e.g. ``n``) to the
    measured cost, and ``bound`` maps the same point to the paper's bound.
    """

    claim: str
    technique: str
    series: Dict[Any, float] = field(default_factory=dict)
    bound: Dict[Any, float] = field(default_factory=dict)
    direction: str = "lower"  # measured cost must be >= bound ("lower") or <= ("upper")
    details: Dict[str, Any] = field(default_factory=dict)

    def holds(self) -> bool:
        """Check every measured point against the bound."""
        for point, value in self.series.items():
            if point not in self.bound:
                continue
            if self.direction == "lower" and value < self.bound[point] - 1e-9:
                return False
            if self.direction == "upper" and value > self.bound[point] + 1e-9:
                return False
        return True

    def revalidate(self) -> None:
        if not self.holds():
            raise CertificateError(f"bound certificate violated: {self.claim}")

    def summary(self) -> str:
        lines = [f"BOUND ({self.direction}, {self.technique}): {self.claim}"]
        for point in sorted(self.series, key=text):
            measured = self.series[point]
            expected = self.bound.get(point)
            suffix = f" (bound {expected})" if expected is not None else ""
            lines.append(f"  {text(point)}: {measured}{suffix}")
        return "\n".join(lines)

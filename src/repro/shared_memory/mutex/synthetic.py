"""Cremers–Hibbard protocol tables as mutex participants (survey §2.1).

:class:`SyntheticTasProcess` runs one table of the E1 search
(:mod:`repro.shared_memory.lower_bounds`) on the generic
:class:`MutexSystem`, whose checkers cross-check E1's integer kernel.
:func:`~repro.shared_memory.lower_bounds.build_synthetic_system` imports
it when called, so the E1 search never loads the mutex stack.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Optional, Tuple

from ...core.freeze import frozendict
from ..variables import Access, tas
from .base import CRITICAL, MutexProcess, REMAINDER

if TYPE_CHECKING:
    from ..lower_bounds import ProtocolTable


class SyntheticTasProcess(MutexProcess):
    """A mutex participant driven by a :class:`ProtocolTable`.

    Every trying step and the single exit step are one atomic test-and-set
    access, exactly the Cremers–Hibbard model.
    """

    VAR = "v"

    def __init__(self, name: str, table: ProtocolTable):
        super().__init__(name)
        self.table = table

    def initial_fields(self):
        return {"mode": 0}

    def _try_step(self, value: Hashable, arg: Hashable) -> Tuple[Hashable, Hashable]:
        entry = self.table.try_entry(arg, value)
        if entry[0] == "enter":
            return entry[1], ("enter",)
        return entry[2], ("stay", entry[1])

    def trying_access(self, local: frozendict) -> Optional[Access]:
        return tas(self.VAR, self._try_step, arg=local["mode"], name="synthetic-try")

    def after_trying(self, local: frozendict, response: Hashable) -> frozendict:
        if response[0] == "enter":
            return local.set("region", CRITICAL).set("mode", 0)
        return local.set("mode", response[1])

    def _exit_step(self, value: Hashable, arg: Hashable) -> Tuple[Hashable, Hashable]:
        return self.table.exit_table[value], None

    def exit_access(self, local: frozendict) -> Optional[Access]:
        return tas(self.VAR, self._exit_step, name="synthetic-exit")

    def after_exit(self, local: frozendict, response: Hashable) -> frozendict:
        return local.set("region", REMAINDER).set("mode", 0)

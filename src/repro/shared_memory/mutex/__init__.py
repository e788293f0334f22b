"""Mutual exclusion: framework, algorithms and checkers (survey §2.1)."""

from ..._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".bakery": ("BakeryProcess", "bakery_system"),
    ".base": (
        "CRITICAL", "EXIT", "MutexProcess", "MutexSystem", "REGIONS",
        "REMAINDER", "TRYING", "region_of",
    ),
    ".dijkstra": ("DijkstraProcess", "dijkstra_system"),
    ".handoff_lock": ("HandoffLockProcess", "handoff_lock_system"),
    ".peterson": ("PetersonProcess", "peterson_system"),
    ".tas_semaphore": ("TasSemaphoreProcess", "tas_semaphore_system"),
    ".tournament": ("TournamentProcess", "tournament_system"),
})

__all__ = [
    "MutexProcess",
    "MutexSystem",
    "REMAINDER",
    "TRYING",
    "CRITICAL",
    "EXIT",
    "REGIONS",
    "region_of",
    "TasSemaphoreProcess",
    "tas_semaphore_system",
    "HandoffLockProcess",
    "handoff_lock_system",
    "PetersonProcess",
    "peterson_system",
    "DijkstraProcess",
    "dijkstra_system",
    "BakeryProcess",
    "bakery_system",
    "TournamentProcess",
    "tournament_system",
]

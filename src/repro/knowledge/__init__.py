"""Knowledge and common knowledge over runs (survey §2.6)."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".analysis": (
        "common_knowledge_certificate", "delivery_knowledge_profile",
        "simultaneous_broadcast_system", "two_generals_point_system",
    ),
    ".kripke": ("Agent", "Fact", "Point", "PointSystem"),
})

__all__ = [
    "PointSystem",
    "Point",
    "Agent",
    "Fact",
    "two_generals_point_system",
    "delivery_knowledge_profile",
    "common_knowledge_certificate",
    "simultaneous_broadcast_system",
]

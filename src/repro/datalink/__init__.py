"""Communication protocols over lossy physical channels (survey §2.5)."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".impossibility": (
        "bounded_header_attack", "crash_attack", "packet_growth",
    ),
    ".protocols": (
        "AlternatingBitReceiver", "AlternatingBitSender", "StenningReceiver",
        "StenningSender",
    ),
    ".simulate": (
        "ChannelAdversary", "DataLinkReceiver", "DataLinkResult",
        "DataLinkSender", "FairLossyScheduler", "ScriptedAdversary",
        "run_datalink",
    ),
})

__all__ = [
    "DataLinkSender",
    "DataLinkReceiver",
    "DataLinkResult",
    "ChannelAdversary",
    "FairLossyScheduler",
    "ScriptedAdversary",
    "run_datalink",
    "AlternatingBitSender",
    "AlternatingBitReceiver",
    "StenningSender",
    "StenningReceiver",
    "crash_attack",
    "bounded_header_attack",
    "packet_growth",
]

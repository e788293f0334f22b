#!/usr/bin/env python3
"""The lossy-channel trilogy: Two Generals, data links, common knowledge.

One unreliable channel, three of the survey's results (§2.2.4, §2.5,
§2.6): no coordinated attack; no reliable delivery with crashes or
bounded headers; no common knowledge — and the knowledge ladder that
quantifies exactly how far each delivered message gets you.

    python examples/unreliable_channels.py
"""

from repro.asynchronous import HandshakeProtocol, two_generals_certificate
from repro.circumvention import blackout_atoms, run_gst_consensus
from repro.datalink import (
    AlternatingBitReceiver,
    AlternatingBitSender,
    FairLossyScheduler,
    bounded_header_attack,
    crash_attack,
    run_datalink,
)
from repro.knowledge import delivery_knowledge_profile


def main() -> None:
    print("-- Two Generals: every handshake depth fails somewhere --")
    for rounds, confirmations in [(2, 1), (4, 2), (6, 3)]:
        cert = two_generals_certificate(
            HandshakeProtocol(rounds, confirmations)
        )
        print(f"  {rounds}-slot / {confirmations}-ack handshake: breaks at "
              f"{cert.details['delivered']} deliveries")

    print("\n-- The knowledge ladder: what k deliveries buy --")
    profile = delivery_knowledge_profile(HandshakeProtocol(6, 3))
    for k in sorted(profile):
        entry = profile[k]
        print(f"  {k} deliveries: E^{entry['depth']} holds, "
              f"common knowledge: {entry['common']}")

    print("\n-- Data links: what retransmission can and cannot buy --")
    result = run_datalink(
        AlternatingBitSender(), AlternatingBitReceiver(),
        ["a", "b", "c"], FairLossyScheduler(loss=0.4, seed=1),
    )
    print(f"  alternating bit over fair lossy FIFO: delivered "
          f"{result.delivered} with {result.data_packets} packets "
          f"({'correct' if result.exactly_once_in_order else 'BROKEN'})")
    print(f"  + one receiver crash: {crash_attack().details['delivered']} "
          "(duplication — impossible per [78])")
    attack = bounded_header_attack(2)
    print(f"  + bounded headers vs packet stealing: delivered "
          f"{attack.details['bounded_delivered']} for [a, b, c], sender "
          f"believes done: {attack.details['bounded_sender_done']}")

    print("\n-- And the constructive coda: partial synchrony (DLS) --")
    # Every link dark until round 2, then synchrony.
    outcome = run_gst_consensus(
        blackout_atoms(2, 4), 7, inputs=(0, 1, 1, 0), t=1
    )
    print(f"  consensus decided {set(outcome.decisions.values())} in "
          f"{outcome.rounds} rounds once the network stabilized — "
          "weakening the problem, not the proof, is the way out.")


if __name__ == "__main__":
    main()

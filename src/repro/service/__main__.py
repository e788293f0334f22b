"""Command-line entry point: ``python -m repro.service``.

Answers one query against a certificate store directory, running the
live engine only on a miss, and prints the answer plus the store's
hit/miss accounting — so "the second run was all hits" is visible from
the shell:

    python -m repro.service --store certs flp --protocol quorum-vote --n 3
    python -m repro.service --store certs valency --protocol quorum-vote \\
        --n 3 --inputs 0,1,1
    python -m repro.service --store certs register-search --depth 2
    python -m repro.service --store certs campaign --runs 10 --seed 0
    python -m repro.service --store certs detector-run \\
        --atoms '[["split", 2, 3]]' --seed 0
    python -m repro.service --store certs lease-run \\
        --atoms '[["cut", 0, 0, 1]]' --buggy
    python -m repro.service --store certs stats
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..circumvention.partitions import parse_atoms
from ..core.budget import Budget
from .service import (
    QueryService,
    campaign_key,
    detector_run_key,
    flp_key,
    lease_run_key,
    register_search_key,
    valency_key,
)
from .store import CertificateStore

#: Flags and options that are not parameters of the query key.
_SERVICE_ARGS = ("store", "workers", "max_seconds", "command", "make_key")


def _inputs(text: str) -> tuple:
    """``--inputs 0,1,1`` as the input vector ``(0, 1, 1)``."""
    return tuple(int(v) for v in text.split(","))


class _Roster(argparse.Action):
    """``--targets`` with no names means the full roster (``None``)."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, tuple(values) or None)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Query the certificate store; run the live engine "
        "only on a miss.",
    )
    parser.add_argument(
        "--store", required=True, metavar="DIR",
        help="certificate store directory (created on first write)",
    )
    parser.add_argument(
        "--workers", default=1, metavar="N",
        help="worker processes for live fallbacks ('auto' = one per CPU)",
    )
    parser.add_argument(
        "--max-seconds", type=float, default=None,
        help="budget for live fallbacks; incomplete answers are not cached",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, make_key, help):
        # Key flags default to their constructor's (or engine's) default.
        parser = sub.add_parser(
            name, help=help, argument_default=argparse.SUPPRESS
        )
        parser.set_defaults(make_key=make_key)
        return parser

    flp = command("flp", flp_key, "full FLP analysis of one candidate")
    flp.add_argument("--protocol", required=True)
    flp.add_argument("--n", type=int)
    flp.add_argument("--stall-stages", type=int)

    valency = command(
        "valency", valency_key, "valency of one initial configuration"
    )
    valency.add_argument("--protocol", required=True)
    # valency_key takes n positionally before inputs, with no default.
    valency.add_argument("--n", type=int, default=2)
    valency.add_argument(
        "--inputs", required=True, type=_inputs, metavar="V,V,...",
        help="comma-separated input vector, e.g. 0,1,1",
    )

    register = command(
        "register-search", register_search_key,
        "exhaustive register-consensus census",
    )
    register.add_argument("--depth", type=int)

    campaign = command("campaign", campaign_key, "seeded chaos campaign")
    campaign.add_argument("--runs", type=int)
    campaign.add_argument("--seed", dest="master_seed", type=int)
    campaign.add_argument(
        "--targets", nargs="*", action=_Roster, metavar="NAME"
    )
    campaign.add_argument("--no-shrink", dest="shrink", action="store_false")

    detector = command(
        "detector-run", detector_run_key,
        "one heartbeat failure-detector run (circumvention layer)",
    )
    detector.add_argument(
        "--atoms", type=parse_atoms, metavar="JSON",
        help='partition schedule, e.g. \'[["split", 2, 3]]\'',
    )
    detector.add_argument("--seed", type=int)
    detector.add_argument("--n", type=int)
    detector.add_argument("--horizon", type=int)
    detector.add_argument("--initial-timeout", type=int)
    detector.add_argument(
        "--no-adaptive", dest="adaptive", action="store_false"
    )

    lease = command(
        "lease-run", lease_run_key,
        "one quorum-lease run under a partition schedule",
    )
    lease.add_argument(
        "--atoms", type=parse_atoms, metavar="JSON",
        help='partition schedule, e.g. \'[["cut", 0, 0, 1]]\'',
    )
    lease.add_argument("--seed", type=int)
    lease.add_argument("--n", type=int)
    lease.add_argument("--horizon", type=int)
    lease.add_argument(
        "--buggy", dest="buggy_no_quorum", action="store_true",
        help="grant leases without a quorum (the planted bug)",
    )

    sub.add_parser("stats", help="list the store's contents and exit")

    args = parser.parse_args(argv)
    if args.command == "campaign" and getattr(args, "targets", None):
        from ..chaos.targets import select_targets

        try:
            select_targets(args.targets)
        except ValueError as exc:
            campaign.error(str(exc))
    store = CertificateStore(args.store)

    if args.command == "stats":
        count = 0
        for fingerprint in store.entries():
            print(f"object  {fingerprint}")
            count += 1
        print(f"{count} entries in {store.root}")
        return 0

    budget = (
        Budget(max_seconds=args.max_seconds)
        if args.max_seconds is not None
        else None
    )
    workers = args.workers if args.workers == "auto" else int(args.workers)
    service = QueryService(store, budget=budget, workers=workers)
    params = {
        name: value for name, value in vars(args).items()
        if name not in _SERVICE_ARGS
    }
    key = args.make_key(**params)
    answer = service.resolve(key)

    print(json.dumps(answer.result, indent=2, sort_keys=True))
    print(
        f"answered from {answer.source} "
        f"(complete={answer.complete}, key={key.fingerprint()[:16]})",
        file=sys.stderr,
    )
    print(store.stats_line(), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

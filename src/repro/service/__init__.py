"""Impossibility-as-a-service: certificate store + query layer (§3.2).

The survey's closing argument is that impossibility results should be
*reusable artifacts*, not one-off computations.  This package makes the
repository's mechanized results exactly that: every engine answer is a
pure function of its canonicalized request, so it can be stored under a
content address (:mod:`repro.service.keys`), verified on the way back
out (:mod:`repro.service.store`), and served to later processes without
re-running the search (:mod:`repro.service.service`).

    store = CertificateStore("certs/")
    service = QueryService(store)
    service.resolve(flp_key("quorum-vote", n=3))   # live, then cached
    service.resolve(flp_key("quorum-vote", n=3))   # store hit, no search

``python -m repro.service`` is the CLI face of the same queries.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".keys": (
        "KEY_SCHEMA", "QueryKey", "canonical_json", "payload_fingerprint",
    ),
    ".service": (
        "QUERY_KINDS", "Answer", "QueryService",
        "benor_run_key", "campaign_key", "certificate_from_flp_payload",
        "certificate_from_register_payload", "detector_run_key", "flp_key",
        "flp_report_payload", "gst_run_key", "lease_run_key",
        "register_outcome_payload", "register_search_key",
        "run_campaign_cached", "valency_key",
    ),
    ".store": ("ENTRY_SCHEMA", "CertificateStore"),
})

__all__ = [
    "Answer",
    "CertificateStore",
    "ENTRY_SCHEMA",
    "KEY_SCHEMA",
    "QUERY_KINDS",
    "QueryKey",
    "QueryService",
    "benor_run_key",
    "campaign_key",
    "canonical_json",
    "certificate_from_flp_payload",
    "certificate_from_register_payload",
    "detector_run_key",
    "flp_key",
    "flp_report_payload",
    "gst_run_key",
    "lease_run_key",
    "payload_fingerprint",
    "register_outcome_payload",
    "register_search_key",
    "run_campaign_cached",
    "valency_key",
]

"""Pinned store addresses for the circumvention run kinds.

A certificate store is only useful across versions if the same request
keeps the same fingerprint: a key constructor that reorders, renames or
re-defaults a parameter silently turns every stored answer into a miss.
These pins fix the key fingerprint of each ``*_run_key`` constructor at
its defaults and at a fully non-default argument list (one positional),
plus the payload fingerprint of the live answer, so both the address
and the content of the stored entry are held fixed.
"""

import pytest

from repro.service import CertificateStore, QueryService
from repro.service.keys import payload_fingerprint
from repro.service.service import (
    benor_run_key,
    detector_run_key,
    gst_run_key,
    lease_run_key,
)

CASES = {
    "detector-default": (
        lambda: detector_run_key(),
        "3f05446e909af018f8bbbf34b01612a962acf127491ce842aa78b3f90c692a3a",
        "c12d14a9dc0164d41163c3c2d643d91cda104f084d99aa41b4aaa7ece97c9309",
    ),
    "detector-custom": (
        lambda: detector_run_key(
            [("split", 2, 3)], 7, n=5, horizon=30, heartbeat_every=2,
            initial_timeout=3, adaptive=False, jitter=0,
        ),
        "fa06477cefd2fb01a69fd24f7bf7e914ea8940942d46e6993955bc43ee7a17fc",
        "9c594e75ab37a44dbb147cfd28353ee4ee9ea60a1793703fd8b0826eba39dc45",
    ),
    "lease-default": (
        lambda: lease_run_key(),
        "765afcbfac7b2a4cfec74afa85efdd6a1254463f6b6b5315d854422b47229dc3",
        "ba53c66d63d0a9cd39058e281d5a6ead0725a8f2c6e3a39157e1137dbe640fee",
    ),
    "lease-custom": (
        lambda: lease_run_key(
            atoms=[("cut", 0, 0, 1)], seed=3, n=5, horizon=40, lease_len=6,
            renew_margin=1, staleness_bound=5, write_every=2, read_every=4,
            buggy_no_quorum=True,
        ),
        "08499c6c08348f0f8f5c9eab5f5acc22fd45ef5a9bc81c761f4be8a493229778",
        "3b04542e42050f2174f2e84a04148396d55b6f282eda59017fc51940c8a75c72",
    ),
    "benor-default": (
        lambda: benor_run_key(),
        "b6c23f74c31d015f5ac2099b85aeaa7d22d62632f25049a3f1c7da036f4cc6af",
        "942aef48a4a5483805d1e805a5e271edde1162d758ec663937d2ad008bdd68bb",
    ),
    "benor-custom": (
        lambda: benor_run_key(
            atoms=(3, 1, ("crash", 5, 2)), seed=17, n=5, t=2,
            inputs=[0, 1, 1, 0, 1], biased_coin=True, max_events=300,
        ),
        "05fa8178fdd4bd4b299aa4ac47d49107d5a7d793b9635eab08900bc390d2199c",
        "064f0419a0d705ccb1d176427bfd95fab06c5db3fb9b3e25580d84bd7744700b",
    ),
    "gst-default": (
        lambda: gst_run_key(),
        "2f82701700a5711286cb78f02b7931238f06079bd3b125ef352dccff4a859c09",
        "761d5a90adb39c6941c0622e1c2c1406c2a5f41a0698dbfef5655fdfd45198fb",
    ),
    "gst-custom": (
        lambda: gst_run_key(
            atoms=(("gst", 4), ("delay", 1, (0, 1), 2)), seed=5,
            inputs=(1, 0, 1), t=1, max_rounds=32, default_gst=9,
        ),
        "0c10aaa0dd0a6dc7da72077a3728e7917d1440c65177eddf62f7aa69f529b109",
        "585f04133bfd4391bcb559c3c7b959687a7721b75be2b7fc518c382c10a68a89",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_key_fingerprint_is_pinned(case):
    make, key_fp, _payload_fp = CASES[case]
    assert make().fingerprint() == key_fp


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_answer_payload_is_pinned(case, tmp_path):
    make, _key_fp, payload_fp = CASES[case]
    service = QueryService(CertificateStore(str(tmp_path)))
    answer = service.resolve(make())
    assert answer.source == "live" and answer.complete
    assert payload_fingerprint(answer.result) == payload_fp

"""The service CLI: each subcommand builds its key with the key constructor.

Every flag's destination is the constructor's parameter name and every
default is the constructor's (or its engine's), so the ``key=`` prefix a
command prints must be the fingerprint of the same call to the
constructor — with and without flags — and a second run against the same
store must answer from it.
"""

import pytest

from repro.service import (
    campaign_key,
    detector_run_key,
    flp_key,
    lease_run_key,
    register_search_key,
    valency_key,
)
from repro.service.__main__ import main

CASES = [
    (["flp", "--protocol", "first-message-wins"],
     flp_key("first-message-wins")),
    (["flp", "--protocol", "quorum-vote", "--n", "2", "--stall-stages", "6"],
     flp_key("quorum-vote", n=2, stall_stages=6)),
    (["valency", "--protocol", "quorum-vote", "--inputs", "0,1"],
     valency_key("quorum-vote", 2, (0, 1))),
    (["valency", "--protocol", "quorum-vote", "--n", "3",
      "--inputs", "0,1,1"],
     valency_key("quorum-vote", 3, (0, 1, 1))),
    (["register-search", "--depth", "1"], register_search_key(depth=1)),
    (["campaign", "--runs", "2", "--seed", "3", "--no-shrink",
      "--targets", "lcr-ring", "racy-lock"],
     campaign_key(("lcr-ring", "racy-lock"), runs=2, master_seed=3,
                  shrink=False)),
    (["campaign", "--runs", "1", "--targets"], campaign_key(None, runs=1)),
    (["detector-run"], detector_run_key()),
    (["detector-run", "--atoms", '[["split", 2, 3]]', "--seed", "1",
      "--n", "5", "--horizon", "30", "--initial-timeout", "2",
      "--no-adaptive"],
     detector_run_key(atoms=(("split", 2, 3),), seed=1, n=5, horizon=30,
                      initial_timeout=2, adaptive=False)),
    (["lease-run"], lease_run_key()),
    (["lease-run", "--atoms", '[["cut", 0, 0, 1]]', "--seed", "2",
      "--n", "5", "--horizon", "20", "--buggy"],
     lease_run_key(atoms=(("cut", 0, 0, 1),), seed=2, n=5, horizon=20,
                   buggy_no_quorum=True)),
]


@pytest.mark.parametrize(
    "argv, key", CASES, ids=[" ".join(argv) for argv, _key in CASES]
)
def test_printed_key_is_the_constructors(tmp_path, capsys, argv, key):
    store = ["--store", str(tmp_path / "certs")]
    prefix = f"key={key.fingerprint()[:16]})"
    assert main(store + argv) == 0
    cold = capsys.readouterr().err
    assert "answered from live" in cold and prefix in cold
    assert main(store + argv) == 0
    warm = capsys.readouterr().err
    assert "answered from store" in warm and prefix in warm
    assert "hits=1" in warm


def test_unknown_campaign_target_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["--store", str(tmp_path / "certs"), "campaign",
              "--targets", "lcr-ring", "bogus"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "unknown targets ['bogus']" in err and "lcr-ring" in err
    # Refused before the store is opened.
    assert not (tmp_path / "certs").exists()

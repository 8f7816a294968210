"""Golden-digest gate for the simulator and the probe campaigns.

The RTB simulator is the pipeline's hot path, and every speed-up of it
must leave its outputs bit-identical.  These digests pin, at a fixed
seed and a small scale:

* every simulated weblog row (its ``repr``, so nURLs, timestamps, sizes
  and durations all count);
* the charge prices and the feature rows of probe campaigns A1
  (encrypting exchanges) and A2 (MoPub cleartext), run against the
  market of the same seed.

A change to any random draw, to the auction order of bidders or
campaigns, to the common value or to the nURL bytes moves a digest.
When a change *means* to alter the simulation, it re-pins the digests
and says so.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.campaigns import run_campaign_a1, run_campaign_a2
from repro.trace.simulate import SimulationConfig, build_market, simulate_dataset
from repro.util.rng import RngRegistry

SEED = 424242

CONFIG = SimulationConfig(
    n_users=40,
    target_auctions=1_200,
    n_web_publishers=60,
    n_app_publishers=30,
    n_advertisers=20,
    seed=SEED,
)

#: Probe auctions per Table-5 setup (144 setups per campaign).
AUCTIONS_PER_SETUP = 3

GOLDEN = {
    "weblog_rows": (
        "6e3c56c3dcd1927cad49f4dfd1273ae9"
        "1f7b79a8e7957df57e9a26ffa4a25555"
    ),
    "a1_prices": (
        "391ffc102f16147972cf2f4659e785f3"
        "3f163e0fb173c903b0b7028babc374ae"
    ),
    "a1_feature_rows": (
        "809b1a71b9b101a099623641c127bfe9"
        "4014a96e56e2c508d69e8e524000d52b"
    ),
    "a2_prices": (
        "19e4655a4cb810eb68265b1c1881ef34"
        "cde8a22486edc9f7118a428732229f9d"
    ),
    "a2_feature_rows": (
        "4048e40563333ff258c43d1d53953ca6"
        "06309310d50ae093a1e4e9096c394efa"
    ),
}


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def _feature_items(campaign):
    return [sorted(row.items()) for row in campaign.feature_rows()]


@pytest.fixture(scope="module")
def digests() -> dict[str, str]:
    weblog = simulate_dataset(CONFIG)
    market = build_market(CONFIG, RngRegistry(CONFIG.seed))
    a1 = run_campaign_a1(market, seed=SEED, auctions_per_setup=AUCTIONS_PER_SETUP)
    a2 = run_campaign_a2(market, seed=SEED, auctions_per_setup=AUCTIONS_PER_SETUP)
    return {
        "weblog_rows": _digest(weblog.rows),
        "a1_prices": _digest(a1.prices().tolist()),
        "a1_feature_rows": _digest(_feature_items(a1)),
        "a2_prices": _digest(a2.prices().tolist()),
        "a2_feature_rows": _digest(_feature_items(a2)),
    }


@pytest.mark.tier1
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(digests, name):
    assert digests[name] == GOLDEN[name], (
        f"{name} digest moved: the simulation is no longer bit-identical"
    )

"""Shared fixtures for the figure/table reproduction benchmarks.

Expensive artefacts (dataset D, the analyzer pass, probe campaigns A1
and A2, the trained price model) are built once per pytest session and
shared by every benchmark.  Each benchmark times only its own
aggregation step and writes the regenerated table to
``benchmarks/output/<id>.txt`` (also echoed to stdout under ``-s``).

Scale: ``REPRO_BENCH_SCALE`` (default 1.0) scales dataset D's user and
auction counts; campaign depth follows the paper's 185-impressions-per-
setup sizing scaled the same way.  The default regenerates every number
at the paper's scale in roughly five minutes on a laptop.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analyzer.interests import PublisherDirectory
from repro.analyzer.pipeline import WeblogAnalyzer
from repro.core.campaigns import run_campaign_a1, run_campaign_a2
from repro.core.estimator import Estimator
from repro.core.pme import PAPER_FEATURE_SET, mopub_cleartext_prices
from repro.core.cost import compute_user_costs
from repro.stats.distributions import median_ratio
from repro.trace.simulate import build_market, default_config, simulate_dataset
from repro.util.rng import RngRegistry

BENCH_SEED = 20151231
OUTPUT_DIR = Path(__file__).parent / "output"


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


@pytest.fixture(scope="session")
def config():
    scale = bench_scale()
    cfg = default_config()
    return cfg if scale >= 0.999 else cfg.scaled(scale)


@pytest.fixture(scope="session")
def dataset_d(config):
    """The full dataset D (paper scale: 1,594 users, ~80k impressions)."""
    return simulate_dataset(config)


@pytest.fixture(scope="session")
def directory(dataset_d):
    return PublisherDirectory.from_universe(dataset_d.universe)


@pytest.fixture(scope="session")
def analysis(dataset_d, directory):
    """The observer-side analyzer pass over D."""
    return WeblogAnalyzer(directory).analyze(dataset_d.rows)


@pytest.fixture(scope="session")
def market(config):
    return build_market(config, RngRegistry(config.seed))


@pytest.fixture(scope="session")
def auctions_per_setup():
    return max(10, int(185 * bench_scale()))


@pytest.fixture(scope="session")
def campaign_a1(market, auctions_per_setup):
    return run_campaign_a1(market, seed=BENCH_SEED, auctions_per_setup=auctions_per_setup)


@pytest.fixture(scope="session")
def campaign_a2(market, auctions_per_setup):
    return run_campaign_a2(market, seed=BENCH_SEED, auctions_per_setup=auctions_per_setup)


@pytest.fixture(scope="session")
def price_model(campaign_a1):
    rows = campaign_a1.feature_rows()
    names = [n for n in PAPER_FEATURE_SET] + ["os"]
    return Estimator.train(
        rows, list(campaign_a1.prices()), feature_names=names, seed=BENCH_SEED
    )


@pytest.fixture(scope="session")
def time_correction(campaign_a2, analysis):
    return median_ratio(campaign_a2.prices(), mopub_cleartext_prices(analysis))


@pytest.fixture(scope="session")
def user_costs(analysis, price_model, time_correction):
    return compute_user_costs(analysis, price_model, time_correction)


def emit(name: str, lines: list[str]) -> None:
    """Print a regenerated table and persist it under benchmarks/output."""
    text = "\n".join(lines)
    print(f"\n===== {name} =====\n{text}\n")
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")

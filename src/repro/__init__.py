"""repro: reproduction of "If you are not paying for it, you are the
product: How much do advertisers pay to reach you?" (IMC 2017).

A complete, self-contained implementation of the paper's system plus
every substrate it depends on:

* :mod:`repro.rtb` -- the RTB ecosystem (exchanges, DSPs, second-price
  auctions, nURLs, 28-byte price encryption, cookie sync);
* :mod:`repro.trace` -- a generative mobile weblog standing in for the
  paper's proprietary year-long trace of 1,594 users;
* :mod:`repro.analyzer` -- the Weblog Ads Analyzer (blacklist
  classification, nURL detection, feature extraction);
* :mod:`repro.ml` -- from-scratch Random Forests, CV, metrics;
* :mod:`repro.stats` -- summaries, KS tests, sample-size design;
* :mod:`repro.core` -- the Price Modeling Engine, the encrypted-price
  model, per-user cost computation, and the YourAdValue client.

Quickstart::

    from repro import quickstart_pipeline
    result = quickstart_pipeline()
    print(result["summary"].headline())
"""

from repro.core import (
    Estimator,
    PriceModelingEngine,
    YourAdValue,
    compute_user_costs,
)
from repro.analyzer import PublisherDirectory, WeblogAnalyzer
from repro.trace import SimulationConfig, simulate_dataset, small_config

__version__ = "1.0.0"

__all__ = [
    "PriceModelingEngine",
    "Estimator",
    "YourAdValue",
    "compute_user_costs",
    "WeblogAnalyzer",
    "PublisherDirectory",
    "SimulationConfig",
    "simulate_dataset",
    "small_config",
    "quickstart_pipeline",
    "__version__",
]


def quickstart_pipeline(
    seed: int = 7, scale: float = 0.03, workers: int | None = 1,
    chunk_size: int | None = None,
) -> dict:
    """Run the whole methodology end-to-end at a small scale.

    Simulates a scaled dataset D, analyses it, runs scaled probe
    campaigns, trains the price model, computes per-user costs, and
    replays one user's traffic through a YourAdValue client.  Returns a
    dict with the main artefacts; see ``examples/quickstart.py`` for a
    narrated version.  ``workers`` parallelises both the analyzer scan
    (sharded by user) and the forest training step; any value is
    bit-identical to ``workers=1``.  ``chunk_size`` bounds the rows per
    analyzer task.  Run under ``with repro.obs.start_trace(...):`` to
    capture the per-stage span tree.
    """
    from repro import obs
    from repro.trace import build_market, default_config
    from repro.util.rng import RngRegistry

    config = default_config().scaled(scale)
    with obs.stage("quickstart.simulate", scale=scale):
        dataset = simulate_dataset(config)
    directory = PublisherDirectory.from_universe(dataset.universe)
    analyzer = WeblogAnalyzer(directory)
    analysis = analyzer.analyze(
        dataset.rows, workers=workers, chunk_size=chunk_size
    )

    pme = PriceModelingEngine(seed=seed)
    pme.bootstrap(analysis, use_paper_features=True)
    market = build_market(config, RngRegistry(config.seed))
    pme.run_probe_campaigns(market, auctions_per_setup=max(10, int(185 * scale)))
    model = pme.train_model(evaluate=False, workers=workers)
    from repro.core.pme import mopub_cleartext_prices

    pme.compute_time_correction(mopub_cleartext_prices(analysis))
    # Score costs with the *packaged* model -- the exact artefact
    # clients download -- so the backend cost table and the YourAdValue
    # ledger agree bit-for-bit: both apply the packaged time-correction
    # coefficient to encrypted estimates (cleartext sums are corrected
    # inside compute_user_costs as before).
    package = pme.package_model()
    estimator = Estimator.from_package(package)
    with obs.stage("quickstart.user_costs", users=config.n_users):
        costs = compute_user_costs(analysis, estimator, pme.state.time_correction)

    client = YourAdValue(package, directory)
    heaviest = max(costs.values(), key=lambda c: c.total_cpm).user_id
    client.observe_many(r for r in dataset.rows if r.user_id == heaviest)

    return {
        "dataset": dataset,
        "analysis": analysis,
        "pme": pme,
        "model": model,
        "estimator": estimator,
        "costs": costs,
        "client": client,
        "summary": client.summary(),
    }

"""Command-line interface.

Six subcommands mirror the deployment's moving parts:

* ``simulate`` -- generate a dataset-D weblog (and its publisher
  directory) to disk;
* ``analyze`` -- run the Weblog Ads Analyzer over a weblog file and
  write the price observations;
* ``pipeline`` -- run everything (simulate, analyze, probe campaigns,
  train) and write the model package plus a summary;
* ``estimate`` -- price impression contexts with a saved model (a
  single JSON object, or an array / ``--features-file`` for vectorised
  batch scoring through the whole-forest arena);
* ``serve`` -- run the PME as a long-running asyncio HTTP service
  (micro-batched ``/estimate``, ``/model`` distribution with ETags,
  ``/contribute`` ingestion; ``--bootstrap`` additionally trains an
  in-process PME so contributions can trigger retrain + hot reload);
* ``obs`` -- inspect the observability dump the traced commands
  (``pipeline``, ``analyze``) write: the stitched span tree plus the
  metrics table (``repro obs dump``).

Parallelism/IO knobs are spelled ``--workers`` / ``--chunk-size``
everywhere (and ``workers=`` / ``chunk_size=`` in the API).  The price
forest always trains with the histogram engine; there is no engine
flag.

Examples::

    python -m repro.cli simulate --scale 0.05 --out weblog.csv.gz \
        --directory directory.csv
    python -m repro.cli analyze --weblog weblog.csv.gz \
        --directory directory.csv --out observations.csv \
        --workers 4 --chunk-size 50000
    python -m repro.cli pipeline --scale 0.05 --model model.json.gz \
        --workers 4
    python -m repro.cli obs dump
    python -m repro.cli estimate --model model.json.gz \
        --features '{"context": "app", "publisher_iab": "IAB3", ...}'
    python -m repro.cli serve --model model.json.gz --port 8080 \
        --max-batch 32 --max-delay-ms 2
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from repro.io import (
    load_model_package,
    read_directory_csv,
    save_model_package,
    write_directory_csv,
    write_observations_csv,
    write_weblog_csv,
)
from repro.util.rng import DEFAULT_SEED


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.analyzer.interests import PublisherDirectory
    from repro.trace.simulate import default_config, simulate_dataset

    config = default_config()
    if args.scale < 0.999:
        config = config.scaled(args.scale)
    if args.seed is not None:
        from dataclasses import replace

        config = replace(config, seed=args.seed)
    print(
        f"simulating {config.n_users} users / ~{config.target_auctions:,} auctions...",
        file=sys.stderr,
    )
    dataset = simulate_dataset(config)
    rows = write_weblog_csv(dataset.rows, args.out)
    print(f"wrote {rows:,} weblog rows to {args.out}")
    if args.directory:
        directory = PublisherDirectory.from_universe(dataset.universe)
        entries = write_directory_csv(directory, args.directory)
        print(f"wrote {entries:,} directory entries to {args.directory}")
    summary = dataset.summary()
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.analyzer.pipeline import WeblogAnalyzer
    from repro.io import iter_weblog_csv

    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.chunk_size < 1:
        print("error: --chunk-size must be >= 1", file=sys.stderr)
        return 2
    directory = read_directory_csv(args.directory)
    # Stream straight off disk: the single-pass analyzer (and the
    # sharded parallel path behind --workers) never materialise the log.
    rows = iter_weblog_csv(args.weblog)
    with obs.start_trace("analyze", workers=args.workers) as trace:
        analysis = WeblogAnalyzer(directory).analyze(
            rows, workers=args.workers, chunk_size=args.chunk_size
        )
    dump_path = obs.save_dump(args.obs_out, trace=trace)
    print(f"observability dump written to {dump_path}", file=sys.stderr)
    n_rows = sum(analysis.traffic_counts.values())
    count = write_observations_csv(analysis.observations, args.out)
    print(f"analyzed {n_rows:,} rows -> {count:,} price observations ({args.out})")
    encrypted = len(analysis.encrypted())
    print(
        json.dumps(
            {
                "observations": count,
                "encrypted": encrypted,
                "cleartext": count - encrypted,
                "traffic_groups": dict(Counter(analysis.traffic_counts)),
                "top_exchanges": dict(
                    list(analysis.entity_rtb_shares().items())[:5]
                ),
            },
            indent=2,
        )
    )
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    from repro import obs, quickstart_pipeline
    from repro.core.cost import CostDistribution

    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.chunk_size is not None and args.chunk_size < 1:
        print("error: --chunk-size must be >= 1", file=sys.stderr)
        return 2
    with obs.start_trace(
        "pipeline", scale=args.scale, workers=args.workers,
    ) as trace:
        result = quickstart_pipeline(
            seed=args.seed or DEFAULT_SEED, scale=args.scale,
            workers=args.workers, chunk_size=args.chunk_size,
        )
    dump_path = obs.save_dump(args.obs_out, trace=trace)
    print(f"observability dump written to {dump_path}", file=sys.stderr)
    pme = result["pme"]
    package = pme.package_model()
    save_model_package(package, args.model)
    print(f"model package written to {args.model}")

    dist = CostDistribution.from_costs(result["costs"])
    print(
        json.dumps(
            {
                "users": len(result["costs"]),
                "median_total_cpm": round(dist.median_total(), 2),
                "below_100_cpm": round(dist.fraction_below(100), 3),
                "time_correction": round(pme.state.time_correction, 3),
                "a1_impressions": len(pme.state.campaign_a1.impressions),
                "a2_impressions": len(pme.state.campaign_a2.impressions),
            },
            indent=2,
        )
    )
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    from repro.core.estimator import Estimator

    package = load_model_package(args.model)
    estimator = Estimator.from_package(package)
    if args.features_file:
        try:
            text = open(args.features_file, "r", encoding="utf-8").read()
            features = json.loads(text)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read --features-file: {exc}", file=sys.stderr)
            return 2
    else:
        try:
            features = json.loads(args.features)
        except json.JSONDecodeError as exc:
            print(f"error: --features is not valid JSON: {exc}", file=sys.stderr)
            return 2
    if isinstance(features, dict):
        estimate = estimator.estimate_one(features)
        print(json.dumps({"estimated_cpm": round(estimate, 4)}))
        return 0
    if isinstance(features, list):
        if not all(isinstance(row, dict) for row in features):
            print("error: a JSON array of features must contain objects",
                  file=sys.stderr)
            return 2
        # Batch scoring: one encode + one vectorised pass through the
        # forest arena, not a per-row loop.
        result = estimator.estimate(features)
        print(
            json.dumps(
                {
                    "estimated_cpm": [round(float(v), 4) for v in result.prices],
                    "count": len(features),
                }
            )
        )
        return 0
    print("error: --features must be a JSON object or array of objects",
          file=sys.stderr)
    return 2


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.core.contributions import ContributionServer
    from repro.serve import PmeServer

    if args.max_batch < 1:
        print("error: --max-batch must be >= 1", file=sys.stderr)
        return 2
    if args.max_delay_ms < 0:
        print("error: --max-delay-ms must be >= 0", file=sys.stderr)
        return 2
    if bool(args.model) == bool(args.bootstrap):
        print("error: pass exactly one of --model / --bootstrap",
              file=sys.stderr)
        return 2

    pme = None
    if args.model:
        package = load_model_package(args.model)
        source = args.model
    else:
        # Bootstrap a full PME in-process (simulate + analyze + probe +
        # train) so the serve loop can retrain on contributions.
        from repro import quickstart_pipeline

        print(
            f"bootstrapping PME at scale {args.bootstrap} "
            "(simulate + analyze + campaigns + train)...",
            file=sys.stderr,
        )
        result = quickstart_pipeline(
            seed=args.seed or DEFAULT_SEED, scale=args.bootstrap,
            workers=args.workers,
        )
        pme = result["pme"]
        package = pme.package_model()
        source = f"bootstrap(scale={args.bootstrap})"

    server = PmeServer(
        package,
        pme=pme,
        contributions=ContributionServer(k_anonymity=args.k_anonymity),
        max_batch=args.max_batch,
        max_delay_ms=args.max_delay_ms,
        retrain_min_new_rows=args.retrain_min_new_rows,
        workers=args.workers,
    )
    retrain = "enabled" if server.retrain_enabled else "disabled"
    print(
        f"serving {source} (model version "
        f"{server.store.current.version}, retrain {retrain}) "
        f"on http://{args.host}:{args.port} -- "
        f"max_batch={args.max_batch}, max_delay_ms={args.max_delay_ms}",
        file=sys.stderr,
    )
    try:
        server.run(host=args.host, port=args.port)
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro import obs

    if args.obs_command == "dump":
        try:
            payload = obs.load_dump(args.path)
        except FileNotFoundError:
            target = args.path or obs.default_dump_path()
            print(
                f"error: no observability dump at {target} -- run "
                "'repro pipeline' or 'repro analyze' first, or pass --path",
                file=sys.stderr,
            )
            return 2
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            print(obs.render_dump(payload))
        return 0
    print(f"error: unknown obs command {args.obs_command!r}", file=sys.stderr)
    return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RTB price-transparency toolkit (IMC'17 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a dataset-D weblog")
    p_sim.add_argument("--scale", type=float, default=0.05,
                       help="fraction of paper scale (default 0.05)")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out", required=True, help="weblog CSV(.gz) path")
    p_sim.add_argument("--directory", default=None,
                       help="also write the publisher directory CSV here")
    p_sim.set_defaults(func=_cmd_simulate)

    p_an = sub.add_parser("analyze", help="run the analyzer over a weblog")
    p_an.add_argument("--weblog", required=True)
    p_an.add_argument("--directory", required=True)
    p_an.add_argument("--out", required=True, help="observations CSV path")
    p_an.add_argument("--workers", type=int, default=1,
                      help="analysis processes; >1 shards rows by user "
                           "hash across a multiprocessing pool (default 1)")
    p_an.add_argument("--chunk-size", type=int, default=50_000,
                      help="rows dispatched to a worker per task; bounds "
                           "coordinator memory (default 50000)")
    p_an.add_argument("--obs-out", default=None,
                      help="observability dump path (default "
                           "$REPRO_OBS_PATH or .repro_obs/last_run.json)")
    p_an.set_defaults(func=_cmd_analyze)

    p_pipe = sub.add_parser(
        "pipeline",
        help="simulate + analyze + train the price forest (histogram "
             "split engine)",
    )
    p_pipe.add_argument("--scale", type=float, default=0.05)
    p_pipe.add_argument("--seed", type=int, default=None)
    p_pipe.add_argument("--model", required=True, help="model JSON(.gz) path")
    p_pipe.add_argument("--workers", type=int, default=1,
                        help="processes for the analyzer scan and forest "
                             "training; bit-identical to --workers 1 "
                             "(default 1)")
    p_pipe.add_argument("--chunk-size", type=int, default=None,
                        help="rows dispatched per analyzer task when "
                             "--workers > 1 (default 50000)")
    p_pipe.add_argument("--obs-out", default=None,
                        help="observability dump path (default "
                             "$REPRO_OBS_PATH or .repro_obs/last_run.json)")
    p_pipe.set_defaults(func=_cmd_pipeline)

    p_est = sub.add_parser("estimate",
                           help="estimate encrypted prices with a saved model")
    p_est.add_argument("--model", required=True)
    group = p_est.add_mutually_exclusive_group(required=True)
    group.add_argument("--features",
                       help="JSON object of S features, or a JSON array of "
                            "such objects for vectorised batch scoring")
    group.add_argument("--features-file",
                       help="path to a JSON file holding one feature object "
                            "or an array of them (batch scoring)")
    p_est.set_defaults(func=_cmd_estimate)

    p_obs = sub.add_parser(
        "obs", help="inspect the observability dump of the last traced run"
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_dump = obs_sub.add_parser(
        "dump", help="render the span tree + metrics of the last run"
    )
    p_dump.add_argument("--path", default=None,
                        help="dump file (default $REPRO_OBS_PATH or "
                             ".repro_obs/last_run.json)")
    p_dump.add_argument("--json", action="store_true",
                        help="print the raw JSON payload instead of the "
                             "rendered tree")
    p_dump.set_defaults(func=_cmd_obs)

    p_srv = sub.add_parser(
        "serve", help="run the PME as a long-running HTTP service"
    )
    p_srv.add_argument("--model", default=None,
                       help="serve a saved model package (JSON/.gz); "
                            "contributions are collected but retraining "
                            "is disabled (no campaign ground truth)")
    p_srv.add_argument("--bootstrap", type=float, default=None,
                       metavar="SCALE",
                       help="bootstrap an in-process PME at this pipeline "
                            "scale instead of --model; enables retrain + "
                            "hot reload on contributions")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=8080)
    p_srv.add_argument("--seed", type=int, default=None)
    p_srv.add_argument("--max-batch", type=int, default=32,
                       help="estimate micro-batch flush size (1 disables "
                            "batching; default 32)")
    p_srv.add_argument("--max-delay-ms", type=float, default=2.0,
                       help="max time the oldest queued estimate waits "
                            "before a partial batch flushes (default 2)")
    p_srv.add_argument("--k-anonymity", type=int, default=3,
                       help="distinct contributors required before an "
                            "(ADX, IAB) group's records are releasable")
    p_srv.add_argument("--retrain-min-new-rows", type=int, default=50,
                       help="new releasable rows that trigger a retrain "
                            "and hot reload (default 50)")
    p_srv.add_argument("--workers", type=int, default=1,
                       help="forest-training processes during bootstrap "
                            "and retrain (default 1)")
    p_srv.set_defaults(func=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

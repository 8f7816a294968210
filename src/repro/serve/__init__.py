"""``repro.serve`` -- the PME as a long-running asyncio service.

The paper's methodology is client/server: a centralised PME trains and
packages the price model, YourAdValue clients download it, estimate
encrypted prices locally, and stream anonymous contributions back for
retraining (sections 3.2-3.3).  This package is that loop as a
stdlib-only HTTP/1.1 service:

* :class:`PmeServer` (:mod:`repro.serve.app`) -- routes, micro-batched
  ``/estimate``, ``/model`` distribution with content-hash ETags,
  ``/contribute`` ingestion with retrain-triggered atomic hot reload,
  ``/healthz`` + ``/metrics``;
* :class:`MicroBatcher` (:mod:`repro.serve.batching`) -- coalesces
  concurrent estimates into single vectorised forest calls;
* :class:`ModelStore` / :class:`ModelSnapshot`
  (:mod:`repro.serve.store`) -- versioned, hot-swappable packages.

``benchmarks/loadgen.py`` is the keep-alive client and load generator
that drives it.

Quickstart::

    from repro import quickstart_pipeline
    from repro.serve import PmeServer

    result = quickstart_pipeline()
    server = PmeServer(pme=result["pme"])
    server.run(port=8080)          # or: await server.start(port=0)

or from the command line: ``python -m repro.cli serve --model model.json.gz``.
"""

from repro.serve.app import PmeServer
from repro.serve.batching import MicroBatcher
from repro.serve.metrics import ServeMetrics
from repro.serve.store import ModelSnapshot, ModelStore, build_snapshot

__all__ = [
    "PmeServer",
    "MicroBatcher",
    "ServeMetrics",
    "ModelSnapshot",
    "ModelStore",
    "build_snapshot",
]

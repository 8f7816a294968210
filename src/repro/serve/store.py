"""Versioned, hot-swappable model packages for the serving layer.

The distribution contract (paper section 3.2: clients poll the PME and
download the current model package) needs three things server-side:

* a **canonical byte form** of the package so ``GET /model`` responses
  are stable and cheap (serialised once per version, not per request);
* a **content-hash ETag** so polling clients pay one round trip and
  zero bytes when nothing changed (``If-None-Match`` -> 304);
* an **atomic swap** discipline for retrains: a request handler grabs
  one immutable :class:`ModelSnapshot` reference at dispatch time and
  uses it for its whole lifetime, so a swap mid-request can never mix
  two models' outputs and readers never block (reference assignment is
  atomic under the event loop; there is no lock to contend on).

Snapshot construction (JSON canonicalisation, forest deserialisation,
flat-tree compilation) is deliberately separated from installation so
the expensive part can run in an executor thread during retrains while
installation stays a single event-loop-side pointer swap.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass

from repro.core.estimator import Estimator


@dataclass(frozen=True)
class ModelSnapshot:
    """One immutable, fully-materialised model version.

    ``estimator`` is the package's loaded price model, built once per
    version so the ``/estimate`` hot path never deserialises per batch.
    """

    package: dict
    body: bytes              # canonical JSON, the exact /model payload
    etag: str                # quoted strong ETag over ``body``
    version: int
    estimator: Estimator
    loaded_at: float         # time.time() at construction

    @property
    def age_seconds(self) -> float:
        return time.time() - self.loaded_at


def build_snapshot(package: dict, version: int | None = None) -> ModelSnapshot:
    """Materialise a snapshot: canonical bytes, hash, compiled model.

    CPU-heavy (deserialises the forest and compiles flat trees); call
    it off the event loop when a retrain produces the package.
    """
    package = dict(package)
    if version is not None:
        package["version"] = int(version)
    package.setdefault("version", 1)
    body = json.dumps(package, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    etag = '"' + hashlib.sha256(body).hexdigest() + '"'
    return ModelSnapshot(
        package=package,
        body=body,
        etag=etag,
        version=int(package["version"]),
        estimator=Estimator.from_package(package),
        loaded_at=time.time(),
    )


class ModelStore:
    """Holds the current :class:`ModelSnapshot`; swaps are atomic."""

    def __init__(self, package: dict):
        self._current = build_snapshot(package)
        self._swaps = 0

    @property
    def current(self) -> ModelSnapshot:
        """Grab once per request; never re-read mid-request."""
        return self._current

    @property
    def swap_count(self) -> int:
        return self._swaps

    def install(self, snapshot: ModelSnapshot) -> ModelSnapshot:
        """Make ``snapshot`` current (single reference assignment)."""
        if snapshot.version <= self._current.version:
            raise ValueError(
                f"refusing to install version {snapshot.version} over "
                f"{self._current.version} (versions must increase)"
            )
        self._current = snapshot
        self._swaps += 1
        return snapshot

"""File persistence: weblogs, observations, directories, model packages.

A deployment of this methodology moves four artefacts between
components: raw weblog rows (proxy -> analyzer), a publisher->IAB
directory (categorisation service -> analyzer), price observations
(analyzer -> research), and the model package (PME -> clients).  This
module gives each a simple on-disk format: gzip CSV for the tabular
ones, JSON for the model package.
"""

from __future__ import annotations

import csv
import gzip
import json
from pathlib import Path
from typing import Iterable

from repro.analyzer.interests import PublisherDirectory
from repro.analyzer.pipeline import PriceObservation
from repro.trace.weblog import HttpRequest

_WEBLOG_FIELDS = (
    "timestamp", "user_id", "url", "domain", "user_agent", "kind",
    "bytes_transferred", "duration_ms", "client_ip",
)

_OBSERVATION_FIELDS = (
    "timestamp", "user_id", "adx", "dsp", "is_encrypted", "price_cpm",
    "encrypted_token", "slot_size", "publisher", "publisher_iab", "city",
    "os", "device_type", "context", "campaign_id", "n_url_params",
)


def _open_text(path: str | Path, mode: str):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8", newline="")
    return open(path, mode, encoding="utf-8", newline="")


def write_weblog_csv(rows: Iterable[HttpRequest], path: str | Path) -> int:
    """Write weblog rows to (optionally gzipped) CSV; returns row count."""
    count = 0
    with _open_text(path, "w") as handle:
        writer = csv.writer(handle)
        writer.writerow(_WEBLOG_FIELDS)
        for row in rows:
            writer.writerow(
                [
                    repr(row.timestamp), row.user_id, row.url, row.domain,
                    row.user_agent, row.kind, row.bytes_transferred,
                    repr(row.duration_ms), row.client_ip,
                ]
            )
            count += 1
    return count


def _weblog_row_from_record(record: dict[str, str]) -> HttpRequest:
    return HttpRequest(
        timestamp=float(record["timestamp"]),
        user_id=record["user_id"],
        url=record["url"],
        domain=record["domain"],
        user_agent=record["user_agent"],
        kind=record["kind"],
        bytes_transferred=int(record["bytes_transferred"]),
        duration_ms=float(record["duration_ms"]),
        client_ip=record["client_ip"],
    )


def iter_weblog_csv(path: str | Path):
    """Stream weblog rows written by :func:`write_weblog_csv`.

    A generator: one CSV record is in memory at a time, so arbitrarily
    large (gzipped) weblogs can feed the single-pass and sharded
    analyzers without ever being materialised.  Yields
    :class:`HttpRequest` rows in file order.
    """
    with _open_text(path, "r") as handle:
        reader = csv.DictReader(handle)
        missing = set(_WEBLOG_FIELDS) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"weblog CSV missing columns: {sorted(missing)}")
        for record in reader:
            yield _weblog_row_from_record(record)


def read_weblog_chunks(
    path: str | Path, chunk_size: int = 50_000
):
    """Stream weblog rows in bounded ``chunk_size`` batches.

    The chunked form of :func:`iter_weblog_csv` for consumers that want
    amortised per-batch dispatch (e.g. feeding a worker pool) while
    still never holding more than one chunk.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    chunk: list[HttpRequest] = []
    for row in iter_weblog_csv(path):
        chunk.append(row)
        if len(chunk) >= chunk_size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def write_observations_csv(
    observations: Iterable[PriceObservation], path: str | Path
) -> int:
    """Write analyzer price observations to CSV; returns row count."""
    count = 0
    with _open_text(path, "w") as handle:
        writer = csv.writer(handle)
        writer.writerow(_OBSERVATION_FIELDS)
        for obs in observations:
            writer.writerow(
                [
                    repr(obs.timestamp), obs.user_id, obs.adx, obs.dsp,
                    int(obs.is_encrypted),
                    "" if obs.price_cpm is None else repr(obs.price_cpm),
                    obs.encrypted_token or "", obs.slot_size or "",
                    obs.publisher, obs.publisher_iab, obs.city, obs.os,
                    obs.device_type, obs.context, obs.campaign_id,
                    obs.n_url_params,
                ]
            )
            count += 1
    return count


def read_observations_csv(path: str | Path) -> list[PriceObservation]:
    """Read observations written by :func:`write_observations_csv`."""
    observations = []
    with _open_text(path, "r") as handle:
        reader = csv.DictReader(handle)
        missing = set(_OBSERVATION_FIELDS) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"observations CSV missing columns: {sorted(missing)}")
        for record in reader:
            observations.append(
                PriceObservation(
                    timestamp=float(record["timestamp"]),
                    user_id=record["user_id"],
                    adx=record["adx"],
                    dsp=record["dsp"],
                    is_encrypted=bool(int(record["is_encrypted"])),
                    price_cpm=float(record["price_cpm"]) if record["price_cpm"] else None,
                    encrypted_token=record["encrypted_token"] or None,
                    slot_size=record["slot_size"] or None,
                    publisher=record["publisher"],
                    publisher_iab=record["publisher_iab"],
                    city=record["city"],
                    os=record["os"],
                    device_type=record["device_type"],
                    context=record["context"],
                    campaign_id=record["campaign_id"],
                    n_url_params=int(record["n_url_params"]),
                )
            )
    return observations


def write_directory_csv(directory: PublisherDirectory, path: str | Path) -> int:
    """Write a publisher->IAB directory to CSV; returns entry count."""
    entries = directory.items()
    with _open_text(path, "w") as handle:
        writer = csv.writer(handle)
        writer.writerow(("domain", "iab_category"))
        writer.writerows(entries)
    return len(entries)


def read_directory_csv(path: str | Path) -> PublisherDirectory:
    """Read a directory written by :func:`write_directory_csv`."""
    directory = PublisherDirectory()
    with _open_text(path, "r") as handle:
        reader = csv.DictReader(handle)
        for record in reader:
            directory.register(record["domain"], record["iab_category"])
    return directory


def save_model_package(package: dict, path: str | Path) -> None:
    """Write a PME model package as JSON (gzipped when path ends .gz)."""
    text = json.dumps(package)
    path = Path(path)
    if path.suffix == ".gz":
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(text)
    else:
        path.write_text(text, encoding="utf-8")


def load_model_package(path: str | Path) -> dict:
    """Read a model package written by :func:`save_model_package`."""
    path = Path(path)
    if path.suffix == ".gz":
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            payload = json.load(handle)
    else:
        payload = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or payload.get("kind") != "yav_price_model":
        raise ValueError(f"{path} is not a YourAdValue model package")
    return payload

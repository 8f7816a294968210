"""Golden-digest gate for the price forest: fit, load and introspection.

``data/forest_v2.json`` is a format-2 forest payload, written by
``forest_to_dict`` from ``_fit(workers=1)`` below.  It stays in the
repository as a legacy artefact that every later release must still
load.  These digests pin, to the last bit:

* ``predict_proba`` of the fixture loaded as format 2;
* ``predict_proba`` of a format-1 payload derived from it, in a class
  space one label wider than its trees (so every tree is widened at
  load);
* ``predict_proba`` of a fresh fit at ``workers=1`` and ``workers=2``;
* tree 0's ``depth``, ``n_leaves`` and decision paths on fixed rows
  (walked by the ``decision_path`` oracle), both for the fresh fit and
  for the loaded fixture.

Node ids, the payload layout and the fitted structure's representation
may change; none of these numbers may.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier
from repro.ml.serialize import forest_from_dict
from tests.ml.reference import decision_path

pytestmark = pytest.mark.tier1

FIXTURE = Path(__file__).parent / "data" / "forest_v2.json"

#: predict_proba of the fresh fit and of the fixture loaded as format 2.
PROBA_DIGEST = "50ed845dea2f8abd3dfd1ff66c1969c4f7d687aa8fd04d6ffdfec9a45d329f20"
#: predict_proba of the derived, one-class-wider format-1 payload.
PROBA_V1_DIGEST = "6b011f70fb471fef4e213fa4eaa6df5d53135921e61a8e34e50d9157567818b9"
#: json.dumps([depth, n_leaves, decision paths]) of tree 0.
TREE0_DIGEST = "24355c2406e5889b549ae9ef7c58e4eaec770a1a975841bdb8a924312b8d75da"


def _matrix() -> tuple[np.ndarray, np.ndarray]:
    """400 rows: two ordinal columns, three continuous, three classes."""
    rng = np.random.default_rng(20171101)
    x = np.column_stack([
        rng.integers(0, 6, size=400).astype(float),
        rng.integers(0, 3, size=400).astype(float),
        rng.normal(size=(400, 3)),
    ])
    score = 0.4 * x[:, 0] + x[:, 2] + 0.5 * x[:, 1] * x[:, 3]
    score += 0.5 * rng.normal(size=400)
    y = np.digitize(score, np.quantile(score, [0.33, 0.66]))
    return x, y.astype(int)


def _queries() -> np.ndarray:
    """Fresh rows, one row exactly on a training value, one all-NaN row."""
    x, _ = _matrix()
    rng = np.random.default_rng(31)
    q = np.column_stack([
        rng.integers(-1, 7, size=64).astype(float),
        rng.integers(0, 3, size=64).astype(float),
        rng.normal(size=(64, 3)),
    ])
    return np.vstack([q, x[:1], np.full((1, 5), np.nan)])


def _fit(workers: int) -> RandomForestClassifier:
    x, y = _matrix()
    return RandomForestClassifier(
        n_estimators=4, max_depth=5, min_samples_leaf=2, oob_score=True,
        seed=7, workers=workers,
    ).fit(x, y)


def _proba_digest(forest: RandomForestClassifier) -> str:
    proba = np.ascontiguousarray(forest.predict_proba(_queries()),
                                 dtype=np.float64)
    h = hashlib.sha256(repr(proba.shape).encode())
    h.update(proba.tobytes())
    return h.hexdigest()


def _tree0_digest(forest: RandomForestClassifier) -> str:
    tree = forest.trees_[0]
    paths = [decision_path(tree.flat_, row) for row in _queries()[:8]]
    text = json.dumps([tree.depth(), tree.n_leaves(), paths])
    return hashlib.sha256(text.encode()).hexdigest()


def _v2_payload() -> dict:
    return json.loads(FIXTURE.read_text())


def _v1_payload() -> dict:
    """The fixture as a format-1 artefact, one class wider than its trees."""
    payload = _v2_payload()
    return {
        "format": 1,
        "kind": payload["kind"],
        "n_classes": payload["n_classes"] + 1,
        "n_features": payload["n_features"],
        "trees": [t | {"format": 1} for t in payload["trees"]],
    }


def test_fixture_is_format_2():
    payload = _v2_payload()
    assert payload["format"] == 2
    assert all(t["format"] == 2 and "root" in t for t in payload["trees"])


def test_fixture_loaded_as_v2():
    forest = forest_from_dict(_v2_payload())
    assert _proba_digest(forest) == PROBA_DIGEST
    assert _tree0_digest(forest) == TREE0_DIGEST


def test_derived_v1_payload_widens_every_tree():
    forest = forest_from_dict(_v1_payload())
    proba = forest.predict_proba(_queries())
    assert proba.shape[1] == _v2_payload()["n_classes"] + 1
    assert np.all(proba[:, -1] == 0.0)
    assert _proba_digest(forest) == PROBA_V1_DIGEST


@pytest.mark.parametrize("workers", [1, 2])
def test_fresh_fit(workers):
    forest = _fit(workers)
    assert _proba_digest(forest) == PROBA_DIGEST
    assert _tree0_digest(forest) == TREE0_DIGEST

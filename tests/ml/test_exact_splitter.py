"""The exhaustive single-column split search kept as a test oracle.

``tests/ml/reference.py`` holds the exact CART search the histogram
engine replaced in ``src/``; the hist parity gates
(``tests/ml/test_histsplit.py``) and the training benchmark compare
against forests grown with it, so its own edge cases stay pinned here.
"""

import numpy as np

from tests.ml.reference import best_classification_split


class TestExactSplitterBitIdentity:
    def test_constant_column_short_circuits(self):
        y = np.array([0, 1, 0, 1])
        col = np.full(4, 2.5)
        assert best_classification_split(col, y, 2, "gini") is None

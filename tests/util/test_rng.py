"""Tests for the seeded random-stream registry."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.rng import (
    DEFAULT_SEED,
    RngRegistry,
    WeightedDraw,
    derive_seed,
    stream,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a") == derive_seed(42, "a")

    def test_differs_by_name(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_differs_by_root(self):
        assert derive_seed(42, "a") != derive_seed(43, "a")

    @given(st.integers(min_value=0, max_value=2**31), st.text(max_size=30))
    def test_always_in_uint64_range(self, seed, name):
        value = derive_seed(seed, name)
        assert 0 <= value < 2**64


class TestStream:
    def test_same_name_same_draws(self):
        a = stream("x", 1).random(5)
        b = stream("x", 1).random(5)
        assert np.allclose(a, b)

    def test_different_names_diverge(self):
        a = stream("x", 1).random(5)
        b = stream("y", 1).random(5)
        assert not np.allclose(a, b)


class TestRngRegistry:
    def test_caches_streams(self):
        rngs = RngRegistry(seed=7)
        assert rngs.get("auction") is rngs.get("auction")

    def test_distinct_names_distinct_streams(self):
        rngs = RngRegistry(seed=7)
        assert rngs.get("a") is not rngs.get("b")

    def test_reset_restarts_draws(self):
        rngs = RngRegistry(seed=7)
        first = rngs.get("s").random()
        rngs.reset()
        assert rngs.get("s").random() == first

    def test_spawn_is_isolated(self):
        parent = RngRegistry(seed=7)
        child = parent.spawn("sub")
        assert child.seed != parent.seed
        assert child.get("s").random() != parent.get("s").random()

    def test_default_seed_constant(self):
        assert RngRegistry().seed == DEFAULT_SEED


#: Weight vectors with zeros (never drawn) and single-entry vectors.
weight_vectors = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e3)),
    min_size=1,
    max_size=40,
).filter(lambda w: sum(w) > 0)


@pytest.mark.tier1
class TestWeightedDraw:
    """``WeightedDraw`` is ``Generator.choice(n, p=p)``, bit for bit."""

    @given(weight_vectors, st.integers(min_value=0, max_value=2**63), st.integers(1, 8))
    def test_matches_generator_choice(self, weights, seed, draws):
        w = np.array(weights)
        p = w / w.sum()
        draw = WeightedDraw(p)
        expected_rng = np.random.default_rng(seed)
        rng = np.random.default_rng(seed)
        for _ in range(draws):
            assert draw(rng) == int(expected_rng.choice(len(p), p=p))
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    def test_single_entry_always_zero(self):
        rng = np.random.default_rng(3)
        draw = WeightedDraw(np.array([1.0]))
        assert [draw(rng) for _ in range(20)] == [0] * 20

    def test_zero_weight_never_drawn(self):
        rng = np.random.default_rng(4)
        draw = WeightedDraw(np.array([0.5, 0.0, 0.5, 0.0]))
        assert {draw(rng) for _ in range(500)} == {0, 2}

    @pytest.mark.parametrize(
        "weights",
        [[], [[0.5, 0.5]], [0.5, -0.1], [0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0]],
    )
    def test_invalid_weights_rejected(self, weights):
        with pytest.raises(ValueError):
            WeightedDraw(np.array(weights))

"""Tests for repro.rng."""

import random

import pytest

from repro.rng import RngRegistry, Stream, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_varies_with_name(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_varies_with_master(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")


class TestStream:
    def test_same_seed_same_draws(self):
        a = Stream(7, "x")
        b = Stream(7, "x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_zipf_bounds(self):
        rng = Stream(1)
        draws = [rng.zipf(2.0, 50) for _ in range(500)]
        assert all(1 <= d <= 50 for d in draws)

    def test_zipf_head_heavy(self):
        rng = Stream(2)
        draws = [rng.zipf(2.05, 400) for _ in range(2000)]
        ones = sum(1 for d in draws if d == 1)
        assert ones / len(draws) > 0.5  # the Figure 3a shape

    def test_zipf_invalid_max(self):
        with pytest.raises(ValueError):
            Stream(1).zipf(2.0, 0)

    def test_log_uniform_bounds(self):
        rng = Stream(3)
        draws = [rng.log_uniform(0.1, 10.0) for _ in range(200)]
        assert all(0.1 <= d <= 10.0 for d in draws)

    def test_log_uniform_rejects_bad_range(self):
        with pytest.raises(ValueError):
            Stream(1).log_uniform(5.0, 1.0)
        with pytest.raises(ValueError):
            Stream(1).log_uniform(0.0, 1.0)

    def test_lognormal_days_median(self):
        rng = Stream(4)
        draws = sorted(rng.lognormal_days(100.0, 1.0) for _ in range(3001))
        median = draws[len(draws) // 2]
        assert 70.0 < median < 140.0

    def test_lognormal_days_positive_required(self):
        with pytest.raises(ValueError):
            Stream(1).lognormal_days(0.0, 1.0)

    def test_poisson_zero_lambda(self):
        assert Stream(1).poisson(0.0) == 0

    def test_poisson_mean(self):
        rng = Stream(5)
        draws = [rng.poisson(2.0) for _ in range(3000)]
        mean = sum(draws) / len(draws)
        assert 1.8 < mean < 2.2

    def test_poisson_negative_rejected(self):
        with pytest.raises(ValueError):
            Stream(1).poisson(-1.0)

    def test_weighted_choice_respects_weights(self):
        rng = Stream(6)
        draws = [
            rng.weighted_choice((("a", 9.0), ("b", 1.0))) for _ in range(2000)
        ]
        assert draws.count("a") > draws.count("b") * 4

    def test_weighted_choice_empty_rejected(self):
        with pytest.raises(ValueError):
            Stream(1).weighted_choice(())

    def test_named_stream_draws_equal_seeded_random(self):
        # Python 3.10's random.Random.__new__ rejects a second argument.
        stream = Stream(13, "soft404")
        plain = random.Random(13)
        assert stream.name == "soft404"
        assert [stream.random() for _ in range(5)] == [
            plain.random() for _ in range(5)
        ]
        assert stream.randrange(1000) == plain.randrange(1000)

    def test_chance_extremes(self):
        rng = Stream(7)
        assert not any(rng.chance(0.0) for _ in range(100))
        assert all(rng.chance(1.0) for _ in range(100))


class TestRngRegistry:
    def test_streams_independent_of_request_order(self):
        reg_a = RngRegistry(9)
        reg_b = RngRegistry(9)
        # Interleave requests differently; named streams must agree.
        a1 = reg_a.stream("alpha").random()
        _ = reg_a.stream("beta").random()
        _ = reg_b.stream("beta").random()
        b1 = reg_b.stream("alpha").random()
        assert a1 == b1

    def test_same_name_returns_same_stream(self):
        reg = RngRegistry(1)
        assert reg.stream("x") is reg.stream("x")

    def test_fork_changes_universe(self):
        reg = RngRegistry(1)
        forked = reg.fork("child")
        assert reg.stream("x").random() != forked.stream("x").random()

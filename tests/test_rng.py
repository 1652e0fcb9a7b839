"""Tests for the RNG utilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.rng import (
    advance_stream,
    as_generator,
    spawn_generators,
    spawn_seeds,
    stable_seed,
    stream_uniforms,
)


class TestAsGenerator:
    def test_none_gives_fresh_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        assert as_generator(7).random() == as_generator(7).random()

    def test_different_seeds_differ(self):
        assert as_generator(7).random() != as_generator(8).random()

    def test_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert as_generator(generator) is generator

    def test_seed_sequence_accepted(self):
        sequence = np.random.SeedSequence(5)
        first = as_generator(sequence)
        assert isinstance(first, np.random.Generator)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            as_generator(-1)

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError):
            as_generator("not-a-seed")


class TestSpawnGenerators:
    def test_count_respected(self):
        assert len(spawn_generators(0, 5)) == 5

    def test_reproducible_from_int_seed(self):
        first = [g.random() for g in spawn_generators(3, 4)]
        second = [g.random() for g in spawn_generators(3, 4)]
        assert first == second

    def test_children_are_independent(self):
        values = [g.random() for g in spawn_generators(3, 10)]
        assert len(set(values)) == 10

    def test_zero_count(self):
        assert spawn_generators(1, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_generators(1, -1)

    def test_from_existing_generator(self):
        generator = np.random.default_rng(9)
        children = spawn_generators(generator, 3)
        assert len(children) == 3


class TestSpawnSeeds:
    def test_seeds_are_ints(self):
        seeds = spawn_seeds(11, 6)
        assert len(seeds) == 6
        assert all(isinstance(seed, int) and seed >= 0 for seed in seeds)

    def test_reproducible(self):
        assert spawn_seeds(11, 6) == spawn_seeds(11, 6)

    def test_seeds_are_distinct(self):
        seeds = spawn_seeds(11, 64)
        assert len(set(seeds)) == 64

    def test_different_roots_give_different_seeds(self):
        assert spawn_seeds(11, 6) != spawn_seeds(12, 6)

    def test_seeds_fit_in_63_bits(self):
        assert all(0 <= seed < 2**63 for seed in spawn_seeds(0, 32))

    def test_zero_count(self):
        assert spawn_seeds(1, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_seeds(1, -1)

    def test_accepts_seed_sequence(self):
        sequence = np.random.SeedSequence(13)
        assert spawn_seeds(sequence, 4) == spawn_seeds(np.random.SeedSequence(13), 4)

    def test_generator_input_keeps_spawning_fresh_seeds(self):
        generator = np.random.default_rng(9)
        first = spawn_seeds(generator, 4)
        second = spawn_seeds(generator, 4)
        assert set(first).isdisjoint(second)

    def test_child_streams_are_independent(self):
        """Generators built from spawned seeds must not share their streams."""
        values = [
            as_generator(seed).random() for seed in spawn_seeds(7, 16)
        ]
        assert len(set(values)) == 16


class TestStableSeed:
    def test_deterministic(self):
        assert stable_seed("exp", 128, 4) == stable_seed("exp", 128, 4)

    def test_sensitive_to_parts(self):
        assert stable_seed("exp", 128, 4) != stable_seed("exp", 128, 5)
        assert stable_seed("exp", 128) != stable_seed("other", 128)

    def test_requires_parts(self):
        with pytest.raises(ValueError):
            stable_seed()

    def test_fits_in_63_bits(self):
        assert 0 <= stable_seed("x", 1) < 2**63


class TestStreamPositioning:
    def test_windows_are_slices_of_the_stream_in_any_order(self):
        (generator,) = spawn_generators(3, 1)
        (copy,) = spawn_generators(3, 1)
        stream = copy.random(3 * 4096 + 8)
        starts = [4096, 3 * 4096, 5, 4096 + 2]
        windows = stream_uniforms(generator, starts, np.empty((len(starts), 8)))
        for start, window in zip(starts, windows):
            assert np.array_equal(window, stream[start : start + 8])
        # The generator has not moved.
        assert generator.random() == stream[0]

    def test_advance_skips_draws(self):
        (generator,) = spawn_generators(3, 1)
        (copy,) = spawn_generators(3, 1)
        advance_stream(generator, 4096 * 2 + 7)
        assert generator.random() == copy.random(4096 * 2 + 8)[-1]

    def test_other_bit_generators_are_rejected(self):
        generator = np.random.Generator(np.random.MT19937(1))
        with pytest.raises(TypeError, match="PCG64"):
            stream_uniforms(generator, [0], np.empty((1, 2)))
        with pytest.raises(TypeError, match="PCG64"):
            advance_stream(generator, 1)


"""The run loop's trial substreams, seeded directly for short runs and in
chunks for longer ones, against NumPy's own seeding: trial t of seed s must
draw what ``default_rng([s, t])`` draws."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entropylab import matrix_core
from entropylab.errors import DomainError
from entropylab.verifiers import CHECKS, CheckConfig, trial_rng

PINNED_SEEDS = (0, 2 ** 32 - 1, 2 ** 32, 0xC0FFEE, 2 ** 64 - 1)
# Trial starts near 0, just below and above 2^32 (where a trial's entropy
# takes a second word) and at the top of the 64-bit range.
firsts = st.one_of(st.integers(0, 3000), st.integers(2 ** 32 - 6, 2 ** 32 + 2),
                   st.integers(2 ** 64 - 8, 2 ** 64 - 4))


def _draws(rng: np.random.Generator) -> list:
    """First draws of every kind the samplers make, plus a 32-bit one."""
    return [rng.integers(7), rng.standard_normal((2, 3, 3)).tobytes(),
            rng.uniform(0.05, 5.0, size=3).tobytes(), rng.uniform(),
            rng.integers(2 ** 32, dtype=np.uint32)]


class TestSubstreamStates:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), first=firsts, count=st.integers(1, 4))
    @example(seed=0, first=0, count=4)
    @example(seed=2 ** 32 - 1, first=2 ** 32 - 2, count=4)
    @example(seed=2 ** 32, first=2 ** 32 - 2, count=4)
    @example(seed=0xC0FFEE, first=0, count=3)
    @example(seed=2 ** 64 - 1, first=2 ** 32 - 2, count=4)
    @example(seed=2 ** 64 - 1, first=2 ** 64 - 4, count=4)
    def test_states_and_first_draws_equal_default_rng(self, seed, first, count):
        states = matrix_core._substream_states(seed, first, count)
        assert len(states) == count
        rng = np.random.Generator(np.random.PCG64(0))
        for t, (state, inc) in enumerate(states, first):
            expected = np.random.default_rng([seed, t])
            rng.bit_generator.state = {"bit_generator": "PCG64",
                                       "state": {"state": state, "inc": inc},
                                       "has_uint32": 0, "uinteger": 0}
            assert rng.bit_generator.state == expected.bit_generator.state
            assert _draws(rng) == _draws(expected)

    def test_no_overflow_warning_at_the_largest_seed(self):
        # NumPy scalar uint32 arithmetic warns on overflow; the hash runs on
        # arrays, which wrap silently.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix_core._substream_states(2 ** 64 - 1, 2 ** 32 - 2, 4)
            matrix_core._substream_states(2 ** 64 - 1, 0, 1)

    @pytest.mark.parametrize("seed,first,count", [(-1, 0, 1), (2 ** 64, 0, 1),
                                                  (7, -1, 1), (7, 2 ** 64 - 2, 3)])
    def test_rejects_seeds_and_trials_outside_64_bits(self, seed, first, count):
        with pytest.raises(DomainError):
            matrix_core._substream_states(seed, first, count)


# Run lengths on both sides of the threshold between direct and chunked seeding.
DIRECT, CHUNKED = matrix_core.SUBSTREAM_DIRECT, matrix_core.SUBSTREAM_DIRECT + 1


class TestSubstreams:
    @pytest.mark.parametrize("count", [DIRECT, CHUNKED + 11])
    @pytest.mark.parametrize("seed", PINNED_SEEDS)
    def test_each_trial_draws_what_trial_rng_draws(self, seed, count):
        trials = []
        for t, rng in matrix_core._substreams(seed, 0, count):
            trials.append(t)
            # A float32 draw leaves half a 32-bit word buffered; the next
            # trial must not start from it.
            assert _draws(rng) == _draws(trial_rng(seed, t))
            rng.random(dtype=np.float32)
        assert trials == list(range(count))

    @pytest.mark.parametrize("first", [0, 2 ** 32 - 2])
    def test_short_runs_seed_without_the_chunked_states(self, monkeypatch, first):
        def unused(seed, first, count):
            raise AssertionError("a short run computed chunked states")

        monkeypatch.setattr(matrix_core, "_substream_states", unused)
        for seed, count in ((1, 1), (7, DIRECT)):
            for t, rng in matrix_core._substreams(seed, first, count):
                assert rng.bit_generator.state == trial_rng(seed, t).bit_generator.state
        CHECKS["gibbs_identity"](CheckConfig(trials=DIRECT, seed=7))

    @pytest.mark.parametrize("first", [200, matrix_core.SUBSTREAM_CHUNK - 2])
    def test_runs_from_a_later_trial_draw_what_trial_rng_draws(self, first):
        # Across the boundary of a chunk of the run and, from
        # SUBSTREAM_CHUNK - 2, of the chunk that trial 0 starts.
        count = matrix_core.SUBSTREAM_CHUNK + 3
        trials = []
        for t, rng in matrix_core._substreams(0xC0FFEE, first, count):
            trials.append(t)
            assert rng.bit_generator.state == trial_rng(0xC0FFEE, t).bit_generator.state
        assert trials == list(range(first, first + count))
        for t, rng in matrix_core._substreams(2 ** 64 - 1, first, count):
            if t - first in (0, 1, matrix_core.SUBSTREAM_CHUNK - 1, matrix_core.SUBSTREAM_CHUNK):
                assert _draws(rng) == _draws(trial_rng(2 ** 64 - 1, t))

    @pytest.mark.parametrize("trials", [DIRECT, CHUNKED + 9])
    def test_chunk_boundaries_change_nothing(self, monkeypatch, trials):
        def states(seed, trials):
            return [rng.bit_generator.state for _, rng in matrix_core._substreams(seed, 0, trials)]

        whole = states(2 ** 64 - 1, trials)
        monkeypatch.setattr(matrix_core, "SUBSTREAM_CHUNK", 3)
        assert states(2 ** 64 - 1, trials) == whole

    def test_chunked_run_reports_equal_one_chunk(self, monkeypatch):
        cfg = CheckConfig(trials=20, seed=5)
        whole = CHECKS["gt_route_gap"](cfg).to_json()
        monkeypatch.setattr(matrix_core, "SUBSTREAM_CHUNK", 3)
        assert CHECKS["gt_route_gap"](cfg).to_json() == whole

    @pytest.mark.parametrize("trials", [DIRECT, CHUNKED + 4])
    def test_seeding_that_differs_from_numpy_raises(self, monkeypatch, trials):
        # A run of at most SUBSTREAM_DIRECT trials is seeded by NumPy itself,
        # so a wrong chunked seeding cannot reach it.
        genuine = matrix_core._substream_states
        report = CHECKS["gibbs_identity"](CheckConfig(trials=trials, seed=7)).to_json()

        def shifted(seed, first, count):
            return [(state ^ 1, inc) for state, inc in genuine(seed, first, count)]

        monkeypatch.setattr(matrix_core, "_substream_states", shifted)
        if trials <= matrix_core.SUBSTREAM_DIRECT:
            _, rng = next(matrix_core._substreams(7, 200, trials))
            assert rng.bit_generator.state == trial_rng(7, 200).bit_generator.state
            assert CHECKS["gibbs_identity"](CheckConfig(trials=trials, seed=7)).to_json() == report
            return
        with pytest.raises(RuntimeError, match="does not match"):
            next(matrix_core._substreams(7, 0, trials))
        with pytest.raises(RuntimeError, match="at seed 7, trial 200"):
            next(matrix_core._substreams(7, 200, trials))
        with pytest.raises(RuntimeError, match="does not match"):
            CHECKS["gibbs_identity"](CheckConfig(trials=trials, seed=7))

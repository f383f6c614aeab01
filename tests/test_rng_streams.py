"""The versioned RNG stream formats (repro.sim.rng).

Three contracts pinned here:

* **determinism** -- same ``(graph, seed, rng)`` always replays the same
  execution, on either engine and either stream format;
* **deliberate incompatibility** -- v1 (``pernode``) and v2 (``batched``)
  produce *different* executions for the same seed, and the formats are
  explicitly versioned so results can be pinned;
* **scalar/vector agreement** -- the :class:`CounterRNG` facade (what the
  generator engine consumes) and the numpy array draws (what the
  vectorized engines consume) compute the identical v2 stream.
"""

import numpy as np
import pytest

from helpers import run_mis

from repro.sim import rng as rng_mod
from repro.sim.rng import (
    DEFAULT_STREAM,
    RNG_STREAMS,
    STREAM_VERSIONS,
    CounterRNG,
    draw_u64,
    draw_u64_array,
    node_rng,
    node_rng_factory,
    stream_key,
    u64_mod_bound,
    u64_to_unit_float,
    validate_stream,
)


class TestVersioning:
    def test_streams_are_versioned(self):
        assert RNG_STREAMS == ("pernode", "batched")
        assert STREAM_VERSIONS == {"pernode": 1, "batched": 2}

    def test_default_stays_v1(self):
        """Seed compatibility: the default stream must remain ``pernode``
        so seeds recorded before v2 existed keep replaying identically."""
        assert DEFAULT_STREAM == "pernode"

    def test_validate_rejects_unknown_streams(self):
        assert validate_stream("batched") == "batched"
        with pytest.raises(ValueError):
            validate_stream("v3")

    def test_api_rejects_unknown_streams(self, gnp60):
        with pytest.raises(ValueError):
            run_mis(gnp60, "sleeping", rng="bogus")
        with pytest.raises(ValueError):
            run_mis(gnp60, "sleeping", rng="bogus", engine="vectorized")
        with pytest.raises(ValueError):
            run_mis(gnp60, "luby", rng="bogus", engine="vectorized")


class TestV1Factory:
    def test_prefix_factory_matches_node_rng(self):
        """The prefix-precomputing factory is a pure optimization: the
        streams must be bit-identical to ``node_rng``'s."""
        for seed in (0, 17, None):
            make = node_rng_factory(seed)
            for node_id in (0, 5, "v3"):
                a = node_rng(seed, node_id)
                b = make(node_id)
                assert [a.random() for _ in range(5)] == [
                    b.random() for _ in range(5)
                ]
                assert a.randrange(10**30) == b.randrange(10**30)


class TestDeterminism:
    @pytest.mark.parametrize("rng", RNG_STREAMS)
    @pytest.mark.parametrize(
        "algorithm", ["sleeping", "fast-sleeping", "luby", "greedy"]
    )
    def test_same_seed_same_mis(self, gnp60, algorithm, rng):
        first = run_mis(gnp60, algorithm, seed=9, engine="vectorized", rng=rng)
        second = run_mis(gnp60, algorithm, seed=9, engine="vectorized", rng=rng)
        assert first.mis == second.mis
        assert first.outputs == second.outputs
        assert first.rounds == second.rounds

    @pytest.mark.parametrize("rng", RNG_STREAMS)
    def test_different_seeds_differ(self, gnp60, rng):
        a = run_mis(gnp60, "fast-sleeping", seed=0, engine="vectorized", rng=rng)
        b = run_mis(gnp60, "fast-sleeping", seed=1, engine="vectorized", rng=rng)
        assert a.mis != b.mis  # holds for this fixed graph and seed pair


class TestStreamsAreDistinct:
    def test_v1_v2_draws_differ(self):
        """The formats share no draw values: v2 is a clean break."""
        v1 = node_rng(0, 0)
        v2 = CounterRNG(stream_key(0), 0)
        assert [v1.random() for _ in range(4)] != [
            v2.random() for _ in range(4)
        ]

    @pytest.mark.parametrize(
        "algorithm", ["sleeping", "fast-sleeping", "luby", "greedy"]
    )
    def test_v1_v2_executions_differ(self, gnp60, algorithm):
        v1 = run_mis(gnp60, algorithm, seed=0, engine="vectorized")
        v2 = run_mis(
            gnp60, algorithm, seed=0, engine="vectorized", rng="batched"
        )
        # Same graph, same seed, different stream format: the executions
        # diverge (pinned on this fixed graph; both sides deterministic).
        assert v1.mis != v2.mis or v1.summary() != v2.summary()


class TestScalarVectorAgreement:
    def test_array_draws_match_scalar_draws(self):
        key = stream_key(123)
        nodes = np.array([0, 1, 7, 1000], dtype=np.int64)
        counters = np.array([0, 3, 2, 41], dtype=np.int64)
        array = draw_u64_array(key, nodes, counters)
        scalar = [draw_u64(key, int(i), int(j)) for i, j in zip(nodes, counters)]
        assert array.tolist() == scalar

    def test_counter_rng_consumes_the_array_stream(self):
        key = stream_key(7)
        r = CounterRNG(key, 5)
        expected_u = [draw_u64(key, 5, j) for j in range(6)]
        assert r.random() == (expected_u[0] >> 11) * 2.0**-53
        assert r.randrange(1000) == expected_u[1] % 1000
        huge = 10**40  # above 2^64: modulo is the identity
        assert r.randrange(huge) == expected_u[2]
        assert r.getrandbits(64) == expected_u[3]
        assert r.getrandbits(8) == expected_u[4] >> 56
        assert r.random() == (expected_u[5] >> 11) * 2.0**-53

    def test_u64_mod_bound_matches_python_mod(self):
        u = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
        for bound in (7, 2**62 + 3, 2**63 + 11, 10**40):
            got = u64_mod_bound(u, bound)
            assert got.tolist() == [int(x) % bound for x in u.tolist()]

    def test_unit_floats_match_counter_rng(self):
        key = stream_key(99)
        u = draw_u64_array(
            key, np.arange(4, dtype=np.int64), np.zeros(4, dtype=np.int64)
        )
        floats = u64_to_unit_float(u)
        for i in range(4):
            assert floats[i] == CounterRNG(key, i).random()
        assert (floats >= 0).all() and (floats < 1).all()

    def test_bit_length_u64_exact(self):
        # Every power of two and both of its neighbours, then random
        # widths: each bit length from 0 to 64 and each half boundary.
        values = sorted({
            v
            for k in range(65)
            for v in (2**k - 1, 2**k, 2**k + 1)
            if v < 2**64
        })
        rng = np.random.default_rng(5)
        widths = rng.integers(0, 65, size=20_000)
        values += [int(x) >> (64 - int(w)) if w else 0 for x, w in zip(
            rng.integers(0, 2**64, size=len(widths), dtype=np.uint64).tolist(),
            widths.tolist(),
        )]
        arr = np.array(values, dtype=np.uint64)
        got = rng_mod.bit_length_u64(arr)
        assert got.dtype == np.int64
        assert got.tolist() == [v.bit_length() for v in values]

    def test_derived_random_methods_work(self):
        """Inherited random.Random machinery routes through the stream."""
        r = CounterRNG(stream_key(1), 0)
        items = list(range(10))
        r.shuffle(items)
        assert sorted(items) == list(range(10))
        assert 0 <= r.randint(0, 9) <= 9
        assert r.choice([1, 2, 3]) in (1, 2, 3)

"""Chain digests are computed once and equal their reference definitions.

Transaction hashes and block ids are memoized on the (never mutated)
objects; ``varint.encode`` and ``RngStream.randbytes`` have fast forms
checked against the loops in ``tests/chain_oracle.py``. The work-count
gate pins the memoization itself: it counts the serializations and
hashing-blob builds of a short network simulation, which repeat exactly
run to run, unlike a wall-clock floor.
"""

import dataclasses
import hashlib
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.analysis.network import NetworkSimConfig, simulate_network
from repro.blockchain import block as block_module
from repro.blockchain import varint
from repro.blockchain.chain import pseudo_id
from repro.blockchain.transactions import Transaction, TransferFactory, coinbase_transaction
from repro.pool import jobs
from repro.sim.clock import utc_timestamp
from repro.sim.rng import RngStream
from tests import chain_oracle


class TestVarintOracle:
    BOUNDARIES = (0, 1, 0x7F, 0x80, 0xFF, 2**14 - 1, 2**14, 2**14 + 1,
                  2**32 - 1, 2**63, 2**64 - 1)

    @pytest.mark.parametrize("value", BOUNDARIES)
    def test_boundaries_match_reference(self, value):
        encoded = varint.encode(value)
        assert encoded == chain_oracle.varint_encode(value)
        assert varint.decode(encoded) == (value, len(encoded))

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_round_trip_matches_reference(self, value):
        encoded = varint.encode(value)
        assert encoded == chain_oracle.varint_encode(value)
        assert varint.decode(encoded)[0] == value

    @given(st.integers(min_value=2**64, max_value=2**300))
    def test_big_ints_match_reference(self, value):
        assert varint.encode(value) == chain_oracle.varint_encode(value)

    @pytest.mark.parametrize("value", (-1, -0x80, -(2**64)))
    def test_negative_rejected(self, value):
        with pytest.raises(ValueError):
            varint.encode(value)


class TestRandbytesOracle:
    SIZES = (-3, 0, 1, 2, 7, 31, 32, 33, 100, 1000)

    def check(self, seed: int, n: int) -> None:
        fast, reference = RngStream(seed, "bytes"), RngStream(seed, "bytes")
        assert fast.randbytes(n) == chain_oracle.randbytes(reference._rng, max(n, 0))
        # same generator state afterwards: the next draw agrees
        assert fast.random() == reference.random()

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("seed", (0, 1, 2018))
    def test_sizes_match_reference(self, seed, n):
        self.check(seed, n)

    @given(st.integers(min_value=0, max_value=2**62), st.integers(min_value=-4, max_value=300))
    def test_fuzz_matches_reference(self, seed, n):
        self.check(seed, n)

    def test_consecutive_draws_match_reference(self):
        fast, reference = RngStream(9, "bytes"), RngStream(9, "bytes")
        for n in (5, 0, 32, 1, 33):
            assert fast.randbytes(n) == chain_oracle.randbytes(reference._rng, n)
        assert fast.getrandbits(64) == reference.getrandbits(64)


def _transfer(seed: int = 4) -> Transaction:
    return TransferFactory(rng=RngStream(seed, "txs")).make()


class TestTransactionMemo:
    def test_hashed_equals_fresh(self):
        hashed, fresh = _transfer(), _transfer()
        digest = hashed.hash()
        assert hashed == fresh
        assert hash(hashed) == hash(fresh)
        assert repr(hashed) == repr(fresh)
        assert fresh.hash() == digest

    def test_hash_is_sha3_of_serialization(self):
        tx = coinbase_transaction(3, 100, "pool", b"x")
        assert tx.hash() == hashlib.sha3_256(tx.serialize()).digest()
        assert tx.hash() is tx.hash()

    def test_replace_rehashes(self):
        tx = coinbase_transaction(3, 100, "pool", b"nonce-a")
        before = tx.hash()
        changed = dataclasses.replace(tx, extra=b"nonce-b")
        assert changed.hash() == coinbase_transaction(3, 100, "pool", b"nonce-b").hash()
        assert changed.hash() != before
        assert tx.hash() == before

    def test_pickle_round_trip_keeps_hash(self):
        tx = _transfer()
        digest = tx.hash()
        copy = pickle.loads(pickle.dumps(tx))
        assert copy == tx
        assert copy.hash() == digest
        unhashed = pickle.loads(pickle.dumps(_transfer()))
        assert unhashed.hash() == digest


@pytest.fixture(scope="module")
def counted_simulation():
    """A two-day simulation with counting wrappers around the digest work."""
    serialized: list = []
    blobs: list = []
    serialize = Transaction.serialize
    blob = block_module.hashing_blob

    def counting_serialize(self):
        out = serialize(self)
        serialized.append(out)
        return out

    def counting_blob(*args, **kwargs):
        blobs.append(None)
        return blob(*args, **kwargs)

    start = utc_timestamp(2018, 5, 3)
    config = NetworkSimConfig(start=start, end=start + 2 * 86400, seed=5)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Transaction, "serialize", counting_serialize)
        patch.setattr(block_module, "hashing_blob", counting_blob)
        patch.setattr(jobs, "hashing_blob", counting_blob)
        observation = simulate_network(config)
    return observation, serialized, blobs


class TestWorkCounts:
    def test_each_transaction_serialized_once(self, counted_simulation):
        observation, serialized, _ = counted_simulation
        in_chain = sum(len(b.transactions) for b in observation.chain.blocks)
        assert len(set(serialized)) >= in_chain
        assert len(serialized) == len(set(serialized))

    def test_hashing_blob_at_most_once_per_block(self, counted_simulation):
        observation, _, blobs = counted_simulation
        assert observation.chain.height > 1000
        assert len(blobs) <= len(observation.chain.blocks)

    def test_contains_every_appended_block(self, counted_simulation):
        chain = counted_simulation[0].chain
        assert all(chain.contains(block.block_id()) for block in chain.blocks)
        assert not chain.contains(pseudo_id(b"foreign"))

    def test_index_shares_block_id_bytes(self, counted_simulation):
        chain = counted_simulation[0].chain
        for height in range(1, chain.height + 1):
            assert chain.blocks[height].header.prev_id is chain.blocks[height - 1].block_id()

"""Tests for transactions, headers, blocks, and the hashing blob."""

import pytest

from repro.blockchain import varint
from repro.blockchain.block import (
    Block,
    BlockHeader,
    NONCE_OFFSET,
    hashing_blob,
    set_blob_nonce,
)
from repro.blockchain.transactions import (
    ATOMIC_PER_XMR,
    Transaction,
    TransferFactory,
    coinbase_transaction,
)
from repro.pool.jobs import parse_blob
from repro.sim.rng import RngStream


class TestVarint:
    def test_small_values(self):
        assert varint.encode(0) == b"\x00"
        assert varint.encode(127) == b"\x7f"
        assert varint.encode(128) == b"\x80\x01"

    def test_roundtrip(self):
        for value in (0, 1, 127, 128, 300, 2**20, 2**40):
            assert varint.decode(varint.encode(value))[0] == value

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            varint.encode(-5)

    def test_truncated(self):
        with pytest.raises(ValueError):
            varint.decode(b"\x80")


class TestTransactions:
    def test_coinbase_structure(self):
        tx = coinbase_transaction(10, 5 * ATOMIC_PER_XMR, "pool", b"extra")
        assert tx.is_coinbase
        assert tx.inputs == (("gen", 10),)
        assert tx.total_output() == 5 * ATOMIC_PER_XMR
        assert tx.unlock_time == 70  # height + 60

    def test_coinbase_rejects_zero_reward(self):
        with pytest.raises(ValueError):
            coinbase_transaction(1, 0, "pool")

    def test_hash_is_stable_and_32_bytes(self):
        tx = coinbase_transaction(1, 100, "pool")
        assert tx.hash() == tx.hash()
        assert len(tx.hash()) == 32

    def test_extra_nonce_changes_hash(self):
        a = coinbase_transaction(1, 100, "pool", b"nonce-a")
        b = coinbase_transaction(1, 100, "pool", b"nonce-b")
        assert a.hash() != b.hash()

    def test_transfer_factory_unique_hashes(self):
        factory = TransferFactory(rng=RngStream(1, "tx"))
        hashes = {factory.make().hash() for _ in range(50)}
        assert len(hashes) == 50


class TestBlockHeader:
    def header(self, **kwargs):
        defaults = dict(major=7, minor=7, timestamp=1_526_000_000, prev_id=b"\x11" * 32, nonce=0)
        defaults.update(kwargs)
        return BlockHeader(**defaults)

    def test_serialization_layout(self):
        header = self.header(nonce=0x01020304)
        raw = header.serialize()
        assert raw[0] == 7 and raw[1] == 7
        assert raw[-4:] == bytes([0x04, 0x03, 0x02, 0x01])  # little-endian nonce

    def test_nonce_offset_matches_constant_for_2018_timestamps(self):
        assert self.header().nonce_offset() == NONCE_OFFSET == 39

    def test_bad_prev_id_rejected(self):
        with pytest.raises(ValueError):
            self.header(prev_id=b"short")

    def test_nonce_range_checked(self):
        with pytest.raises(ValueError):
            self.header(nonce=2**32)

    def test_with_nonce_returns_new_header(self):
        header = self.header()
        other = header.with_nonce(99)
        assert other.nonce == 99 and header.nonce == 0


class TestHashingBlob:
    def header(self):
        return BlockHeader(7, 7, 1_526_000_000, b"\x22" * 32, nonce=7)

    def test_blob_parses_back(self):
        root = b"\x33" * 32
        blob = hashing_blob(self.header(), root, 5)
        fields, prev_id, nonce, merkle_root, num_txs = parse_blob(blob)
        assert fields == (7, 7, 1_526_000_000)
        assert prev_id == b"\x22" * 32
        assert nonce == 7
        assert merkle_root == root
        assert num_txs == 5

    def test_set_blob_nonce(self):
        header = self.header()
        blob = hashing_blob(header, b"\x33" * 32, 1)
        patched = set_blob_nonce(blob, header, 0xDEADBEEF)
        _, _, nonce, root, _ = parse_blob(patched)
        assert nonce == 0xDEADBEEF
        assert root == b"\x33" * 32

    def test_zero_txs_rejected(self):
        with pytest.raises(ValueError):
            hashing_blob(self.header(), b"\x33" * 32, 0)

    def test_bad_merkle_root_rejected(self):
        with pytest.raises(ValueError):
            hashing_blob(self.header(), b"short", 1)

    def test_trailing_bytes_rejected_by_parser(self):
        blob = hashing_blob(self.header(), b"\x33" * 32, 1) + b"\x00"
        with pytest.raises(ValueError):
            parse_blob(blob)


class TestBlock:
    def make_block(self, n_txs: int = 3, extra_nonce: bytes = b"en") -> Block:
        factory = TransferFactory(rng=RngStream(5, "txs"))
        coinbase = coinbase_transaction(1, 100, "pool", extra_nonce)
        txs = [coinbase] + [factory.make() for _ in range(n_txs - 1)]
        header = BlockHeader(7, 7, 1_526_000_000, b"\x01" * 32)
        return Block(header=header, transactions=txs)

    def test_requires_coinbase_first(self):
        factory = TransferFactory(rng=RngStream(6, "txs"))
        header = BlockHeader(7, 7, 1_526_000_000, b"\x01" * 32)
        with pytest.raises(ValueError):
            Block(header=header, transactions=[factory.make()])

    def test_requires_nonempty(self):
        header = BlockHeader(7, 7, 1_526_000_000, b"\x01" * 32)
        with pytest.raises(ValueError):
            Block(header=header, transactions=[])

    def test_merkle_root_commits_to_coinbase(self):
        a = self.make_block()
        b = self.make_block(extra_nonce=b"different")
        assert a.transactions[1:] == b.transactions[1:]
        assert a.merkle_root() != b.merkle_root()

    def test_block_id_differs_from_pow_hash_domain(self):
        block = self.make_block()
        assert block.block_id() != block.pow_hash()

    def test_reward_and_miner(self):
        block = self.make_block()
        assert block.reward() == 100
        assert block.miner_address() == "pool"

    def test_blob_num_txs(self):
        block = self.make_block(n_txs=4)
        *_, num_txs = parse_blob(block.hashing_blob())
        assert num_txs == 4

"""Tests for difficulty retargeting, emission, and chain validation."""

import pytest

from repro.blockchain.block import Block, BlockHeader
from repro.blockchain.chain import (
    Blockchain,
    BlockValidationError,
    GENERATED_AT_START,
    Mempool,
    base_reward,
    TAIL_REWARD,
    MONEY_SUPPLY,
)
from repro.blockchain.difficulty import DifficultyAdjuster
from repro.blockchain.hashing import FAST_PARAMS, cryptonight, hash_meets_difficulty
from repro.blockchain.transactions import ATOMIC_PER_XMR, TransferFactory, coinbase_transaction
from repro.sim.rng import RngStream


class TestEmission:
    def test_mid_2018_reward_level(self):
        # Monero's reward in mid-2018 was ≈4.7 XMR
        assert base_reward(GENERATED_AT_START) == pytest.approx(4.7 * ATOMIC_PER_XMR, rel=1e-6)

    def test_reward_decreases_with_supply(self):
        assert base_reward(GENERATED_AT_START + 10**18) < base_reward(GENERATED_AT_START)

    def test_tail_emission_floor(self):
        assert base_reward(MONEY_SUPPLY) == TAIL_REWARD


class TestDifficultyAdjuster:
    def test_bootstrap_returns_initial(self):
        adjuster = DifficultyAdjuster(initial_difficulty=1234)
        assert adjuster.next_difficulty([], []) == 1234
        assert adjuster.next_difficulty([100], [50]) == 1234

    def test_stable_rate_stable_difficulty(self):
        adjuster = DifficultyAdjuster(window=30, cut=3, initial_difficulty=1000)
        timestamps = [i * 120 for i in range(30)]
        cumulative = [1000 * (i + 1) for i in range(30)]
        nxt = adjuster.next_difficulty(timestamps, cumulative)
        assert 950 <= nxt <= 1050

    def test_fast_blocks_raise_difficulty(self):
        adjuster = DifficultyAdjuster(window=30, cut=3, initial_difficulty=1000)
        timestamps = [i * 60 for i in range(30)]  # 2× too fast
        cumulative = [1000 * (i + 1) for i in range(30)]
        assert adjuster.next_difficulty(timestamps, cumulative) > 1800

    def test_slow_blocks_lower_difficulty(self):
        adjuster = DifficultyAdjuster(window=30, cut=3, initial_difficulty=1000)
        timestamps = [i * 240 for i in range(30)]
        cumulative = [1000 * (i + 1) for i in range(30)]
        assert adjuster.next_difficulty(timestamps, cumulative) < 600

    def test_out_of_order_timestamps_tolerated(self):
        adjuster = DifficultyAdjuster(window=30, cut=3, initial_difficulty=1000)
        timestamps = [i * 120 for i in range(30)]
        timestamps[10], timestamps[11] = timestamps[11], timestamps[10]
        cumulative = [1000 * (i + 1) for i in range(30)]
        assert adjuster.next_difficulty(timestamps, cumulative) > 0

    def test_mismatched_history_rejected(self):
        with pytest.raises(ValueError):
            DifficultyAdjuster().next_difficulty([1, 2], [1])

    def test_hashrate_conversion_matches_paper(self):
        # 55.4G difficulty / 120 s target = 462 MH/s (Section 4.2)
        adjuster = DifficultyAdjuster()
        assert adjuster.hashrate_from_difficulty(55_400_000_000) == pytest.approx(4.62e8, rel=0.01)


def mine_block(chain: Blockchain, timestamp: int, txs=()) -> Block:
    """Find a valid nonce the honest way (FAST params keep this quick)."""
    reward = chain.current_reward()
    height = chain.height + 1
    coinbase = coinbase_transaction(height, reward, "test-pool", height.to_bytes(4, "little"))
    header = BlockHeader(7, 7, timestamp, chain.tip.block_id(), 0)
    difficulty = chain.current_difficulty()
    nonce = 0
    while True:
        block = Block(header=header.with_nonce(nonce), transactions=[coinbase, *txs])
        if hash_meets_difficulty(block.pow_hash(FAST_PARAMS), difficulty):
            return block
        nonce += 1


class TestBlockchain:
    def test_genesis_exists(self, small_chain):
        assert small_chain.height == 0
        assert small_chain.tip.coinbase.is_coinbase

    def test_submit_valid_block(self, small_chain):
        block = mine_block(small_chain, 1_525_000_120)
        small_chain.submit(block)
        assert small_chain.height == 1
        assert small_chain.tip is block

    def test_rejects_wrong_parent(self, small_chain):
        block = mine_block(small_chain, 1_525_000_120)
        small_chain.submit(block)
        with pytest.raises(BlockValidationError, match="tip"):
            small_chain.submit(block)  # same parent again

    def test_rejects_bad_pow(self, small_chain):
        block = mine_block(small_chain, 1_525_000_120)
        bad = Block(header=block.header.with_nonce(block.header.nonce + 1_000_000),
                    transactions=block.transactions)
        # exceedingly unlikely to also satisfy PoW; if it does, skip
        if hash_meets_difficulty(bad.pow_hash(FAST_PARAMS), small_chain.current_difficulty()):
            pytest.skip("lottery nonce")
        with pytest.raises(BlockValidationError, match="PoW"):
            small_chain.submit(bad)

    def test_rejects_wrong_reward(self, small_chain):
        height = small_chain.height + 1
        coinbase = coinbase_transaction(height, small_chain.current_reward() * 2, "greedy")
        header = BlockHeader(7, 7, 1_525_000_120, small_chain.tip.block_id(), 0)
        block = Block(header=header, transactions=[coinbase])
        with pytest.raises(BlockValidationError, match="emission|PoW"):
            # PoW check may trip first; either rejection is correct
            small_chain.submit(block)

    def test_rejects_wrong_coinbase_height(self, small_chain):
        coinbase = coinbase_transaction(99, small_chain.current_reward(), "pool")
        header = BlockHeader(7, 7, 1_525_000_120, small_chain.tip.block_id(), 0)
        block = Block(header=header, transactions=[coinbase])
        chain2 = small_chain
        # force PoW to pass by searching a nonce
        difficulty = chain2.current_difficulty()
        nonce = 0
        while not hash_meets_difficulty(
            Block(header=header.with_nonce(nonce), transactions=[coinbase]).pow_hash(FAST_PARAMS),
            difficulty,
        ):
            nonce += 1
        with pytest.raises(BlockValidationError, match="height"):
            chain2.submit(Block(header=header.with_nonce(nonce), transactions=[coinbase]))

    def test_block_after_lookup(self, small_chain):
        parent_id = small_chain.tip.block_id()
        block = mine_block(small_chain, 1_525_000_120)
        small_chain.submit(block)
        assert small_chain.block_after(parent_id) is block
        assert small_chain.block_after(b"\x99" * 32) is None

    def test_height_of(self, small_chain):
        block = mine_block(small_chain, 1_525_000_120)
        small_chain.submit(block)
        assert small_chain.height_of(block) == 1

    def test_force_append_still_checks_parent(self, small_chain):
        coinbase = coinbase_transaction(1, small_chain.current_reward(), "pool")
        header = BlockHeader(7, 7, 1_525_000_120, b"\x42" * 32, 0)
        with pytest.raises(BlockValidationError):
            small_chain.force_append(Block(header=header, transactions=[coinbase]))

    def test_generated_supply_tracks_rewards(self, small_chain):
        before = small_chain.generated_atomic
        block = mine_block(small_chain, 1_525_000_120)
        small_chain.submit(block)
        assert small_chain.generated_atomic == before + block.reward()

    def test_total_rewards(self, small_chain):
        block = mine_block(small_chain, 1_525_000_120)
        small_chain.submit(block)
        assert small_chain.total_rewards_atomic() == block.reward()

    def test_difficulty_cache_invalidated_on_append(self, small_chain):
        d0 = small_chain.current_difficulty()
        assert small_chain.current_difficulty() == d0  # cached path
        small_chain.submit(mine_block(small_chain, 1_525_000_120))
        assert isinstance(small_chain.current_difficulty(), int)

    def test_difficulty_at(self, small_chain):
        difficulty = small_chain.current_difficulty()
        small_chain.submit(mine_block(small_chain, 1_525_000_120))
        assert small_chain.difficulty_at(0) == 1
        assert small_chain.difficulty_at(1) == difficulty
        assert small_chain.median_difficulty() == difficulty
        for height in (-1, 2):
            with pytest.raises(IndexError):
                small_chain.difficulty_at(height)


class TestMempool:
    def test_add_and_take(self):
        pool = Mempool()
        factory = TransferFactory(rng=RngStream(2, "mp"))
        txs = [factory.make() for _ in range(5)]
        for tx in txs:
            pool.add(tx)
        assert len(pool) == 5
        assert pool.take(3) == txs[:3]

    def test_coinbase_rejected(self):
        pool = Mempool()
        with pytest.raises(ValueError):
            pool.add(coinbase_transaction(1, 100, "x"))

    def test_remove_included(self, small_chain):
        pool = Mempool()
        factory = TransferFactory(rng=RngStream(3, "mp"))
        txs = [factory.make() for _ in range(3)]
        for tx in txs:
            pool.add(tx)
        block = mine_block(small_chain, 1_525_000_120, txs=txs[:2])
        assert pool.remove_included(block) == 2
        assert len(pool) == 1

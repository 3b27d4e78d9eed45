"""The network observation (Section 4.2: Figure 5 and Table 6).

Simulates the Monero network over calendar months with the Coinhive pool
contributing its measured ~1.18% share, then applies the paper's
pool-association method to attribute blocks:

- block arrivals form a Poisson process at the 120 s target, so difficulty
  (retargeted from the simulated timestamps) hovers around its initial
  value with realistic wander,
- every block is built from a real pool template (coinbase with extra
  nonce + mempool transactions) and appended to a real chain,
- when the Coinhive pool wins a block, the observer has seen the winning
  PoW input beforehand — unless the observer or the service was down
  (the paper's infrastructure outages and the 6–7 May Coinhive
  disruption) — reproducing the method's lower-bound character.

Fidelity note (DESIGN.md): the 500 ms polling loop is validated separately
at full rate in ``bench_text_pow_inputs``; over month-long horizons the
observer's *coverage* (which Merkle roots it saw per block) is what matters
for attribution, and that is what this simulation models.
"""

from __future__ import annotations

import datetime as _dt
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from repro.blockchain.chain import Blockchain, Mempool, MONEY_SUPPLY, EMISSION_SPEED_FACTOR
from repro.blockchain.difficulty import DifficultyAdjuster
from repro.blockchain.hashing import FAST_PARAMS
from repro.blockchain.transactions import ATOMIC_PER_XMR, TransferFactory
from repro.core.pool_association import AttributedBlock, BlockAttributor, NetworkEstimator
from repro.internet.distributions import DiurnalModel, paper_holiday_calendar
from repro.pool.jobs import build_template
from repro.sim.clock import utc_timestamp
from repro.sim.rng import RngStream


@dataclass
class NetworkSimConfig:
    """Knobs of the month-scale simulation."""

    seed: int = 2018
    start: float = utc_timestamp(2018, 4, 26)
    end: float = utc_timestamp(2018, 8, 1)
    block_target: float = 120.0
    initial_difficulty: int = 55_400_000_000
    initial_reward_xmr: float = 4.55
    coinhive_share: float = 0.0118
    #: month → share multiplier (user-base growth; June was Coinhive's best)
    monthly_share_factor: dict[int, float] = field(
        default_factory=lambda: {4: 1.00, 5: 1.04, 6: 1.10, 7: 1.09}
    )
    #: slow network hash-rate growth: block times shrink by this factor/day,
    #: which the retargeter converts into rising difficulty
    hashrate_drift_per_day: float = 0.0008
    #: probability the observer misses the winning PoW input despite being up
    observer_miss_rate: float = 0.02
    coinhive_outages: tuple[tuple[float, float], ...] = (
        (utc_timestamp(2018, 5, 6, 6), utc_timestamp(2018, 5, 7, 18)),
    )
    observer_outages: tuple[tuple[float, float], ...] = (
        (utc_timestamp(2018, 4, 28, 10), utc_timestamp(2018, 4, 28, 20)),
        (utc_timestamp(2018, 5, 15, 0), utc_timestamp(2018, 5, 15, 8)),
    )
    #: retarget window (smaller than mainnet's 720 to keep Python fast;
    #: the relative difficulty wander is comparable)
    difficulty_window: int = 72
    difficulty_cut: int = 6
    txs_per_block_max: int = 4


@dataclass
class NetworkObservation:
    """Simulation output plus attribution results."""

    config: NetworkSimConfig
    chain: Blockchain
    attributed: list  # of attributed Block objects, by height
    coinhive_truth_heights: set[int]
    clusters_observed: int
    #: prev block id → merkle roots seen for it (kept for evidence: the
    #: attribution proof can be re-derived and cited per block)
    clusters: dict = field(default_factory=dict)

    # -- Figure 5 -----------------------------------------------------------------

    def day_hour_matrix(self) -> dict[tuple[str, int], int]:
        """(date, hour) → attributed block count."""
        matrix: Counter = Counter()
        for block in self.attributed:
            dt = _dt.datetime.fromtimestamp(block.timestamp, tz=_dt.timezone.utc)
            matrix[(dt.date().isoformat(), dt.hour)] += 1
        return dict(matrix)

    def blocks_per_day(self) -> dict[str, int]:
        per_day: Counter = Counter()
        for block in self.attributed:
            dt = _dt.datetime.fromtimestamp(block.timestamp, tz=_dt.timezone.utc)
            per_day[dt.date().isoformat()] += 1
        return dict(per_day)

    def hourly_totals(self) -> list:
        totals = [0] * 24
        for block in self.attributed:
            dt = _dt.datetime.fromtimestamp(block.timestamp, tz=_dt.timezone.utc)
            totals[dt.hour] += 1
        return totals

    # -- Table 6 -------------------------------------------------------------------

    def monthly_stats(self, months=((2018, 5), (2018, 6), (2018, 7))) -> list:
        """Rows of Table 6: median/avg blocks per day, hash rate, XMR."""
        estimator = NetworkEstimator(block_target_seconds=int(self.config.block_target))
        per_day = self.blocks_per_day()
        difficulties = self._difficulties_by_month()
        rows = []
        for year, month in months:
            days = _days_in_month(year, month)
            day_keys = [f"{year:04d}-{month:02d}-{d:02d}" for d in range(1, days + 1)]
            counts = sorted(per_day.get(k, 0) for k in day_keys)
            median = counts[len(counts) // 2] if counts else 0
            average = sum(counts) / len(counts) if counts else 0.0
            diffs = sorted(difficulties.get((year, month), ()))
            difficulty = diffs[len(diffs) // 2] if diffs else self.config.initial_difficulty
            pool_rate = estimator.pool_hashrate(average, difficulty)
            xmr = sum(
                b.reward_atomic for b in self.attributed
                if _month_of(b.timestamp) == (year, month)
            ) / ATOMIC_PER_XMR
            rows.append(
                {
                    "month": f"{year:04d}-{month:02d}",
                    "median_blocks_per_day": float(median),
                    "avg_blocks_per_day": average,
                    "pool_hashrate_mhs": pool_rate / 1e6,
                    "network_hashrate_mhs": estimator.network_hashrate(difficulty) / 1e6,
                    "xmr": xmr,
                    "share": estimator.pool_share(average),
                }
            )
        return rows

    def overall_share(self) -> float:
        observed_window = self.config.end - self.config.start
        days = observed_window / 86400
        return (len(self.attributed) / days) / (86400 / self.config.block_target)

    def attribution_recall(self) -> float:
        """Fraction of truly Coinhive-mined blocks the method attributed."""
        if not self.coinhive_truth_heights:
            return 0.0
        attributed_heights = {b.height for b in self.attributed}
        return len(attributed_heights & self.coinhive_truth_heights) / len(
            self.coinhive_truth_heights
        )

    def _difficulties_by_month(self) -> dict[tuple, list]:
        """(year, month) → difficulties of the blocks appended that month."""
        chain = self.chain
        by_month: dict[tuple, list] = {}
        for height in range(1, chain.height + 1):
            month = _month_of(chain.blocks[height].header.timestamp)
            by_month.setdefault(month, []).append(chain.difficulty_at(height))
        return by_month


def _month_of(unix_ts: float) -> tuple:
    dt = _dt.datetime.fromtimestamp(unix_ts, tz=_dt.timezone.utc)
    return (dt.year, dt.month)


def _days_in_month(year: int, month: int) -> int:
    import calendar

    return calendar.monthrange(year, month)[1]


def simulate_network(config: Optional[NetworkSimConfig] = None) -> NetworkObservation:
    """Run the simulation and the pool-association attribution."""
    config = config if config is not None else NetworkSimConfig()
    rng = RngStream(config.seed, "network")
    arrival_rng = rng.substream("arrivals")
    choice_rng = rng.substream("choices")
    tx_factory = TransferFactory(rng=rng.substream("txs"))

    chain = Blockchain(
        pow_params=FAST_PARAMS,
        adjuster=DifficultyAdjuster(
            window=config.difficulty_window,
            cut=config.difficulty_cut,
            initial_difficulty=config.initial_difficulty,
        ),
        genesis_timestamp=int(config.start) - int(config.block_target),
        generated_atomic=MONEY_SUPPLY
        - (int(config.initial_reward_xmr * ATOMIC_PER_XMR) << EMISSION_SPEED_FACTOR),
    )
    mempool = Mempool()
    diurnal = DiurnalModel(holidays=paper_holiday_calendar(), outages=list(config.coinhive_outages))

    clusters: dict[bytes, set] = {}  # prev block id → merkle roots seen for it
    truth_heights: set[int] = set()
    now = config.start
    extra_counter = 0
    #: the network's aggregate hash rate; block arrivals respond to the
    #: current difficulty through it, closing the retargeting feedback loop
    base_hashrate = config.initial_difficulty / config.block_target

    while True:
        hashrate = base_hashrate * (
            1.0 + config.hashrate_drift_per_day * (now - config.start) / 86400
        )
        mean_dt = chain.current_difficulty() / hashrate
        now += arrival_rng.expovariate(1.0 / mean_dt)
        if now >= config.end:
            break
        for _ in range(choice_rng.randint(0, config.txs_per_block_max)):
            mempool.add(tx_factory.make())

        month = _month_of(now)[1]
        share = config.coinhive_share * config.monthly_share_factor.get(month, 1.0)
        activity = diurnal.factor(now)  # 0 during Coinhive outages
        p_coinhive = min(1.0, share * activity)
        coinhive_wins = choice_rng.random() < p_coinhive

        extra_counter += 1
        if coinhive_wins:
            miner, extra = "coinhive", b"ch/" + extra_counter.to_bytes(6, "little")
        else:
            pool_index = choice_rng.randint(0, 11)
            miner, extra = f"pool-{pool_index}", b"px/" + extra_counter.to_bytes(6, "little")

        template = build_template(chain, miner, extra, timestamp=now, mempool=mempool, max_txs=8)
        observer_up = not any(s <= now < e for s, e in config.observer_outages)
        if coinhive_wins and observer_up and choice_rng.random() >= config.observer_miss_rate:
            clusters.setdefault(template.header.prev_id, set()).add(template.merkle_root())
        block = template.to_block(nonce=choice_rng.getrandbits(32))
        chain.force_append(block)
        mempool.remove_included(block)
        if coinhive_wins:
            truth_heights.add(chain.height)

    attributor = BlockAttributor(chain=chain)
    attributed = attributor.attribute(clusters)
    return NetworkObservation(
        config=config,
        chain=chain,
        attributed=attributed,
        coinhive_truth_heights=truth_heights,
        clusters_observed=len(clusters),
        clusters=clusters,
    )

//! The conservative-sync contract of region-sharded execution: the shared
//! bookkeeping [`crate::EpochExecutor`] funnels every schedule and pop
//! through, and the validation of its `(shards, lookahead)` configuration.
//!
//! A parallel conservative run (Chandy–Misra–Bryant style) is safe exactly
//! when no shard can receive a cross-shard event earlier than `now +
//! lookahead`: each shard may then process its own events up to the next
//! epoch barrier without waiting on the others. The executor keeps every
//! shard's events in one queue and runs them on one thread (which is what
//! makes byte-identity across shard counts structural), but it enforces and
//! audits the contract a multi-core executor would rely on:
//!
//! * Construction **fails fast** on a zero lookahead when `shards > 1` —
//!   a degenerate config would deadlock a real conservative executor, so it
//!   is rejected with [`ShardConfigError::ZeroLookahead`] instead of being
//!   discovered as a hang.
//! * While processing an event, the driver declares the shard it is executing
//!   on ([`crate::EpochExecutor::set_origin`]); every schedule targeting a
//!   *different* shard closer than `lookahead` in the future is counted as a
//!   violation. A run that ends with zero violations is a machine-checked
//!   proof that its event flow honours the lookahead — i.e. that per-shard
//!   handler execution between barriers could not have diverged from the
//!   sequential order.
//! * Epoch barriers are book-kept as the pop clock crossing successive
//!   `lookahead`-wide windows. The count is a pure function of the
//!   (shard-invariant) pop stream and the lookahead, so it is itself part of
//!   the deterministic output surface. At zero lookahead (one shard only)
//!   neither epochs nor violations are counted.

use crate::time::{SimDuration, SimTime};

/// Why a sharded executor could not be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardConfigError {
    /// An executor needs at least one shard.
    NoShards,
    /// `shards > 1` with a zero lookahead: a conservative executor could
    /// never advance past its first barrier — refuse up front instead of
    /// deadlocking.
    ZeroLookahead {
        /// The shard count that was requested.
        shards: usize,
    },
}

impl std::fmt::Display for ShardConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardConfigError::NoShards => write!(f, "executor needs at least one shard"),
            ShardConfigError::ZeroLookahead { shards } => write!(
                f,
                "conservative sync across {shards} shards needs a strictly positive \
                 lookahead; this configuration derives zero (every cross-shard epoch \
                 would deadlock) — widen the radio per-hop overhead, the wired RSU \
                 link latency, or the radio-range/max-speed ratio"
            ),
        }
    }
}

impl std::error::Error for ShardConfigError {}

/// Per-shard event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Events routed to this shard by schedule calls.
    pub scheduled: u64,
    /// Events popped out of this shard by the merged stream.
    pub popped: u64,
}

/// The bookkeeping half of the conservative-sync contract: the global
/// sequence counter, the merged clock, the total/peak pending counts,
/// per-shard stats, epoch-window accounting, and the lookahead-violation
/// audit. The executor funnels every schedule through
/// [`SyncLedger::on_schedule`] and every committed event through
/// [`SyncLedger::on_pop`], so these counters depend only on the event flow,
/// never on how the pending set is laid out across shards.
#[derive(Debug)]
pub(crate) struct SyncLedger {
    pub(crate) stats: Vec<ShardStats>,
    pub(crate) next_seq: u64,
    pub(crate) len: usize,
    pub(crate) now: SimTime,
    pub(crate) peak_depth: usize,
    pub(crate) lookahead: SimDuration,
    /// Exclusive end of the current conservative epoch window.
    epoch_end: SimTime,
    pub(crate) epochs: u64,
    /// The shard the driver is currently executing on (None between events /
    /// for control-plane work exempt from the cross-shard contract).
    pub(crate) origin: Option<usize>,
    pub(crate) violations: u64,
}

impl SyncLedger {
    pub(crate) fn new(shards: usize, lookahead: SimDuration) -> Self {
        SyncLedger {
            stats: vec![ShardStats::default(); shards],
            next_seq: 0,
            len: 0,
            now: SimTime::ZERO,
            peak_depth: 0,
            lookahead,
            epoch_end: SimTime::ZERO.checked_add(lookahead).unwrap_or(SimTime::MAX),
            epochs: 0,
            origin: None,
            violations: 0,
        }
    }

    /// Books one schedule targeting `shard` at `at`: runs the cross-shard
    /// lookahead audit against the declared origin, bumps the pending/peak
    /// counts, and returns the drawn global sequence number.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the merged clock — scheduling into the
    /// past is always a protocol bug.
    pub(crate) fn on_schedule(&mut self, shard: usize, at: SimTime) -> u64 {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, at={}",
            self.now,
            at
        );
        if let Some(o) = self.origin {
            if o != shard
                && !self.lookahead.is_zero()
                && self
                    .now
                    .checked_add(self.lookahead)
                    .is_some_and(|floor| at < floor)
            {
                self.violations += 1;
            }
        }
        let gseq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        if self.len > self.peak_depth {
            self.peak_depth = self.len;
        }
        self.stats[shard].scheduled += 1;
        gseq
    }

    /// Books one committed pop from `shard` at `t`: advances the merged clock
    /// and the epoch-window count.
    pub(crate) fn on_pop(&mut self, shard: usize, t: SimTime) {
        self.len -= 1;
        self.stats[shard].popped += 1;
        debug_assert!(t >= self.now, "merged clock went back in time");
        self.now = t;
        if !self.lookahead.is_zero() && t >= self.epoch_end {
            self.epochs += 1;
            self.epoch_end = t.checked_add(self.lookahead).unwrap_or(SimTime::MAX);
        }
    }
}

/// Validates a `(shards, lookahead)` pair for the conservative executor.
pub(crate) fn checked_shards(
    shards: usize,
    lookahead: SimDuration,
) -> Result<(), ShardConfigError> {
    if shards == 0 {
        return Err(ShardConfigError::NoShards);
    }
    if shards > 1 && lookahead.is_zero() {
        return Err(ShardConfigError::ZeroLookahead { shards });
    }
    Ok(())
}

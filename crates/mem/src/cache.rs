//! Set-associative cache model.

use crate::hierarchy::ReplacementKind;
use crate::stats::CacheStats;
use crate::{LineAddr, LINE_BYTES};
use serde::{Deserialize, Serialize};

/// Geometry of a cache (Table II style: size, line, associativity,
/// access latency in cycles).
///
/// # Examples
///
/// ```
/// use dtexl_mem::CacheConfig;
/// let l1 = CacheConfig::texture_l1();
/// assert_eq!(l1.sets(), 16 * 1024 / 64 / 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes (64 throughout the paper).
    pub line_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Access latency in cycles (hit latency).
    pub latency: u32,
}

impl CacheConfig {
    /// The paper's 16 KiB, 4-way, 1-cycle private L1 texture cache.
    #[must_use]
    pub const fn texture_l1() -> Self {
        Self {
            size_bytes: 16 * 1024,
            line_bytes: LINE_BYTES,
            ways: 4,
            latency: 1,
        }
    }

    /// The paper's 8 KiB, 4-way, 1-cycle L1 vertex cache.
    #[must_use]
    pub const fn vertex_l1() -> Self {
        Self {
            size_bytes: 8 * 1024,
            line_bytes: LINE_BYTES,
            ways: 4,
            latency: 1,
        }
    }

    /// The paper's 64 KiB, 4-way, 1-cycle tile cache.
    #[must_use]
    pub const fn tile_cache() -> Self {
        Self {
            size_bytes: 64 * 1024,
            line_bytes: LINE_BYTES,
            ways: 4,
            latency: 1,
        }
    }

    /// The paper's 1 MiB, 8-way, 12-cycle shared L2.
    #[must_use]
    pub const fn l2() -> Self {
        Self {
            size_bytes: 1024 * 1024,
            line_bytes: LINE_BYTES,
            ways: 8,
            latency: 12,
        }
    }

    /// A copy of this configuration scaled to `factor ×` the capacity
    /// (used for the Fig. 16 upper bound: one SC with a 4× L1).
    #[must_use]
    pub fn scaled(mut self, factor: u64) -> Self {
        self.size_bytes *= factor;
        self
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero ways or a capacity
    /// that is not a multiple of `line_bytes × ways`).
    #[must_use]
    pub fn sets(&self) -> usize {
        assert!(self.ways > 0, "cache must have at least one way");
        let lines = self.size_bytes / self.line_bytes;
        let sets = lines as usize / self.ways;
        assert!(
            sets > 0 && sets * self.ways == lines as usize,
            "capacity {} not divisible into {} ways of {}-byte lines",
            self.size_bytes,
            self.ways,
            self.line_bytes,
        );
        sets
    }
}

/// Result of a single cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was already resident.
    pub hit: bool,
    /// Line evicted to make room (misses only; `None` when an invalid
    /// way was filled).
    pub evicted: Option<LineAddr>,
}

/// Tag value marking an invalid (never filled) way. No real line can
/// take this value: line addresses are byte addresses divided by the
/// 64-byte line size, so they are bounded well below `u64::MAX`.
const INVALID_TAG: LineAddr = LineAddr::MAX;

/// Seed (odd) of the [`ReplacementKind::Random`] victim stream.
const RANDOM_SEED: u64 = 0x5eed;

/// A set-associative cache with LRU, FIFO or pseudo-random
/// replacement ([`ReplacementKind`]).
///
/// Each set keeps its tags in policy order, so the policy needs no
/// state besides the order itself (see `docs/MODEL.md`, "Caches"):
///
/// * LRU — recency order: a hit moves its line to the front, a fill
///   enters at the front, the back line is the victim;
/// * FIFO — fill order: a fill enters at the front, hits do not
///   reorder, the back line is the victim;
/// * Random — way order: a fill takes the first invalid way, else the
///   way a deterministic xorshift stream draws.
///
/// The model is *functional plus latency*: it tracks residency and
/// statistics; timing (latency stacking, MSHR contention) is handled by
/// the pipeline's shader-core model using [`CacheConfig::latency`].
///
/// # Examples
///
/// ```
/// use dtexl_mem::{CacheConfig, SetAssocCache};
/// let mut c = SetAssocCache::new(CacheConfig::texture_l1());
/// assert!(!c.access(42).hit);
/// assert!(c.access(42).hit);
/// assert_eq!(c.stats().accesses, 2);
/// assert_eq!(c.stats().misses, 1);
/// ```
#[derive(Debug)]
pub struct SetAssocCache {
    config: CacheConfig,
    sets: usize,
    /// `sets - 1` when the set count is a power of two: `line % sets`
    /// is then a mask instead of a per-access 64-bit division (every
    /// standard geometry is power-of-two; the modulo fallback keeps
    /// arbitrary configs working, bit-identically).
    set_mask: Option<u64>,
    /// `tags[set * ways..][..ways]`, in the policy's order;
    /// [`INVALID_TAG`] = invalid. Under LRU and FIFO the invalid ways
    /// are always at the back. A bare sentinel keeps the hit scan to
    /// one 8-byte compare per way.
    tags: Vec<LineAddr>,
    policy: ReplacementKind,
    /// xorshift state of the [`ReplacementKind::Random`] victim draw.
    rng: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Create a cache with LRU replacement.
    ///
    /// # Panics
    ///
    /// Panics if `config` is degenerate (see [`CacheConfig::sets`]).
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        Self::with_replacement(config, ReplacementKind::Lru)
    }

    /// Create a cache with `policy` replacement.
    ///
    /// # Panics
    ///
    /// Panics if `config` is degenerate (see [`CacheConfig::sets`]).
    #[must_use]
    pub fn with_replacement(config: CacheConfig, policy: ReplacementKind) -> Self {
        let sets = config.sets();
        Self {
            config,
            sets,
            set_mask: sets.is_power_of_two().then(|| sets as u64 - 1),
            tags: vec![INVALID_TAG; sets * config.ways],
            policy,
            rng: RANDOM_SEED,
            stats: CacheStats::default(),
        }
    }

    /// The cache's configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    #[inline]
    fn set_of(&self, line: LineAddr) -> usize {
        match self.set_mask {
            Some(mask) => (line & mask) as usize,
            None => (line % self.sets as u64) as usize,
        }
    }

    /// Look up `line`, filling it on a miss. Returns hit/miss and any
    /// eviction.
    #[inline]
    pub fn access(&mut self, line: LineAddr) -> AccessOutcome {
        debug_assert!(
            line != INVALID_TAG,
            "line address is the invalid-tag sentinel"
        );
        self.stats.accesses += 1;
        let set = self.set_of(line);
        let ways = self.config.ways;
        let tags = &mut self.tags[set * ways..][..ways];
        if let Some(way) = tags.iter().position(|&t| t == line) {
            if way > 0 && self.policy == ReplacementKind::Lru {
                tags[..=way].rotate_right(1);
            }
            self.stats.hits += 1;
            return AccessOutcome {
                hit: true,
                evicted: None,
            };
        }
        self.stats.misses += 1;
        let victim = if self.policy == ReplacementKind::Random {
            let way = tags
                .iter()
                .position(|&t| t == INVALID_TAG)
                .unwrap_or_else(|| random_way(&mut self.rng, set, self.stats.accesses, ways));
            std::mem::replace(&mut tags[way], line)
        } else {
            // Front insert: the back line (least recent, first filled,
            // or an invalid way) drops out.
            let victim = tags[ways - 1];
            tags.rotate_right(1);
            tags[0] = line;
            victim
        };
        let evicted = (victim != INVALID_TAG).then_some(victim);
        self.stats.evictions += u64::from(evicted.is_some());
        AccessOutcome {
            hit: false,
            evicted,
        }
    }

    /// Whether `line` is currently resident (no state change).
    #[must_use]
    #[inline]
    pub fn probe(&self, line: LineAddr) -> bool {
        let ways = self.config.ways;
        self.tags[self.set_of(line) * ways..][..ways].contains(&line)
    }

    /// Invalidate all contents, keeping statistics (and the random
    /// victim stream's position). Every set starts empty again, so
    /// later fills order exactly as in a fresh cache.
    pub fn flush(&mut self) {
        self.tags.fill(INVALID_TAG);
    }

    /// Number of resident lines.
    #[must_use]
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID_TAG).count()
    }
}

/// The [`ReplacementKind::Random`] victim way of a full set: one
/// xorshift step of the cache's stream, mixed with the set index and
/// the access count.
fn random_way(rng: &mut u64, set: usize, tick: u64, ways: usize) -> usize {
    let mut x = *rng ^ (set as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ tick;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *rng = x;
    (x % ways as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheConfig {
        // 2 sets × 2 ways × 64 B = 256 B
        CacheConfig {
            size_bytes: 256,
            line_bytes: 64,
            ways: 2,
            latency: 1,
        }
    }

    #[test]
    fn table2_configs() {
        assert_eq!(CacheConfig::texture_l1().sets(), 64);
        assert_eq!(CacheConfig::vertex_l1().sets(), 32);
        assert_eq!(CacheConfig::tile_cache().sets(), 256);
        assert_eq!(CacheConfig::l2().sets(), 2048);
        assert_eq!(CacheConfig::texture_l1().scaled(4).size_bytes, 64 * 1024);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = SetAssocCache::new(tiny());
        assert!(!c.access(0).hit);
        assert!(c.access(0).hit);
        assert!(c.probe(0));
        assert!(!c.probe(1));
    }

    #[test]
    fn conflict_eviction_lru() {
        let mut c = SetAssocCache::new(tiny());
        // Lines 0, 2, 4 all map to set 0 (2 sets).
        c.access(0);
        c.access(2);
        let out = c.access(4);
        assert!(!out.hit);
        assert_eq!(out.evicted, Some(0), "LRU evicts line 0");
        assert!(c.probe(2) && c.probe(4) && !c.probe(0));
    }

    #[test]
    fn lru_refresh_changes_victim() {
        let mut c = SetAssocCache::new(tiny());
        c.access(0);
        c.access(2);
        c.access(0); // refresh 0
        let out = c.access(4);
        assert_eq!(out.evicted, Some(2));
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = SetAssocCache::new(tiny());
        c.access(0); // set 0
        c.access(1); // set 1
        c.access(2); // set 0
        c.access(3); // set 1
        assert_eq!(c.resident_lines(), 4);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = SetAssocCache::new(tiny());
        for _ in 0..3 {
            c.access(7);
        }
        assert_eq!(c.stats().accesses, 3);
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
        assert!((c.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn flush_clears_content_keeps_stats() {
        let mut c = SetAssocCache::new(tiny());
        c.access(0);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.stats().accesses, 1);
        assert!(!c.access(0).hit, "miss again after flush");
    }

    /// A 1-set cache of `ways` ways under `policy`.
    fn one_set(ways: usize, policy: ReplacementKind) -> SetAssocCache {
        let cfg = CacheConfig {
            size_bytes: 64 * ways as u64,
            line_bytes: 64,
            ways,
            latency: 1,
        };
        SetAssocCache::with_replacement(cfg, policy)
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = one_set(4, ReplacementKind::Lru);
        for line in 0..4 {
            c.access(line);
        }
        c.access(0); // refresh line 0
        assert_eq!(c.access(4).evicted, Some(1), "line 1 is now the oldest");
    }

    #[test]
    fn lru_tracks_sets_independently() {
        let mut c = SetAssocCache::new(tiny());
        // Set 0 refreshes its first line, set 1 its second.
        for line in [0, 2, 0, 1, 3, 3] {
            c.access(line);
        }
        assert_eq!(c.access(4).evicted, Some(2));
        assert_eq!(c.access(5).evicted, Some(1));
    }

    #[test]
    fn fifo_ignores_rehits() {
        let mut c = one_set(2, ReplacementKind::Fifo);
        c.access(0);
        c.access(1);
        c.access(0); // a re-hit does not refresh
        assert_eq!(c.access(2).evicted, Some(0), "line 0 filled first");
    }

    #[test]
    fn custom_policy_is_used() {
        // A policy chosen at construction replaces the default LRU: under
        // LRU the re-hit would make line 2 the victim.
        let mut c = SetAssocCache::with_replacement(tiny(), ReplacementKind::Fifo);
        c.access(0);
        c.access(2);
        c.access(0); // FIFO ignores the re-hit
        let out = c.access(4);
        assert_eq!(out.evicted, Some(0), "FIFO still evicts first-filled");
    }

    #[test]
    fn fifo_after_flush_evicts_the_first_fill_since_the_flush() {
        let mut c = one_set(2, ReplacementKind::Fifo);
        for line in [0, 1, 2] {
            c.access(line);
        }
        c.flush();
        c.access(3);
        c.access(4);
        assert_eq!(c.access(5).evicted, Some(3), "line 3 was filled first");
    }

    #[test]
    fn random_is_deterministic_and_in_range() {
        let mut a = one_set(4, ReplacementKind::Random);
        let mut b = one_set(4, ReplacementKind::Random);
        let mut not_oldest = 0;
        for line in 0..100 {
            let (va, vb) = (a.access(line), b.access(line));
            assert_eq!(va, vb);
            assert!(!va.hit);
            if line >= 4 {
                let victim = va.evicted.expect("a full set evicts");
                assert!(victim < line && !a.probe(victim));
                not_oldest += usize::from(victim != line - 4);
            }
        }
        assert_eq!(a.resident_lines(), 4);
        assert!(not_oldest > 0, "the draw is not a fill-order queue");
    }

    #[test]
    fn divisible_config_is_accepted() {
        // The checked counterpart of `degenerate_config_panics`: a
        // geometry where size / (line * ways) divides evenly.
        let c = SetAssocCache::new(CacheConfig {
            size_bytes: 4096,
            line_bytes: 64,
            ways: 4,
            latency: 1,
        });
        assert_eq!(c.config().sets(), 16);
    }

    #[test]
    // lint: typed-sibling(divisible_config_is_accepted)
    #[should_panic(expected = "not divisible")]
    fn degenerate_config_panics() {
        let _ = SetAssocCache::new(CacheConfig {
            size_bytes: 100,
            line_bytes: 64,
            ways: 3,
            latency: 1,
        });
    }

    #[test]
    fn working_set_equal_to_capacity_fits() {
        let cfg = tiny();
        let mut c = SetAssocCache::new(cfg);
        let lines = cfg.size_bytes / cfg.line_bytes;
        for l in 0..lines {
            c.access(l);
        }
        for l in 0..lines {
            assert!(c.access(l).hit, "line {l} should be resident");
        }
    }
}

//! Property-based tests for the cache and hierarchy models.

use dtexl_mem::{
    AccessOutcome, CacheConfig, DramConfig, DramModel, ReplacementKind, SetAssocCache,
    TextureHierarchy, TextureHierarchyConfig,
};
use proptest::prelude::*;

fn small_cache() -> CacheConfig {
    CacheConfig {
        size_bytes: 1024,
        line_bytes: 64,
        ways: 4,
        latency: 1,
    }
}

/// A trivially-correct reference cache model.
trait Reference {
    fn access(&mut self, line: u64) -> AccessOutcome;
    fn flush(&mut self);
}

/// Reference LRU or FIFO: per set, a `Vec` ordered newest first — by
/// last use under LRU, by fill under FIFO (hits do not reorder).
#[derive(Debug)]
struct RefOrdered {
    lru: bool,
    ways: usize,
    content: Vec<Vec<u64>>,
}

impl RefOrdered {
    fn new(cfg: &CacheConfig, lru: bool) -> Self {
        Self {
            lru,
            ways: cfg.ways,
            content: vec![Vec::new(); cfg.sets()],
        }
    }
}

impl Reference for RefOrdered {
    fn access(&mut self, line: u64) -> AccessOutcome {
        let sets = self.content.len() as u64;
        let set = &mut self.content[(line % sets) as usize];
        if let Some(pos) = set.iter().position(|&l| l == line) {
            if self.lru {
                set.remove(pos);
                set.insert(0, line);
            }
            return AccessOutcome {
                hit: true,
                evicted: None,
            };
        }
        set.insert(0, line);
        AccessOutcome {
            hit: false,
            evicted: (set.len() > self.ways).then(|| set.pop().unwrap()),
        }
    }

    fn flush(&mut self) {
        self.content.iter_mut().for_each(Vec::clear);
    }
}

/// Reference pseudo-random replacement in its way-indexed form: per
/// set, one slot per way; a miss fills the first empty way, else the
/// way a xorshift stream draws, seeded per access by the set index and
/// the access count. A flush empties the ways but keeps the stream.
#[derive(Debug)]
struct RefRandom {
    slots: Vec<Vec<Option<u64>>>,
    state: u64,
    tick: u64,
}

impl RefRandom {
    fn new(cfg: &CacheConfig) -> Self {
        Self {
            slots: vec![vec![None; cfg.ways]; cfg.sets()],
            state: 0x5eed | 1,
            tick: 0,
        }
    }
}

impl Reference for RefRandom {
    fn access(&mut self, line: u64) -> AccessOutcome {
        self.tick += 1;
        let set = (line % self.slots.len() as u64) as usize;
        let ways = &mut self.slots[set];
        if ways.contains(&Some(line)) {
            return AccessOutcome {
                hit: true,
                evicted: None,
            };
        }
        let way = ways.iter().position(Option::is_none).unwrap_or_else(|| {
            let mut x = self.state ^ (set as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ self.tick;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.state = x;
            (x % ways.len() as u64) as usize
        });
        AccessOutcome {
            hit: false,
            evicted: ways[way].replace(line),
        }
    }

    fn flush(&mut self) {
        for set in &mut self.slots {
            set.fill(None);
        }
    }
}

/// Drive `ops` through the production cache under `kind` and through
/// `reference`, comparing every outcome. Values at or above `flush_at`
/// flush both caches instead of accessing a line.
fn check_against_reference(
    kind: ReplacementKind,
    reference: &mut dyn Reference,
    ops: &[u64],
    flush_at: u64,
) -> Result<(), TestCaseError> {
    let mut cache = SetAssocCache::with_replacement(small_cache(), kind);
    for (i, &op) in ops.iter().enumerate() {
        if op >= flush_at {
            cache.flush();
            reference.flush();
            continue;
        }
        let got = cache.access(op);
        let want = reference.access(op);
        prop_assert_eq!(
            got,
            want,
            "{:?}: divergence at op {} (line {})",
            kind,
            i,
            op
        );
    }
    let s = cache.stats();
    prop_assert_eq!(s.hits + s.misses, s.accesses);
    Ok(())
}

proptest! {
    /// The production set-associative cache agrees hit-for-hit and
    /// eviction-for-eviction with a trivially-correct reference LRU
    /// model on arbitrary traces.
    #[test]
    fn cache_matches_reference_lru(addrs in proptest::collection::vec(0u64..256, 1..600)) {
        let mut reference = RefOrdered::new(&small_cache(), true);
        check_against_reference(ReplacementKind::Lru, &mut reference, &addrs, u64::MAX)?;
    }

    /// Every policy agrees with its reference model on every access
    /// (hit, miss and evicted line) with flushes interleaved: `256..`
    /// flushes, about one op in 65.
    #[test]
    fn cache_matches_reference_models_across_flushes(
        ops in proptest::collection::vec(0u64..260, 1..600)
    ) {
        let cfg = small_cache();
        check_against_reference(ReplacementKind::Lru, &mut RefOrdered::new(&cfg, true), &ops, 256)?;
        check_against_reference(ReplacementKind::Fifo, &mut RefOrdered::new(&cfg, false), &ops, 256)?;
        check_against_reference(ReplacementKind::Random, &mut RefRandom::new(&cfg), &ops, 256)?;
    }

    /// A line just accessed is always resident immediately afterwards.
    #[test]
    fn access_makes_resident(addrs in proptest::collection::vec(0u64..10_000, 1..200)) {
        let mut c = SetAssocCache::new(small_cache());
        for &a in &addrs {
            c.access(a);
            prop_assert!(c.probe(a));
        }
    }

    /// hits + misses == accesses, and evictions never exceed misses.
    #[test]
    fn stats_invariants(addrs in proptest::collection::vec(0u64..512, 0..300)) {
        let mut c = SetAssocCache::new(small_cache());
        for &a in &addrs {
            c.access(a);
        }
        let s = c.stats();
        prop_assert_eq!(s.hits + s.misses, s.accesses);
        prop_assert!(s.evictions <= s.misses);
        prop_assert!(c.resident_lines() <= 1024 / 64);
    }

    /// Accessing the same short sequence twice in a row: if the working
    /// set fits one set's ways, the second pass is all hits.
    #[test]
    fn rewalk_of_fitting_set_hits(start in 0u64..1000) {
        let cfg = small_cache();
        let sets = cfg.sets() as u64;
        let mut c = SetAssocCache::new(cfg);
        // Four lines mapping to the same set (ways = 4): they all fit.
        let lines: Vec<u64> = (0..4).map(|i| start + i * sets).collect();
        for &l in &lines {
            c.access(l);
        }
        for &l in &lines {
            prop_assert!(c.access(l).hit);
        }
    }

    /// Hierarchy invariant: L2 accesses == total L1 misses, DRAM accesses
    /// == L2 misses, for any access pattern over any core.
    #[test]
    fn hierarchy_flow_conservation(
        ops in proptest::collection::vec((0usize..4, 0u64..50_000), 0..500)
    ) {
        let mut h = TextureHierarchy::new(TextureHierarchyConfig::default());
        for &(sc, line) in &ops {
            h.access(sc, line);
        }
        let s = h.stats();
        prop_assert_eq!(s.l1_misses(), s.l2.accesses);
        prop_assert_eq!(s.l2.misses, s.dram_accesses);
        prop_assert_eq!(s.l1_accesses(), ops.len() as u64);
    }

    /// Replication degree is bounded by the number of private L1s.
    #[test]
    fn replication_bounded(
        ops in proptest::collection::vec((0usize..4, 0u64..64), 1..200)
    ) {
        let mut h = TextureHierarchy::new(TextureHierarchyConfig::default());
        for &(sc, line) in &ops {
            h.access(sc, line);
        }
        for line in 0..64 {
            prop_assert!(h.replication_of(line) <= 4);
        }
    }

    /// DRAM latencies always land in the configured window.
    #[test]
    fn dram_window(lo in 10u32..60, span in 0u32..80, lines in proptest::collection::vec(any::<u64>(), 1..100)) {
        let mut d = DramModel::new(DramConfig { min_latency: lo, max_latency: lo + span, ..DramConfig::default() });
        for &l in &lines {
            let lat = d.request(l);
            prop_assert!(lat >= lo && lat <= lo + span);
        }
    }

    /// The upper-bound configuration has one L1, so no line is ever
    /// replicated, and for traces whose working set fits the aggregated
    /// capacity every non-compulsory access hits.
    #[test]
    fn upper_bound_never_replicates(
        ops in proptest::collection::vec((0usize..4, 0u64..256), 1..400)
    ) {
        let cfg = TextureHierarchyConfig::default().upper_bound(4);
        let mut unified = TextureHierarchy::new(cfg);
        let mut distinct = std::collections::HashSet::new();
        for &(_sc, line) in &ops {
            unified.access(0, line);
            distinct.insert(line);
        }
        for line in 0..256 {
            prop_assert!(unified.replication_of(line) <= 1);
        }
        // 256 distinct 64 B lines = 16 KiB << 64 KiB: only compulsory misses.
        prop_assert_eq!(unified.stats().l2.accesses, distinct.len() as u64);
    }
}

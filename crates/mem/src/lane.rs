//! Decoupled L1-lane / shared-L2 halves of the texture hierarchy.
//!
//! The serial [`TextureHierarchy::access`](crate::TextureHierarchy::access)
//! interleaves private-L1 state updates with shared-L2/DRAM accesses.
//! For parallel frame simulation the two halves are pulled apart:
//!
//! * each shader core's [`L1Lane`] is simulated independently (it only
//!   reads and writes its own private cache), emitting the stream of
//!   [`L2Request`]s that would have reached the shared levels;
//! * a serial replay pass drives those requests into the [`SharedL2`]
//!   in the exact order the serial simulator would have issued them.
//!
//! Because the DRAM latency hash depends on the global request index,
//! the replay order is what makes parallel runs bit-identical to the
//! serial reference: same L2 access sequence, same DRAM latencies,
//! same statistics.

use crate::cache::SetAssocCache;
use crate::dram::DramModel;
use crate::stats::MemCounters;
use crate::LineAddr;
use std::collections::BTreeSet;

/// Lines at or above this address spill to a `BTreeSet` instead of the
/// dense bitmap. The bitmap only spans the words between the lowest
/// and highest line a set has seen (texture heaps start at
/// `TEXTURE_BASE_ADDR`, not at zero), so its size follows the touched
/// address range; the limit bounds that range — and so the bitmap
/// allocation — for a pathological scene (2²⁶ lines = 4 GiB of
/// texture = an 8 MiB map).
const DENSE_LINE_LIMIT: LineAddr = 1 << 26;

/// A set of line addresses, tuned for the L1 miss path: inserts into a
/// growable bitmap (one test-and-set) instead of a search tree. Only
/// membership and cardinality are needed — [`TextureHierarchy::stats`]
/// consumes it via [`len`](Self::len) and a cross-lane union count.
///
/// [`TextureHierarchy::stats`]: crate::TextureHierarchy::stats
#[derive(Debug, Default)]
pub(crate) struct LineSet {
    /// Index (`line / 64`) of the bitmap's first word: bit `line % 64`
    /// of `bits[line / 64 - base]` ⇔ `line` is present (lines below
    /// [`DENSE_LINE_LIMIT`] only).
    base: usize,
    bits: Vec<u64>,
    dense_len: u64,
    /// Lines at or above [`DENSE_LINE_LIMIT`].
    sparse: BTreeSet<LineAddr>,
}

impl LineSet {
    #[inline]
    pub(crate) fn insert(&mut self, line: LineAddr) {
        if line < DENSE_LINE_LIMIT {
            let word = (line / 64) as usize;
            let i = self.word_slot(word);
            let mask = 1u64 << (line % 64);
            if self.bits[i] & mask == 0 {
                self.bits[i] |= mask;
                self.dense_len += 1;
            }
        } else {
            self.sparse.insert(line);
        }
    }

    /// Index into `bits` of absolute word `word`, growing the bitmap to
    /// cover it. The first insert anchors the map at its word; later
    /// growth in either direction at least doubles the map, keeping
    /// repeated inserts amortized O(1).
    #[inline]
    fn word_slot(&mut self, word: usize) -> usize {
        if self.bits.is_empty() {
            self.base = word;
            self.bits.push(0);
        } else if word < self.base {
            let len = self.bits.len();
            let new_base = word.min(self.base.saturating_sub(len));
            let grow = self.base - new_base;
            self.bits.splice(0..0, std::iter::repeat_n(0, grow));
            self.base = new_base;
        } else if word - self.base >= self.bits.len() {
            let len = self.bits.len();
            self.bits.resize((word - self.base + 1).max(len * 2), 0);
        }
        word - self.base
    }

    /// Absolute word `word` of the bitmap (0 outside its range).
    #[inline]
    fn word_at(&self, word: usize) -> u64 {
        // Below `base` the subtraction wraps to an out-of-range index.
        self.bits
            .get(word.wrapping_sub(self.base))
            .copied()
            .unwrap_or(0)
    }

    pub(crate) fn len(&self) -> u64 {
        self.dense_len + self.sparse.len() as u64
    }

    /// Cardinality of the union of `sets` (distinct lines across all
    /// lanes). Scans only the words between the lowest and highest
    /// live word of any set.
    pub(crate) fn union_len(sets: &[&Self]) -> u64 {
        let live = sets.iter().filter(|s| !s.bits.is_empty());
        let lo = live.clone().map(|s| s.base).min().unwrap_or(0);
        let hi = live.map(|s| s.base + s.bits.len()).max().unwrap_or(0);
        let mut dense = 0u64;
        for w in lo..hi {
            let or = sets.iter().fold(0u64, |or, s| or | s.word_at(w));
            dense += u64::from(or.count_ones());
        }
        let mut sparse = BTreeSet::new();
        for s in sets {
            sparse.extend(s.sparse.iter().copied());
        }
        dense + sparse.len() as u64
    }
}

/// One request bound for the shared L2, recorded while tracing a lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Request {
    /// Line address.
    pub line: LineAddr,
    /// `true` for next-line prefetch fills: charged to the bandwidth
    /// statistics but carrying no demand latency.
    pub prefetch: bool,
}

/// What one [`L1Lane::step`] sends below the L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LaneStep {
    /// The line was resident: nothing reaches the L2.
    Hit,
    /// A demand miss, plus the next line when it was prefetched.
    Miss { prefetch: Option<LineAddr> },
}

/// A private L1 texture cache plus the per-lane bookkeeping needed to
/// simulate it in isolation from the shared levels.
#[derive(Debug)]
pub struct L1Lane {
    l1: SetAssocCache,
    prefetch_next_line: bool,
    seen: LineSet,
}

impl L1Lane {
    pub(crate) fn new(l1: SetAssocCache, prefetch_next_line: bool) -> Self {
        Self {
            l1,
            prefetch_next_line,
            seen: LineSet::default(),
        }
    }

    /// L1 hit latency in cycles.
    #[must_use]
    pub fn l1_latency(&self) -> u32 {
        self.l1.config().latency
    }

    /// Access `line`, appending any shared-L2 requests (the demand miss
    /// first, then an optional next-line prefetch) to `sink`. Returns
    /// whether the access hit in the private L1.
    ///
    /// The L1 state transition is identical to the serial hierarchy's:
    /// both run [`step`](Self::step), and prefetch decisions probe only
    /// this lane's cache, so they can be made without consulting the L2.
    #[inline]
    pub fn access(&mut self, line: LineAddr, sink: &mut Vec<L2Request>) -> bool {
        let LaneStep::Miss { prefetch } = self.step(line) else {
            return true;
        };
        sink.push(L2Request {
            line,
            prefetch: false,
        });
        if let Some(next) = prefetch {
            sink.push(L2Request {
                line: next,
                prefetch: true,
            });
        }
        false
    }

    /// The private-L1 transition of one access: the L1 lookup and, on a
    /// miss, the next-line prefetch fill.
    #[inline]
    pub(crate) fn step(&mut self, line: LineAddr) -> LaneStep {
        if self.l1.access(line).hit {
            // A hit means the line is resident, and every resident line
            // was recorded in `seen` when it was filled (demand or
            // prefetch below) — skipping the set insert here keeps the
            // hot path cheap without changing the set.
            return LaneStep::Hit;
        }
        self.seen.insert(line);
        let mut prefetch = None;
        if self.prefetch_next_line {
            let next = line + 1;
            if !self.l1.probe(next) {
                self.seen.insert(next);
                self.l1.access(next);
                prefetch = Some(next);
            }
        }
        LaneStep::Miss { prefetch }
    }

    /// Whether `line` is currently resident (no state change).
    #[must_use]
    pub fn probe(&self, line: LineAddr) -> bool {
        self.l1.probe(line)
    }

    pub(crate) fn l1(&self) -> &SetAssocCache {
        &self.l1
    }

    pub(crate) fn l1_mut(&mut self) -> &mut SetAssocCache {
        &mut self.l1
    }

    pub(crate) fn seen(&self) -> &LineSet {
        &self.seen
    }
}

/// Outcome of replaying one [`L2Request`] into the shared levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Hit in the shared L2.
    pub l2_hit: bool,
    /// Latency below the L1 in cycles: the L2 hit latency, plus the
    /// DRAM fill latency on an L2 miss.
    pub latency: u32,
}

/// The shared half of the texture hierarchy: the L2 and the DRAM model
/// behind it. Requests must be replayed in the serial issue order —
/// the DRAM latency depends on the global request index.
#[derive(Debug)]
pub struct SharedL2 {
    l2: SetAssocCache,
    dram: DramModel,
}

impl SharedL2 {
    pub(crate) fn new(l2: SetAssocCache, dram: DramModel) -> Self {
        Self { l2, dram }
    }

    /// Replay one request: an L2 lookup, plus a DRAM fill on a miss.
    #[inline]
    pub fn replay(&mut self, req: L2Request) -> ReplayOutcome {
        let l2_latency = self.l2.config().latency;
        if self.l2.access(req.line).hit {
            ReplayOutcome {
                l2_hit: true,
                latency: l2_latency,
            }
        } else {
            let dram_latency = self.dram.request(req.line);
            ReplayOutcome {
                l2_hit: false,
                latency: l2_latency + dram_latency,
            }
        }
    }

    /// Replay a trace of requests in order, returning the below-L1
    /// latency of each *demand* request (one entry per non-prefetch
    /// request, in trace order). Prefetches are replayed for their
    /// statistics but yield no latency entry.
    pub fn replay_demand(&mut self, requests: &[L2Request]) -> Vec<u32> {
        requests
            .iter()
            .filter_map(|&req| {
                let out = self.replay(req);
                (!req.prefetch).then_some(out.latency)
            })
            .collect()
    }

    /// Cumulative shared-level counters (see [`MemCounters`]): a
    /// constant-time snapshot meant to bracket replay windows.
    #[must_use]
    pub fn counters(&self) -> MemCounters {
        let l2 = self.l2.stats();
        MemCounters {
            l2_accesses: l2.accesses,
            l2_hits: l2.hits,
            l2_misses: l2.misses,
            dram_requests: self.dram.requests(),
            dram_spikes: self.dram.spikes(),
        }
    }

    pub(crate) fn l2(&self) -> &SetAssocCache {
        &self.l2
    }

    pub(crate) fn l2_mut(&mut self) -> &mut SetAssocCache {
        &mut self.l2
    }

    pub(crate) fn dram(&self) -> &DramModel {
        &self.dram
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::dram::DramConfig;

    fn lane(prefetch: bool) -> L1Lane {
        L1Lane::new(SetAssocCache::new(CacheConfig::texture_l1()), prefetch)
    }

    fn shared() -> SharedL2 {
        SharedL2::new(
            SetAssocCache::new(CacheConfig::l2()),
            DramModel::new(DramConfig::default()),
        )
    }

    /// Line of the first texture byte (`TEXTURE_BASE_ADDR / 64`).
    const TEXTURE_BASE_LINE: LineAddr = 0x1000_0000 / 64;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn line_set_first_insert_allocates_one_word_at_its_base() {
        let mut set = LineSet::default();
        set.insert(TEXTURE_BASE_LINE);
        assert_eq!(set.bits.len(), 1, "no zero-fill below the first line");
        assert_eq!(set.base, (TEXTURE_BASE_LINE / 64) as usize);
        set.insert(TEXTURE_BASE_LINE + 63);
        assert_eq!(set.bits.len(), 1, "same word, no growth");
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn line_set_grows_downward_below_its_base() {
        let mut set = LineSet::default();
        set.insert(TEXTURE_BASE_LINE);
        set.insert(TEXTURE_BASE_LINE - 1);
        let first = (TEXTURE_BASE_LINE / 64) as usize;
        assert!(set.base < first, "base moved down");
        assert!(set.bits.len() >= 2);
        set.insert(3);
        assert_eq!(set.base, 0, "growth stops at word zero");
        // Re-inserting every line counts nothing twice.
        for line in [TEXTURE_BASE_LINE, TEXTURE_BASE_LINE - 1, 3] {
            set.insert(line);
        }
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn line_set_counts_match_a_btreeset_across_lanes_with_different_bases() {
        let mut state = 0x5eed;
        for round in 0..64 {
            let lanes = 1 + round % 4;
            let mut sets: Vec<LineSet> = (0..lanes).map(|_| LineSet::default()).collect();
            let mut refs: Vec<BTreeSet<LineAddr>> = vec![BTreeSet::new(); lanes];
            for (lane, (set, reference)) in sets.iter_mut().zip(&mut refs).enumerate() {
                // Each lane draws around its own anchor, some near
                // zero, some at the texture base, some straddling the
                // dense limit; the first insert is not the lowest line.
                let anchor = match (round + lane) % 3 {
                    0 => 64 * (lane as LineAddr),
                    1 => TEXTURE_BASE_LINE + 4096 * lane as LineAddr,
                    _ => DENSE_LINE_LIMIT - 2048,
                };
                let count = splitmix(&mut state) % 600;
                for _ in 0..count {
                    let offset = splitmix(&mut state) % 8192;
                    let line = (anchor + offset).saturating_sub(1024);
                    set.insert(line);
                    reference.insert(line);
                }
                assert_eq!(
                    set.len(),
                    reference.len() as u64,
                    "round {round} lane {lane}"
                );
            }
            let union: BTreeSet<LineAddr> = refs.iter().flatten().copied().collect();
            let views: Vec<&LineSet> = sets.iter().collect();
            assert_eq!(
                LineSet::union_len(&views),
                union.len() as u64,
                "round {round}"
            );
        }
    }

    #[test]
    fn line_set_union_of_empty_sets_is_empty() {
        let (a, b) = (LineSet::default(), LineSet::default());
        assert_eq!(LineSet::union_len(&[&a, &b]), 0);
        assert_eq!(LineSet::union_len(&[]), 0);
    }

    #[test]
    fn lane_emits_demand_requests_on_misses_only() {
        let mut l = lane(false);
        let mut sink = Vec::new();
        assert!(!l.access(7, &mut sink));
        assert!(l.access(7, &mut sink));
        assert_eq!(
            sink,
            vec![L2Request {
                line: 7,
                prefetch: false
            }]
        );
    }

    #[test]
    fn lane_prefetch_appends_after_the_demand() {
        let mut l = lane(true);
        let mut sink = Vec::new();
        l.access(100, &mut sink);
        assert_eq!(sink.len(), 2);
        assert!(!sink[0].prefetch && sink[0].line == 100);
        assert!(sink[1].prefetch && sink[1].line == 101);
        // The prefetched line is resident, so its demand access hits
        // and emits nothing.
        sink.clear();
        assert!(l.access(101, &mut sink));
        assert!(sink.is_empty());
    }

    #[test]
    fn replay_matches_a_direct_l2_walk() {
        // Replaying a trace must access the L2/DRAM in exactly the
        // recorded order: same hits, same latencies.
        let reqs = vec![
            L2Request {
                line: 1,
                prefetch: false,
            },
            L2Request {
                line: 2,
                prefetch: true,
            },
            L2Request {
                line: 1,
                prefetch: false,
            },
        ];
        let mut a = shared();
        let lat = a.replay_demand(&reqs);
        assert_eq!(lat.len(), 2, "one latency per demand request");
        let mut b = shared();
        let first = b.replay(reqs[0]);
        assert!(!first.l2_hit);
        assert_eq!(lat[0], first.latency);
        b.replay(reqs[1]);
        let third = b.replay(reqs[2]);
        assert!(third.l2_hit, "line 1 is now resident");
        assert_eq!(lat[1], third.latency);
    }

    #[test]
    fn replay_order_changes_dram_latencies() {
        // The DRAM hash depends on the request index, so replay order
        // is semantically meaningful — the property the serial replay
        // pass preserves.
        let r1 = L2Request {
            line: 11,
            prefetch: false,
        };
        let r2 = L2Request {
            line: 23,
            prefetch: false,
        };
        let mut fwd = shared();
        let a = fwd.replay_demand(&[r1, r2]);
        let mut rev = shared();
        let b = rev.replay_demand(&[r2, r1]);
        assert!(
            a[0] != b[1] || a[1] != b[0],
            "order-dependent latencies: {a:?} vs {b:?}"
        );
    }
}

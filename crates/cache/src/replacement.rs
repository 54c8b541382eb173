//! Replacement policies.
//!
//! Dragonhead emulates LRU (§3.1); PLRU, FIFO, and Random exist for the
//! E-X2 ablation, which checks that the paper's working-set conclusions
//! are not artifacts of true LRU.

use cmpsim_trace::Pcg32;
use std::fmt;

/// Which replacement policy a cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// True least-recently-used (per-set recency stack).
    #[default]
    Lru,
    /// Tree-based pseudo-LRU (the common hardware approximation).
    TreePlru,
    /// First-in first-out (replacement order = fill order).
    Fifo,
    /// Uniform random victim selection (deterministic PCG stream).
    Random,
}

impl fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ReplacementPolicy::Lru => "LRU",
            ReplacementPolicy::TreePlru => "PLRU",
            ReplacementPolicy::Fifo => "FIFO",
            ReplacementPolicy::Random => "RAND",
        };
        f.write_str(s)
    }
}

/// Per-cache replacement state, flattened over all sets.
///
/// The state is touched on every access, so the hot path must be a
/// handful of instructions: LRU stores one monotone clock value per
/// touch instead of re-ranking the set, and PLRU packs each set's bit
/// tree into a `u64`.
#[derive(Debug, Clone)]
pub(crate) enum ReplacementState {
    /// True LRU as last-use timestamps: `last_use[set*ways + way]`
    /// holds the value of a per-cache monotone clock at that way's most
    /// recent touch, so recency order within a set is descending
    /// `last_use` and the victim is the minimum. Equivalent to a
    /// per-set recency permutation, but a touch is a single store
    /// instead of a read-modify-write of every way's rank. Values
    /// within a set are always distinct: initial seeds are, and every
    /// store uses a fresh clock value.
    Lru { last_use: Vec<u64>, clock: u64 },
    /// One bit tree per set; bit `i` = internal node i points toward the
    /// *pseudo-LRU* half when set.
    TreePlru { bits: Vec<u64> },
    /// Next victim way per set, advanced round-robin on fill.
    Fifo { next: Vec<u8> },
    /// Deterministic RNG shared across sets.
    Random { rng: Pcg32 },
}

impl ReplacementState {
    pub(crate) fn new(policy: ReplacementPolicy, sets: usize, ways: usize, seed: u64) -> Self {
        match policy {
            ReplacementPolicy::Lru => {
                // Seed each set with the recency order way 0 (most
                // recent) … way ways-1 (least recent) — the same initial
                // permutation the rank encoding used. The clock starts
                // above every seed so later touches always outrank them.
                let mut last_use = vec![0u64; sets * ways];
                for s in 0..sets {
                    for w in 0..ways {
                        last_use[s * ways + w] = (ways - w) as u64;
                    }
                }
                ReplacementState::Lru {
                    last_use,
                    clock: ways as u64,
                }
            }
            ReplacementPolicy::TreePlru => ReplacementState::TreePlru {
                bits: vec![0u64; sets],
            },
            ReplacementPolicy::Fifo => ReplacementState::Fifo {
                next: vec![0u8; sets],
            },
            ReplacementPolicy::Random => ReplacementState::Random {
                rng: Pcg32::seed(seed),
            },
        }
    }

    /// Registers a hit on `way` in `set`.
    #[inline]
    pub(crate) fn touch(&mut self, set: usize, ways: usize, way: usize) {
        match self {
            ReplacementState::Lru { last_use, clock } => {
                *clock += 1;
                last_use[set * ways + way] = *clock;
            }
            ReplacementState::TreePlru { bits } => {
                bits[set] = plru_touch(bits[set], ways, way);
            }
            ReplacementState::Fifo { .. } | ReplacementState::Random { .. } => {}
        }
    }

    /// Chooses the victim way for `set` (which is full). Does not update
    /// state; the caller then fills and calls [`Self::fill`].
    #[inline]
    pub(crate) fn victim(&mut self, set: usize, ways: usize) -> usize {
        match self {
            ReplacementState::Lru { last_use, .. } => {
                let base = set * ways;
                // Oldest timestamp = least recently used. Timestamps in
                // a set are distinct, so there is no tie to break.
                (0..ways)
                    .min_by_key(|&w| last_use[base + w])
                    .expect("ways > 0")
            }
            ReplacementState::TreePlru { bits } => plru_victim(bits[set], ways),
            ReplacementState::Fifo { next } => next[set] as usize,
            ReplacementState::Random { rng } => rng.below(ways as u64) as usize,
        }
    }

    /// Registers a fill into `way` of `set`.
    #[inline]
    pub(crate) fn fill(&mut self, set: usize, ways: usize, way: usize) {
        match self {
            ReplacementState::Lru { .. } | ReplacementState::TreePlru { .. } => {
                self.touch(set, ways, way)
            }
            ReplacementState::Fifo { next } => {
                if way == next[set] as usize {
                    next[set] = ((way + 1) % ways) as u8;
                }
            }
            ReplacementState::Random { .. } => {}
        }
    }

    /// LRU rank of `way` in `set` (0 = MRU), derived from the timestamp
    /// order. Only meaningful for LRU; used by tests.
    #[cfg(test)]
    pub(crate) fn lru_rank(&self, set: usize, ways: usize, way: usize) -> Option<u8> {
        match self {
            ReplacementState::Lru { last_use, .. } => {
                let base = set * ways;
                let mine = last_use[base + way];
                Some((0..ways).filter(|&w| last_use[base + w] > mine).count() as u8)
            }
            _ => None,
        }
    }
}

/// Walks the PLRU tree from the root, flipping traversed bits to point
/// *away* from `way`.
#[inline]
fn plru_touch(mut bits: u64, ways: usize, way: usize) -> u64 {
    let levels = ways.trailing_zeros();
    let mut node = 0usize; // root at index 0; children of i at 2i+1, 2i+2
    for level in 0..levels {
        let side = (way >> (levels - 1 - level)) & 1;
        if side == 0 {
            bits |= 1 << node; // point to the right (away from left child)
        } else {
            bits &= !(1 << node);
        }
        node = 2 * node + 1 + side;
    }
    bits
}

/// Follows the PLRU bits from the root to a leaf (the pseudo-LRU way).
#[inline]
fn plru_victim(bits: u64, ways: usize) -> usize {
    let levels = ways.trailing_zeros();
    let mut node = 0usize;
    let mut way = 0usize;
    for _ in 0..levels {
        let side = ((bits >> node) & 1) as usize;
        way = (way << 1) | side;
        node = 2 * node + 1 + side;
    }
    way
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names() {
        assert_eq!(ReplacementPolicy::Lru.to_string(), "LRU");
        assert_eq!(ReplacementPolicy::TreePlru.to_string(), "PLRU");
        assert_eq!(ReplacementPolicy::Fifo.to_string(), "FIFO");
        assert_eq!(ReplacementPolicy::Random.to_string(), "RAND");
    }

    #[test]
    fn lru_initial_ranks_are_permutation() {
        let st = ReplacementState::new(ReplacementPolicy::Lru, 4, 8, 0);
        for set in 0..4 {
            let mut ranks: Vec<u8> = (0..8).map(|w| st.lru_rank(set, 8, w).unwrap()).collect();
            ranks.sort_unstable();
            assert_eq!(ranks, (0..8).collect::<Vec<u8>>());
        }
    }

    #[test]
    fn lru_touch_moves_to_mru_and_stays_permutation() {
        let ways = 4;
        let mut st = ReplacementState::new(ReplacementPolicy::Lru, 1, ways, 0);
        st.touch(0, ways, 2);
        assert_eq!(st.lru_rank(0, ways, 2), Some(0));
        st.touch(0, ways, 0);
        assert_eq!(st.lru_rank(0, ways, 0), Some(0));
        assert_eq!(st.lru_rank(0, ways, 2), Some(1));
        let mut ranks: Vec<u8> = (0..ways)
            .map(|w| st.lru_rank(0, ways, w).unwrap())
            .collect();
        ranks.sort_unstable();
        assert_eq!(ranks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn lru_victim_is_least_recent() {
        let ways = 4;
        let mut st = ReplacementState::new(ReplacementPolicy::Lru, 1, ways, 0);
        // Touch 0,1,2,3 in order; LRU is 0.
        for w in 0..ways {
            st.touch(0, ways, w);
        }
        assert_eq!(st.victim(0, ways), 0);
        st.touch(0, ways, 0);
        assert_eq!(st.victim(0, ways), 1);
    }

    #[test]
    fn plru_victim_avoids_recent() {
        let ways = 8;
        let mut st = ReplacementState::new(ReplacementPolicy::TreePlru, 1, ways, 0);
        for w in 0..ways {
            st.fill(0, ways, w);
        }
        // After filling all ways in order, the victim must not be the most
        // recently filled way.
        let v = st.victim(0, ways);
        assert_ne!(v, ways - 1);
    }

    #[test]
    fn plru_single_hot_way_never_victim() {
        let ways = 8;
        let mut st = ReplacementState::new(ReplacementPolicy::TreePlru, 1, ways, 0);
        for i in 0..100 {
            st.touch(0, ways, 3);
            let v = st.victim(0, ways);
            assert_ne!(v, 3, "iteration {i}");
            st.touch(0, ways, v); // simulate filling the victim
        }
    }

    #[test]
    fn fifo_cycles_in_order() {
        let ways = 4;
        let mut st = ReplacementState::new(ReplacementPolicy::Fifo, 1, ways, 0);
        let mut victims = Vec::new();
        for _ in 0..8 {
            let v = st.victim(0, ways);
            victims.push(v);
            st.fill(0, ways, v);
        }
        assert_eq!(victims, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn fifo_hits_do_not_change_order() {
        let ways = 4;
        let mut st = ReplacementState::new(ReplacementPolicy::Fifo, 1, ways, 0);
        st.touch(0, ways, 0); // hit on way 0
        assert_eq!(st.victim(0, ways), 0, "FIFO ignores hits");
    }

    #[test]
    fn random_victims_cover_all_ways() {
        let ways = 8;
        let mut st = ReplacementState::new(ReplacementPolicy::Random, 1, ways, 42);
        let mut seen = [false; 8];
        for _ in 0..200 {
            seen[st.victim(0, ways)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn random_is_deterministic() {
        let ways = 8;
        let mut a = ReplacementState::new(ReplacementPolicy::Random, 1, ways, 42);
        let mut b = ReplacementState::new(ReplacementPolicy::Random, 1, ways, 42);
        for _ in 0..50 {
            assert_eq!(a.victim(0, ways), b.victim(0, ways));
        }
    }

    #[test]
    fn plru_direct_mapped_degenerates() {
        // 1-way: victim is always way 0 and touch is a no-op.
        let mut st = ReplacementState::new(ReplacementPolicy::TreePlru, 2, 1, 0);
        st.touch(0, 1, 0);
        assert_eq!(st.victim(0, 1), 0);
    }
}

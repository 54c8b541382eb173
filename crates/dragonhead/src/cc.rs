//! The CC0–CC3 cache-controller FPGAs: a bank-interleaved shared LLC.

use cmpsim_cache::{CacheConfig, CacheStats, ConfigError, SetAssocCache};

/// A bank-interleaved set-associative cache.
///
/// The hardware splits the emulated LLC across four cache-controller
/// FPGAs by low line-address bits. Interleaving by `line % banks` and
/// indexing each bank with `line / banks` partitions lines across
/// (bank, set) pairs *identically* to a flat cache's `line % sets`
/// partition, so the banked organization is hit/miss-equivalent to the
/// flat cache — the integration suite asserts this equivalence.
#[derive(Debug, Clone)]
pub struct BankedCache {
    banks: Vec<SetAssocCache>,
    num_banks: u64,
    /// `num_banks - 1` when the bank count is a power of two (the
    /// hardware's CC0–CC3 always is), letting [`route`](Self::route)
    /// use mask/shift instead of two integer divisions per access; the
    /// sentinel `u64::MAX` selects the general div/mod path.
    bank_mask: u64,
    bank_shift: u32,
    line_bytes: u64,
}

impl BankedCache {
    /// Builds a banked cache totalling `cfg.size_bytes()` split across
    /// `banks` equal banks.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the per-bank geometry is invalid
    /// (e.g. the size does not divide evenly across banks).
    pub fn new(cfg: CacheConfig, banks: u32) -> Result<Self, ConfigError> {
        if banks == 0 {
            return Err(ConfigError::Zero("bank count"));
        }
        if !cfg.size_bytes().is_multiple_of(u64::from(banks)) {
            return Err(ConfigError::UnevenBanks {
                size: cfg.size_bytes(),
                banks,
            });
        }
        let per_bank = CacheConfig::builder()
            .size_bytes(cfg.size_bytes() / u64::from(banks))
            .line_bytes(cfg.line_bytes())
            .associativity(cfg.associativity())
            .replacement(cfg.replacement())
            .write_policy(cfg.write_policy())
            .build()?;
        let num_banks = u64::from(banks);
        let (bank_mask, bank_shift) = if num_banks.is_power_of_two() {
            (num_banks - 1, num_banks.trailing_zeros())
        } else {
            (u64::MAX, 0)
        };
        Ok(BankedCache {
            banks: (0..banks).map(|_| SetAssocCache::new(per_bank)).collect(),
            num_banks,
            bank_mask,
            bank_shift,
            line_bytes: cfg.line_bytes(),
        })
    }

    /// Line size in bytes.
    pub const fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Number of banks.
    pub fn num_banks(&self) -> u32 {
        self.banks.len() as u32
    }

    #[inline]
    fn route(&self, line: u64) -> (usize, u64) {
        if self.bank_mask != u64::MAX {
            ((line & self.bank_mask) as usize, line >> self.bank_shift)
        } else {
            ((line % self.num_banks) as usize, line / self.num_banks)
        }
    }

    /// Demand access to the line containing `addr`.
    pub fn access_addr(&mut self, addr: cmpsim_trace::Addr, write: bool) -> bool {
        let line = addr.line(self.line_bytes);
        self.access_line(line, write)
    }

    /// Demand access by global line number. Returns whether it hit.
    pub fn access_line(&mut self, line: u64, write: bool) -> bool {
        let (bank, bank_line) = self.route(line);
        self.banks[bank].access(bank_line, write).is_hit()
    }

    /// Absorbs an upper-level writeback; returns false if the line was
    /// not resident (it then goes to memory).
    pub fn receive_writeback(&mut self, line: u64) -> bool {
        let (bank, bank_line) = self.route(line);
        self.banks[bank].receive_writeback(bank_line)
    }

    /// Prefetch fill; returns true if the line was newly inserted.
    pub fn prefetch_line(&mut self, line: u64) -> bool {
        let (bank, bank_line) = self.route(line);
        if self.banks[bank].contains(bank_line) {
            false
        } else {
            let _ = self.banks[bank].prefetch_fill(bank_line);
            true
        }
    }

    /// Whether the line is resident (no state change).
    pub fn contains(&self, line: u64) -> bool {
        let (bank, bank_line) = self.route(line);
        self.banks[bank].contains(bank_line)
    }

    /// Counters merged across banks.
    pub fn stats(&self) -> CacheStats {
        let mut s = CacheStats::default();
        for b in &self.banks {
            s.merge(b.stats());
        }
        s
    }

    /// Per-bank counters (CB reads each controller separately).
    pub fn bank_stats(&self) -> Vec<CacheStats> {
        self.banks.iter().map(|b| *b.stats()).collect()
    }

    /// Resets all counters, preserving contents.
    pub fn reset_stats(&mut self) {
        for b in &mut self.banks {
            b.reset_stats();
        }
    }

    /// Total resident lines across banks.
    pub fn resident_lines(&self) -> u64 {
        self.banks.iter().map(|b| b.resident_lines()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim_trace::Pcg32;

    fn flat_and_banked(size: u64, line: u64, ways: u32) -> (SetAssocCache, BankedCache) {
        let cfg = CacheConfig::lru(size, line, ways).unwrap();
        (SetAssocCache::new(cfg), BankedCache::new(cfg, 4).unwrap())
    }

    #[test]
    fn banked_equals_flat_on_random_stream() {
        let (mut flat, mut banked) = flat_and_banked(1 << 20, 64, 16);
        let mut rng = Pcg32::seed(99);
        for _ in 0..200_000 {
            let line = rng.below(40_000);
            let write = rng.chance(0.3);
            let f = flat.access(line, write).is_hit();
            let b = banked.access_line(line, write);
            assert_eq!(f, b, "divergence at line {line}");
        }
        assert_eq!(flat.stats().hits, banked.stats().hits);
        assert_eq!(flat.stats().misses, banked.stats().misses);
        assert_eq!(flat.stats().writebacks, banked.stats().writebacks);
    }

    #[test]
    fn banked_equals_flat_on_streaming() {
        let (mut flat, mut banked) = flat_and_banked(1 << 20, 256, 8);
        for pass in 0..3 {
            for line in 0..10_000u64 {
                let f = flat.access(line, false).is_hit();
                let b = banked.access_line(line, false);
                assert_eq!(f, b, "pass {pass} line {line}");
            }
        }
    }

    #[test]
    fn addresses_map_to_lines() {
        let cfg = CacheConfig::lru(1 << 20, 256, 8).unwrap();
        let mut c = BankedCache::new(cfg, 4).unwrap();
        assert!(!c.access_addr(cmpsim_trace::Addr::new(0x1000), false));
        // Same 256-byte line, different 64-byte offset: hit.
        assert!(c.access_addr(cmpsim_trace::Addr::new(0x1040), false));
    }

    #[test]
    fn writeback_absorption() {
        let (_, mut banked) = flat_and_banked(1 << 20, 64, 16);
        assert!(!banked.receive_writeback(5), "absent line goes to memory");
        banked.access_line(5, false);
        assert!(banked.receive_writeback(5));
    }

    #[test]
    fn prefetch_fills_once() {
        let (_, mut banked) = flat_and_banked(1 << 20, 64, 16);
        assert!(banked.prefetch_line(9));
        assert!(!banked.prefetch_line(9));
        assert!(banked.contains(9));
    }

    #[test]
    fn zero_banks_rejected() {
        let cfg = CacheConfig::lru(1 << 20, 64, 16).unwrap();
        assert!(BankedCache::new(cfg, 0).is_err());
    }

    #[test]
    fn uneven_bank_split_rejected() {
        // 1 MiB across 3 banks would silently truncate to 3 × 349525 B;
        // the doc promises a ConfigError instead.
        let cfg = CacheConfig::lru(1 << 20, 64, 16).unwrap();
        match BankedCache::new(cfg, 3) {
            Err(ConfigError::UnevenBanks { size, banks }) => {
                assert_eq!((size, banks), (1 << 20, 3));
            }
            other => panic!("expected UnevenBanks error, got {other:?}"),
        }
        // The error message names both offending quantities.
        let msg = BankedCache::new(cfg, 3).unwrap_err().to_string();
        assert!(msg.contains("1048576") && msg.contains("3 banks"), "{msg}");
    }

    #[test]
    fn bank_load_is_balanced_for_sequential_lines() {
        let (_, mut banked) = flat_and_banked(1 << 20, 64, 16);
        for line in 0..4096u64 {
            banked.access_line(line, false);
        }
        let per_bank = banked.bank_stats();
        assert!(per_bank.iter().all(|s| s.accesses == 1024));
    }
}

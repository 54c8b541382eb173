#![warn(missing_docs)]

//! Software model of the **Dragonhead** FPGA passive cache emulator
//! (§3.1 of the paper).
//!
//! The real Dragonhead is a board of six FPGAs snooping the front-side
//! bus:
//!
//! * **AF** (address filter) receives FSB transactions from the logic
//!   analyzer interface and "sends them to CC after regulation" — it
//!   decodes the co-simulation messages, tracks the start/stop emulation
//!   window, and tags transactions with the active virtual core;
//! * **CC0–CC3** (cache controllers) emulate the configured shared LLC,
//!   bank-interleaved four ways;
//! * **CB** (collection board) configures the others and collects
//!   performance counters, which "a host computer reads ... every 500
//!   microseconds".
//!
//! This crate models each stage with the same division of labor:
//! [`AddressFilter`], [`BankedCache`], and [`Sampler`] compose into
//! [`Dragonhead`], which implements the platform's
//! `FsbListener`-shaped interface (see the `cmpsim-softsdv` crate) via
//! [`Dragonhead::observe`] (kept dependency-free of the softsdv crate;
//! the `cmpsim-core` crate provides the glue).
//!
//! The emulated cache range matches the hardware: 1 MB–256 MB capacity,
//! 64 B–4096 B lines, LRU replacement, shared across all cores. An
//! optional stride prefetcher can be attached for the §4.4 study.
//!
//! # Example
//!
//! ```
//! use cmpsim_cache::CacheConfig;
//! use cmpsim_dragonhead::{Dragonhead, DragonheadConfig};
//! use cmpsim_trace::{Addr, FsbKind, FsbTransaction, Message, MessageCodec};
//!
//! let cfg = DragonheadConfig::new(CacheConfig::lru(1 << 20, 64, 16)?);
//! let mut dh = Dragonhead::new(cfg);
//! for txn in MessageCodec::encode(Message::Start, 0) {
//!     dh.observe(&txn);
//! }
//! dh.observe(&FsbTransaction::new(1, FsbKind::ReadLine, Addr::new(0x4000)));
//! dh.observe(&FsbTransaction::new(2, FsbKind::ReadLine, Addr::new(0x4000)));
//! assert_eq!(dh.stats().misses, 1);
//! assert_eq!(dh.stats().hits, 1);
//! # Ok::<(), cmpsim_cache::ConfigError>(())
//! ```

pub mod af;
pub mod cc;
pub mod emulator;
pub mod replay;
pub mod sampler;

pub use af::{AddressFilter, FilterOutcome, MAX_PLAUSIBLE_CORES};
pub use cc::BankedCache;
pub use emulator::{Dragonhead, DragonheadConfig};
pub use replay::{flush_all, observe_batches, replay, BATCH_TRANSACTIONS};
pub use sampler::{Sample, Sampler, SamplerError};

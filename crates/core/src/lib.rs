#![warn(missing_docs)]

//! `cmpsim` — hardware-software co-simulation of data-mining workloads
//! on small, medium, and large-scale CMPs.
//!
//! This crate is the top of the stack: it binds the SoftSDV-style
//! virtual platform ([`cmpsim_softsdv`]) to the Dragonhead cache-emulator
//! model ([`cmpsim_dragonhead`]) exactly as §3.3 of the ISPASS 2007 paper
//! describes — the platform runs the workload on N time-sliced virtual
//! cores and posts control messages on the bus; the passive emulator
//! snoops every transaction, attributes it to a core, and emulates the
//! configured shared LLC in real time.
//!
//! Because the emulator is passive, everything it measures is a
//! function of the FSB stream alone, and every result here comes out of
//! one pipeline: **stream → boards → reports**. The platform's stream is
//! captured once into the compact trace encoding
//! ([`CoSimulation::capture`], shared through a [`CaptureBroker`] and
//! optionally a [`TraceStore`]) and observed by any number of boards.
//! [`CoSimulation::sweep`] lets its boards watch the stream while it is
//! recorded, as the paper's board snooped the live bus, and replays it
//! ([`CoSimulation::replay_sweep_sharded`]) when the broker already has
//! it. [`CoSimulation::run`] is the same pipeline with a throwaway
//! in-memory recording, and fault injection is an adapter on the decoded
//! stream ([`CoSimulation::replay_checked`], which always validates).
//!
//! On top of the co-simulation sit the paper's experiments, each taking
//! the [`CaptureBroker`] its streams come from:
//!
//! * [`experiment::Table2Study`] — workload characterization (Table 2),
//! * [`experiment::CacheSizeStudy`] — LLC MPKI vs size on 8/16/32-core
//!   CMPs (Figures 4, 5, 6),
//! * [`experiment::LineSizeStudy`] — line-size sensitivity (Figure 7),
//! * [`experiment::PrefetchStudy`] — hardware-prefetch speedups
//!   (Figure 8),
//! * ablations: sharing category, replacement policy, 64/128-core
//!   projection.
//!
//! # Quickstart
//!
//! ```
//! use cmpsim_core::cosim::{CoSimConfig, CoSimulation};
//! use cmpsim_core::{Scale, WorkloadId};
//!
//! let workload = WorkloadId::Plsa.build(Scale::tiny(), 1);
//! let cfg = CoSimConfig::new(2, 1 << 20)?; // 2 cores, 1 MB LLC
//! let report = CoSimulation::new(cfg).run(workload.as_ref());
//! assert!(report.run.instructions > 0);
//! assert!(report.llc.accesses > 0);
//! # Ok::<(), cmpsim_cache::ConfigError>(())
//! ```

pub mod capture;
pub mod cosim;
pub mod error;
pub mod experiment;
pub mod grid;
pub mod report;
pub mod telemetry;
pub mod validate;

pub use cmpsim_cache as cache;
pub use cmpsim_dragonhead as dragonhead;
pub use cmpsim_faults as faults;
pub use cmpsim_memsys as memsys;
pub use cmpsim_prefetch as prefetch;
pub use cmpsim_runner as runner;
pub use cmpsim_softsdv as softsdv;
pub use cmpsim_telemetry as tel;
pub use cmpsim_trace as trace;
pub use cmpsim_workloads as workloads;

pub use capture::{CaptureBroker, CaptureCounters, CapturedStream, TraceStore};
pub use cmpsim_workloads::{Scale, WorkloadId};
pub use cosim::{replay_shards, set_replay_shards, CoSimConfig, CoSimReport, CoSimulation};
pub use error::CoSimError;
pub use experiment::CmpClass;
pub use validate::Validator;

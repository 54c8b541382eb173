//! The SoftSDV ↔ Dragonhead binding.

use crate::capture::{CaptureBroker, CapturedStream};
use crate::error::CoSimError;
use crate::validate::Validator;
use cmpsim_cache::{CacheConfig, CacheStats, ConfigError, HierarchyConfig};
use cmpsim_dragonhead::{Dragonhead, DragonheadConfig, Sample};
use cmpsim_faults::FaultInjector;
use cmpsim_memsys::RunCounts;
use cmpsim_prefetch::StrideConfig;
use cmpsim_runner::JobKey;
use cmpsim_softsdv::{FsbListener, HostNoiseConfig, PlatformConfig, RunSummary, VirtualPlatform};
use cmpsim_telemetry::trace as ftrace;
use cmpsim_telemetry::{Labels, MetricRegistry};
use cmpsim_trace::file::TraceWriter;
use cmpsim_trace::FsbTransaction;
use cmpsim_workloads::{Scale, Workload, WorkloadId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Process-wide sweep-replay shard count, default 1 (serial).
///
/// Sweep boards are built inside the experiment types, far from any
/// CLI, and sharding never changes results (byte-identical at any
/// count — `tests/replay_equivalence.rs` pins it), so the shard count
/// is ambient tuning state rather than threaded through every
/// experiment constructor. Binaries set it once from `--replay-shards`.
static REPLAY_SHARDS: AtomicUsize = AtomicUsize::new(1);

/// Sets the process-wide shard count used by
/// [`CoSimulation::replay_sweep`]. Zero and one both mean serial.
pub fn set_replay_shards(shards: usize) {
    REPLAY_SHARDS.store(shards.max(1), Ordering::Relaxed);
}

/// The process-wide sweep-replay shard count (see
/// [`set_replay_shards`]).
pub fn replay_shards() -> usize {
    REPLAY_SHARDS.load(Ordering::Relaxed).max(1)
}

/// Full co-simulation configuration: the virtual platform plus the
/// emulated LLC.
#[derive(Debug, Clone, Copy)]
pub struct CoSimConfig {
    /// Virtual cores exposed by the platform (= workload threads).
    pub cores: usize,
    /// Per-core private stack in front of the bus.
    pub hierarchy: HierarchyConfig,
    /// The LLC Dragonhead emulates.
    pub llc: CacheConfig,
    /// Cache-controller banks.
    pub banks: u32,
    /// Host sampling period (bus cycles).
    pub sample_period: u64,
    /// Optional stride prefetcher in front of the LLC.
    pub prefetch: Option<StrideConfig>,
    /// Optional host/OS interference traffic (excluded by the AF).
    pub host_noise: Option<HostNoiseConfig>,
}

impl CoSimConfig {
    /// A default setup: `cores` virtual cores with the standard CMP
    /// private stack and an LRU 16-way LLC of `llc_bytes` with 64-byte
    /// lines.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if `llc_bytes` is not a valid cache
    /// geometry.
    pub fn new(cores: usize, llc_bytes: u64) -> Result<Self, ConfigError> {
        Ok(CoSimConfig {
            cores,
            hierarchy: HierarchyConfig::cmp_core(),
            llc: CacheConfig::lru(llc_bytes, 64, 16)?,
            banks: 4,
            sample_period: cmpsim_dragonhead::sampler::DEFAULT_PERIOD_CYCLES,
            prefetch: None,
            host_noise: None,
        })
    }

    /// Like [`CoSimConfig::new`], but with the private hierarchy scaled
    /// by the same [`Scale`](cmpsim_workloads::Scale) knob as the
    /// workloads and the LLC sweep — the configuration every experiment
    /// uses, so that all three layers shrink together and the paper's
    /// shapes survive scaling.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if `llc_bytes` is not a valid geometry.
    pub fn scaled(
        cores: usize,
        llc_bytes: u64,
        scale: cmpsim_workloads::Scale,
    ) -> Result<Self, ConfigError> {
        let mut cfg = Self::new(cores, llc_bytes)?;
        cfg.hierarchy = HierarchyConfig::cmp_core_scaled(scale);
        Ok(cfg)
    }

    /// Replaces the emulated LLC configuration.
    pub fn with_llc(mut self, llc: CacheConfig) -> Self {
        self.llc = llc;
        self
    }

    /// Attaches a stride prefetcher.
    pub fn with_prefetch(mut self, pf: StrideConfig) -> Self {
        self.prefetch = Some(pf);
        self
    }

    fn platform_config(&self) -> PlatformConfig {
        let mut p = PlatformConfig::new(self.cores).with_hierarchy(self.hierarchy);
        if let Some(noise) = self.host_noise {
            p = p.with_host_noise(noise);
        }
        p
    }

    /// The board this configuration puts behind the bus, emulating
    /// `llc` (sweeps vary only the LLC; banks, sampling and prefetch are
    /// shared).
    fn board(&self, llc: CacheConfig) -> DragonheadConfig {
        let mut d = DragonheadConfig::new(llc);
        d.banks = self.banks;
        d.sample_period = self.sample_period;
        d.prefetch = self.prefetch;
        d
    }
}

/// Everything one co-simulated run produced.
#[derive(Debug, Clone)]
pub struct CoSimReport {
    /// Platform-side summary (instructions, private-cache stats).
    pub run: RunSummary,
    /// Emulated-LLC demand counters.
    pub llc: CacheStats,
    /// LLC misses per 1000 instructions — the paper's Figures 4–6 metric.
    pub mpki: f64,
    /// Per-core LLC counters (from core-id attribution).
    pub per_core_llc: Vec<cmpsim_dragonhead::emulator::CoreCounters>,
    /// 500 µs counter samples.
    pub samples: Vec<Sample>,
    /// Prefetch fills that reached memory.
    pub prefetch_fills: u64,
    /// Writebacks that missed the LLC and went to memory.
    pub writebacks_to_memory: u64,
    /// The LLC size this report is for.
    pub llc_bytes: u64,
    /// The LLC line size this report is for.
    pub llc_line_bytes: u64,
    /// Distinct lines resident in the LLC at end of run (for the
    /// occupancy invariant: never more than capacity).
    pub llc_resident_lines: u64,
    /// Every counter from both sides of the bus as labeled series: the
    /// platform's retirement/private-cache counters and the board's
    /// per-bank, per-core LLC counters.
    pub metrics: MetricRegistry,
}

impl CoSimReport {
    /// Converts the report into timing-model inputs.
    ///
    /// Memory traffic = LLC demand misses (fills) plus dirty-eviction
    /// writebacks plus prefetch fills.
    pub fn run_counts(&self) -> RunCounts {
        RunCounts {
            instructions: self.run.instructions,
            l2_hits: self.run.l2.hits,
            llc_hits: self.llc.hits,
            mem_fills: self.llc.misses,
            prefetch_fills: self.prefetch_fills,
            mem_writebacks: self.llc.writebacks + self.writebacks_to_memory,
            threads: self.run.per_core.len() as u32,
        }
    }
}

/// A configured co-simulation, ready to run workloads.
///
/// Every result comes out of one pipeline: the platform's FSB stream is
/// recorded ([`capture`](CoSimulation::capture)), then replayed into
/// passive boards ([`replay_sweep_sharded`](CoSimulation::replay_sweep_sharded)).
/// [`run`](CoSimulation::run) is that pipeline with a throwaway
/// in-memory recording, and fault injection is an adapter on the
/// decoded stream ([`replay_checked`](CoSimulation::replay_checked)).
#[derive(Debug, Clone, Copy)]
pub struct CoSimulation {
    cfg: CoSimConfig,
}

/// The tape deck: a listener that records the exact FSB stream in the
/// compact trace encoding.
struct Recorder {
    writer: TraceWriter<Vec<u8>>,
    /// Transactions whose address was not 64-byte aligned. The trace
    /// codec works at 64-byte line granularity, so an unaligned address
    /// would be silently truncated — a lossy capture. Every current
    /// platform source is aligned (private lines are 64 B, host noise
    /// is masked, message addresses are shift-aligned); this counter
    /// turns a future regression into a loud capture-time failure
    /// instead of a subtly wrong replay.
    unaligned: u64,
}

impl FsbListener for Recorder {
    #[inline]
    fn transaction(&mut self, txn: &FsbTransaction) {
        if !txn.addr.raw().is_multiple_of(64) {
            self.unaligned += 1;
        }
        self.writer
            .write(txn)
            .expect("writing a trace to memory cannot fail");
    }
}

/// Passes every transaction of `stream` through `injector` — which may
/// drop, duplicate, reorder, or corrupt it — and releases whatever the
/// injector still holds back (e.g. the second half of a reorder swap)
/// once the stream ends.
fn injected<'a>(
    stream: impl Iterator<Item = FsbTransaction> + 'a,
    injector: &'a mut dyn FaultInjector,
) -> impl Iterator<Item = FsbTransaction> + 'a {
    let mut stream = stream.fuse();
    let mut buf = Vec::new();
    let mut next = 0;
    let mut finished = false;
    std::iter::from_fn(move || loop {
        if let Some(&txn) = buf.get(next) {
            next += 1;
            return Some(txn);
        }
        buf.clear();
        next = 0;
        match stream.next() {
            Some(txn) => injector.inject(&txn, &mut buf),
            None if !finished => {
                finished = true;
                injector.finish(&mut buf);
            }
            None => return None,
        }
    })
}

impl CoSimulation {
    /// Creates a co-simulation from a config.
    pub fn new(cfg: CoSimConfig) -> Self {
        CoSimulation { cfg }
    }

    /// Runs `workload` to completion under this configuration: its FSB
    /// stream is recorded into memory, then replayed into this
    /// configuration's board.
    pub fn run(&self, workload: &dyn Workload) -> CoSimReport {
        // The key only labels the recording: an instance has no
        // scale/seed identity, and the stream is never stored.
        let key = JobKey::new("fsb-stream").field("workload", workload.id());
        self.replay(&self.record(&key, workload))
    }

    /// The content-addressed identity of the FSB stream this
    /// configuration produces for `{workload, scale, seed}`.
    ///
    /// Only platform-side parameters participate: the emulated LLC, its
    /// banks, the sample period, and the prefetcher all sit *behind*
    /// the bus and cannot change what crosses it, so every cell of a
    /// cache-size, line-size, or replacement sweep shares one key — the
    /// fact the capture-once / replay-many pipeline rests on.
    pub fn stream_key(&self, workload: WorkloadId, scale: Scale, seed: u64) -> JobKey {
        JobKey::new("fsb-stream")
            .field("version", env!("CARGO_PKG_VERSION"))
            .field("workload", workload)
            .field("scale", scale)
            .field("seed", seed)
            .field("cores", self.cfg.cores)
            .field("hierarchy", format!("{:?}", self.cfg.hierarchy))
            .field("noise", format!("{:?}", self.cfg.host_noise))
    }

    /// Runs the platform once with a recording listener on the bus,
    /// returning the captured stream (no board is emulated).
    pub fn capture(&self, workload: WorkloadId, scale: Scale, seed: u64) -> CapturedStream {
        let _t = ftrace::span("capture");
        let wl = {
            let _b = ftrace::span("build");
            workload.build(scale, seed)
        };
        self.record(&self.stream_key(workload, scale, seed), wl.as_ref())
    }

    /// Records `workload`'s FSB stream under `key`.
    fn record(&self, key: &JobKey, workload: &dyn Workload) -> CapturedStream {
        let mut rec = Recorder {
            writer: TraceWriter::new(Vec::new()).expect("writing a trace to memory cannot fail"),
            unaligned: 0,
        };
        let run = {
            let _r = ftrace::span("record");
            VirtualPlatform::new(self.cfg.platform_config(), workload).run(&mut rec)
        };
        let _s = ftrace::span("seal");
        assert_eq!(
            rec.writer.clamped(),
            0,
            "platform cycles are monotone; a clamped capture would not replay faithfully"
        );
        assert_eq!(
            rec.unaligned, 0,
            "platform emitted sub-line addresses; the line-granular trace \
             codec would capture them lossily"
        );
        let transactions = rec.writer.count();
        let bytes = rec
            .writer
            .finish()
            .expect("writing a trace to memory cannot fail");
        CapturedStream::new(key, bytes, transactions, run)
    }

    /// Returns the stream for `{workload, scale, seed}` via `broker`:
    /// captured at most once per key per process, reused (from memory
    /// or the broker's on-disk store) everywhere else.
    pub fn captured(
        &self,
        broker: &CaptureBroker,
        workload: WorkloadId,
        scale: Scale,
        seed: u64,
    ) -> Arc<CapturedStream> {
        broker.stream(&self.stream_key(workload, scale, seed), || {
            self.capture(workload, scale, seed)
        })
    }

    /// Replays a captured stream into this configuration's board.
    pub fn replay(&self, stream: &CapturedStream) -> CoSimReport {
        self.replay_sweep_sharded(stream, &[self.cfg.llc], 1)
            .pop()
            .expect("one board, one report")
    }

    /// Replays a captured stream into one board per LLC in `llcs`,
    /// returning one report per configuration, in order.
    ///
    /// Replay is sharded across worker threads per the process-wide
    /// [`replay_shards`] setting; use
    /// [`replay_sweep_sharded`](CoSimulation::replay_sweep_sharded) to
    /// pick the count explicitly. Results are byte-identical at any
    /// shard count.
    pub fn replay_sweep(&self, stream: &CapturedStream, llcs: &[CacheConfig]) -> Vec<CoSimReport> {
        self.replay_sweep_sharded(stream, llcs, replay_shards())
    }

    /// [`replay_sweep`](CoSimulation::replay_sweep) with an explicit
    /// shard count.
    ///
    /// The boards are split into `min(shards, boards)` contiguous
    /// groups. Each group decodes the compact stream itself and drives
    /// its boards over it batch by batch — on the calling thread when
    /// there is one group, on scoped worker threads otherwise — so
    /// memory does not grow with the shard count. Each board observes
    /// the full stream in order over batch boundaries fixed by the
    /// stream alone, and reports are assembled in `llcs` order, so the
    /// shard count can never change a byte of output
    /// (`tests/replay_equivalence.rs` pins this).
    pub fn replay_sweep_sharded(
        &self,
        stream: &CapturedStream,
        llcs: &[CacheConfig],
        shards: usize,
    ) -> Vec<CoSimReport> {
        let _t = ftrace::span("replay");
        let mut boards: Vec<Dragonhead> = llcs
            .iter()
            .map(|&llc| Dragonhead::new(self.cfg.board(llc)))
            .collect();
        let final_cycle = stream.run().cycles;
        let group_len = boards.len().div_ceil(shards.max(1)).max(1);
        let groups: Vec<&mut [Dragonhead]> = boards.chunks_mut(group_len).collect();
        // One group runs inline under the caller's tracing context,
        // where `dragonhead::replay` opens the `board-replay` span
        // itself. Worker threads have no context, so each shard opens
        // its own on the captured lane (`Lane` clones share one
        // buffer), parented under this `replay` span, so `cmpsim
        // report` shows per-shard replay utilization.
        let ctx = (groups.len() > 1).then(ftrace::snapshot).flatten();
        cmpsim_runner::scoped_shards(groups, |shard, group: &mut [Dragonhead]| {
            let _span = ctx.as_ref().map(|(lane, cell, parent)| {
                let mut s = lane.begin("board-replay", cell, *parent);
                s.arg("shard", shard as u64);
                s.arg("boards", group.len() as u64);
                s
            });
            cmpsim_dragonhead::replay(stream.iter(), group, final_cycle)
                .expect("captured platform cycles are monotone");
        });
        boards
            .iter()
            .map(|dh| Self::report(stream.run().clone(), dh))
            .collect()
    }

    /// Replays `stream` into this configuration's board with `injector`
    /// perturbing the decoded transactions on their way to it — the
    /// chaos path. Every failure mode is a structured [`CoSimError`]
    /// instead of a panic, and the finished report is checked against
    /// the full invariant catalogue before it is returned.
    ///
    /// The platform itself is never faulted (the stream's
    /// [`RunSummary`] is ground truth); only what the board *observes*
    /// is. The returned report carries the injection census in
    /// `metrics` (`faults_injected`, plus a per-`class` breakdown) next
    /// to the board's own anomaly counters, so an unrecovered
    /// corruption surfaces as a named invariant violation, never a
    /// silently wrong figure. With [`NoFaults`](cmpsim_faults::NoFaults)
    /// the report equals [`replay`](CoSimulation::replay)'s.
    ///
    /// # Errors
    ///
    /// [`CoSimError::Invariant`] for a bad cache geometry or a report
    /// that fails self-validation; [`CoSimError::Protocol`] if the
    /// sampler clock ran backwards.
    pub fn replay_checked(
        &self,
        stream: &CapturedStream,
        injector: &mut dyn FaultInjector,
    ) -> Result<CoSimReport, CoSimError> {
        let _t = ftrace::span("replay");
        let mut dh = Dragonhead::try_new(self.cfg.board(self.cfg.llc))?;
        cmpsim_dragonhead::replay(
            injected(stream.iter(), injector),
            std::slice::from_mut(&mut dh),
            stream.run().cycles,
        )?;
        let mut report = Self::report(stream.run().clone(), &dh);
        let faults = injector.faults_injected();
        if faults > 0 {
            report
                .metrics
                .count("faults_injected", &Labels::none(), faults);
            for (class, v) in injector.fault_counters().by_class() {
                if v > 0 {
                    let labels = Labels::none().with("class", class);
                    report.metrics.count("faults_injected_class", &labels, v);
                }
            }
        }
        {
            let _v = ftrace::span("validate");
            Validator::new(self.cfg.sample_period).validate(&report)?;
        }
        Ok(report)
    }

    fn report(run: RunSummary, dh: &Dragonhead) -> CoSimReport {
        let llc = dh.stats();
        let mpki = llc.mpki(run.instructions);
        let mut metrics = MetricRegistry::new();
        run.export_metrics(&mut metrics);
        dh.export_metrics(&mut metrics);
        CoSimReport {
            mpki,
            llc,
            per_core_llc: dh.per_core().to_vec(),
            samples: dh.samples().to_vec(),
            prefetch_fills: dh.prefetch_fills(),
            writebacks_to_memory: dh.writebacks_to_memory(),
            llc_bytes: dh.config().cache.size_bytes(),
            llc_line_bytes: dh.config().cache.line_bytes(),
            llc_resident_lines: dh.resident_lines(),
            metrics,
            run,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim_workloads::{Scale, WorkloadId};

    /// Several boards on the same live bus. Sound because the emulator
    /// is *passive*: it never affects the workload or the private
    /// caches.
    struct MultiSnoop<'a>(&'a mut [Dragonhead]);

    impl FsbListener for MultiSnoop<'_> {
        #[inline]
        fn transaction(&mut self, txn: &FsbTransaction) {
            for dh in self.0.iter_mut() {
                dh.observe(txn);
            }
        }
    }

    impl CoSimulation {
        /// The live-snoop oracle: runs `workload` once with every board
        /// in `boards` snooping the platform's bus directly — no
        /// recording, no trace codec, no batching. The equivalence
        /// tests below hold the stream pipeline to its reports.
        fn run_sweep(
            &self,
            workload: &dyn Workload,
            boards: &[DragonheadConfig],
        ) -> Vec<CoSimReport> {
            let mut platform = VirtualPlatform::new(self.cfg.platform_config(), workload);
            let mut boards: Vec<Dragonhead> = boards.iter().map(|&b| Dragonhead::new(b)).collect();
            let run = platform.run(&mut MultiSnoop(&mut boards));
            for dh in &mut boards {
                dh.flush(run.cycles).expect("platform cycles are monotone");
            }
            boards
                .iter()
                .map(|dh| Self::report(run.clone(), dh))
                .collect()
        }

        /// [`run_sweep`](CoSimulation::run_sweep) over this
        /// configuration's board for each LLC in `llcs`.
        fn run_sweep_llcs(
            &self,
            workload: &dyn Workload,
            llcs: &[CacheConfig],
        ) -> Vec<CoSimReport> {
            let boards: Vec<DragonheadConfig> = llcs.iter().map(|&l| self.cfg.board(l)).collect();
            self.run_sweep(workload, &boards)
        }
    }

    #[test]
    fn single_run_produces_consistent_report() {
        let wl = WorkloadId::Plsa.build(Scale::tiny(), 1);
        let cfg = CoSimConfig::new(2, 1 << 20).unwrap();
        let r = CoSimulation::new(cfg).run(wl.as_ref());
        assert!(r.run.instructions > 0);
        assert_eq!(r.llc.hits + r.llc.misses, r.llc.accesses);
        // Per-core LLC accesses sum to the total.
        let per_core_sum: u64 = r.per_core_llc.iter().map(|c| c.accesses).sum();
        assert_eq!(per_core_sum, r.llc.accesses);
        assert!(r.mpki >= 0.0);
    }

    #[test]
    fn sweep_matches_individual_runs() {
        let cfg = CoSimConfig::new(2, 1 << 20).unwrap();
        let sizes: Vec<CacheConfig> = [1u64 << 18, 1 << 20]
            .iter()
            .map(|&s| CacheConfig::lru(s, 64, 16).unwrap())
            .collect();
        let wl = WorkloadId::Viewtype.build(Scale::tiny(), 2);
        let sweep = CoSimulation::new(cfg).run_sweep_llcs(wl.as_ref(), &sizes);
        let wl2 = WorkloadId::Viewtype.build(Scale::tiny(), 2);
        let single = CoSimulation::new(cfg.with_llc(sizes[1])).run(wl2.as_ref());
        assert_eq!(sweep[1].llc.misses, single.llc.misses);
        assert_eq!(sweep[1].llc.hits, single.llc.hits);
    }

    #[test]
    fn bigger_cache_never_increases_misses_much() {
        // LRU is a stack algorithm: with identical line size and
        // associativity scaling, larger caches should not miss more
        // (allowing a tiny tolerance for set-mapping effects).
        let cfg = CoSimConfig::new(2, 1 << 20).unwrap();
        let sizes: Vec<CacheConfig> = [1u64 << 18, 1 << 19, 1 << 20, 1 << 21]
            .iter()
            .map(|&s| CacheConfig::lru(s, 64, 16).unwrap())
            .collect();
        let wl = WorkloadId::SvmRfe.build(Scale::tiny(), 3);
        let sweep = CoSimulation::new(cfg).run_sweep_llcs(wl.as_ref(), &sizes);
        for w in sweep.windows(2) {
            assert!(
                w[1].llc.misses as f64 <= w[0].llc.misses as f64 * 1.05,
                "misses grew with size: {} -> {}",
                w[0].llc.misses,
                w[1].llc.misses
            );
        }
    }

    #[test]
    fn report_carries_metrics_and_flushed_samples() {
        let wl = WorkloadId::Fimi.build(Scale::tiny(), 1);
        let mut cfg = CoSimConfig::new(2, 1 << 20).unwrap();
        cfg.sample_period = 1000;
        let r = CoSimulation::new(cfg).run(wl.as_ref());
        // The flush guarantees the series covers the end of the run.
        assert!(!r.samples.is_empty());
        assert_eq!(r.samples.last().unwrap().cycle, r.run.cycles);
        assert_eq!(r.samples.last().unwrap().accesses, r.llc.accesses);
        // Counters from both sides of the bus landed in the registry.
        assert_eq!(r.metrics.counter_total("instructions"), r.run.instructions);
        assert_eq!(r.metrics.counter_total("llc_misses"), r.llc.misses);
        assert_eq!(r.metrics.counter_total("core_llc_accesses"), r.llc.accesses);
    }

    #[test]
    fn replay_of_capture_matches_live_run() {
        let mut cfg = CoSimConfig::new(2, 1 << 20).unwrap();
        cfg.sample_period = 1000;
        let sim = CoSimulation::new(cfg);
        let wl = WorkloadId::Plsa.build(Scale::tiny(), 1);
        let live = sim.run_sweep_llcs(wl.as_ref(), &[cfg.llc]).remove(0);

        let stream = sim.capture(WorkloadId::Plsa, Scale::tiny(), 1);
        assert_eq!(stream.run().instructions, live.run.instructions);
        assert_eq!(stream.run().cycles, live.run.cycles);
        let replayed = sim.replay(&stream);

        assert_eq!(replayed.llc, live.llc);
        assert_eq!(replayed.samples, live.samples);
        assert_eq!(replayed.per_core_llc, live.per_core_llc);
        assert_eq!(replayed.run.per_core, live.run.per_core);
        assert_eq!(replayed.run.l1, live.run.l1);
        assert_eq!(replayed.run.l2, live.run.l2);
        assert_eq!(replayed.mpki.to_bits(), live.mpki.to_bits());
        assert_eq!(replayed.llc_resident_lines, live.llc_resident_lines);
    }

    #[test]
    fn replay_sweep_matches_run_sweep() {
        let cfg = CoSimConfig::new(2, 1 << 20).unwrap();
        let sim = CoSimulation::new(cfg);
        let sizes: Vec<CacheConfig> = [1u64 << 18, 1 << 19, 1 << 20]
            .iter()
            .map(|&s| CacheConfig::lru(s, 64, 16).unwrap())
            .collect();
        let wl = WorkloadId::Viewtype.build(Scale::tiny(), 2);
        let live = sim.run_sweep_llcs(wl.as_ref(), &sizes);
        let stream = sim.capture(WorkloadId::Viewtype, Scale::tiny(), 2);
        let replayed = sim.replay_sweep(&stream, &sizes);
        assert_eq!(replayed.len(), live.len());
        for (r, l) in replayed.iter().zip(&live) {
            assert_eq!(r.llc, l.llc);
            assert_eq!(r.samples, l.samples);
            assert_eq!(r.per_core_llc, l.per_core_llc);
            assert_eq!(r.mpki.to_bits(), l.mpki.to_bits());
        }
    }

    #[test]
    fn sharded_replay_matches_serial_at_any_shard_count() {
        let mut cfg = CoSimConfig::new(2, 1 << 20).unwrap();
        cfg.sample_period = 1000;
        let sim = CoSimulation::new(cfg);
        let sizes: Vec<CacheConfig> = [1u64 << 18, 1 << 19, 1 << 20, 1 << 21]
            .iter()
            .map(|&s| CacheConfig::lru(s, 64, 16).unwrap())
            .collect();
        let stream = sim.capture(WorkloadId::Viewtype, Scale::tiny(), 2);
        let serial = sim.replay_sweep_sharded(&stream, &sizes, 1);
        // 2 = even groups, 3 = uneven groups, 4 = one board per shard,
        // 9 > boards = clamped. All must reproduce the serial reports
        // exactly.
        for shards in [2usize, 3, 4, 9] {
            let sharded = sim.replay_sweep_sharded(&stream, &sizes, shards);
            assert_eq!(sharded.len(), serial.len());
            for (s, r) in sharded.iter().zip(&serial) {
                assert_eq!(s.llc, r.llc, "{shards} shards: llc differs");
                assert_eq!(s.samples, r.samples, "{shards} shards: samples differ");
                assert_eq!(s.per_core_llc, r.per_core_llc);
                assert_eq!(s.mpki.to_bits(), r.mpki.to_bits());
                assert_eq!(s.llc_resident_lines, r.llc_resident_lines);
                // The full metric registries — every per-bank and
                // per-core counter — serialize identically.
                assert_eq!(s.metrics.to_json(), r.metrics.to_json());
            }
        }
    }

    #[test]
    fn shard_count_never_changes_protocol_anomaly_counters() {
        // A fault-injected stream exercises the board's quarantine and
        // desync machinery; the shard count must not move a single
        // anomaly counter (every board still sees the full stream in
        // order, whatever thread drives it).
        let mut cfg = CoSimConfig::new(2, 1 << 20).unwrap();
        cfg.sample_period = 1000;
        let sim = CoSimulation::new(cfg);
        let clean = sim.capture(WorkloadId::Fimi, Scale::tiny(), 1);
        // Drops tear message pairs; corrupted addresses quarantine.
        // Neither perturbs cycle stamps, so the re-encoded stream stays
        // monotone and decodes exactly as written.
        let mut faults = cmpsim_faults::FaultPlan::none(44)
            .with_drop(0.03)
            .with_corrupt_addr(0.03)
            .build();
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        let mut out = Vec::new();
        for txn in clean.iter() {
            faults.inject(&txn, &mut out);
            for t in out.drain(..) {
                w.write(&t).unwrap();
            }
        }
        faults.finish(&mut out);
        for t in out.drain(..) {
            w.write(&t).unwrap();
        }
        assert!(faults.faults_injected() > 0, "chaos plan never fired");
        let n = w.count();
        let bytes = w.finish().unwrap();
        let key = JobKey::new("chaos-shards").field("workload", "FIMI");
        let faulted = CapturedStream::new(&key, bytes, n, clean.run().clone());

        let sizes: Vec<CacheConfig> = [1u64 << 18, 1 << 19, 1 << 20]
            .iter()
            .map(|&s| CacheConfig::lru(s, 64, 16).unwrap())
            .collect();
        let serial = sim.replay_sweep_sharded(&faulted, &sizes, 1);
        let anomalies = |r: &CoSimReport| {
            r.metrics.counter_total("desyncs_detected")
                + r.metrics.counter_total("transactions_quarantined")
                + r.metrics.counter_total("cycle_regressions")
        };
        assert!(
            serial.iter().any(|r| anomalies(r) > 0),
            "fault plan produced no counted anomalies — the test is vacuous"
        );
        for shards in [2usize, 3, 7] {
            let sharded = sim.replay_sweep_sharded(&faulted, &sizes, shards);
            for (s, r) in sharded.iter().zip(&serial) {
                assert_eq!(
                    anomalies(s),
                    anomalies(r),
                    "{shards} shards moved anomalies"
                );
                assert_eq!(s.llc, r.llc);
                assert_eq!(s.samples, r.samples);
                assert_eq!(s.metrics.to_json(), r.metrics.to_json());
            }
        }
    }

    #[test]
    fn every_workload_replays_like_the_live_bus_at_any_shard_count() {
        let mut cfg = CoSimConfig::new(2, 1 << 20).unwrap();
        cfg.sample_period = 1000;
        let sim = CoSimulation::new(cfg);
        let prefetching = CoSimulation::new(cfg.with_prefetch(StrideConfig::default()));
        let small = CacheConfig::lru(1 << 18, 64, 16).unwrap();
        let big = CacheConfig::lru(1 << 20, 64, 16).unwrap();
        let wide = CacheConfig::lru(1 << 19, 128, 16).unwrap();
        // Four boards on one live bus: two LRU sizes, a 128 B-line
        // board, and a prefetch-on board. Replay reaches the same four
        // through two sweeps, since the prefetcher is per configuration.
        let boards = [
            cfg.board(small),
            cfg.board(big),
            cfg.board(wide),
            prefetching.cfg.board(small),
        ];
        for w in WorkloadId::all() {
            let wl = w.build(Scale::tiny(), 3);
            let live = sim.run_sweep(wl.as_ref(), &boards);
            let stream = sim.capture(w, Scale::tiny(), 3);
            assert_eq!(stream.run().instructions, live[0].run.instructions);
            for shards in [1usize, 3] {
                let mut replayed = sim.replay_sweep_sharded(&stream, &[small, big, wide], shards);
                replayed.extend(prefetching.replay_sweep_sharded(&stream, &[small], shards));
                assert_eq!(replayed.len(), live.len());
                for (i, (r, l)) in replayed.iter().zip(&live).enumerate() {
                    let tag = format!("{w}, {shards} shards, board {i}");
                    assert_eq!(r.llc, l.llc, "{tag}: llc differs");
                    assert_eq!(r.samples, l.samples, "{tag}: samples differ");
                    assert_eq!(r.per_core_llc, l.per_core_llc, "{tag}: per-core");
                    assert_eq!(r.mpki.to_bits(), l.mpki.to_bits(), "{tag}: mpki");
                    assert_eq!(r.metrics.to_json(), l.metrics.to_json(), "{tag}: metrics");
                }
            }
        }
    }

    #[test]
    fn empty_sweep_replays_nothing() {
        let sim = CoSimulation::new(CoSimConfig::new(2, 1 << 20).unwrap());
        let stream = sim.capture(WorkloadId::Plsa, Scale::tiny(), 1);
        assert!(sim.replay_sweep_sharded(&stream, &[], 4).is_empty());
        assert!(sim.replay_sweep_sharded(&stream, &[], 0).is_empty());
    }

    #[test]
    fn stream_key_ignores_board_side_parameters() {
        let base = CoSimConfig::new(2, 1 << 20).unwrap();
        let sim = CoSimulation::new(base);
        let key = sim.stream_key(WorkloadId::Fimi, Scale::tiny(), 1);
        // Board-side knobs (LLC geometry, banks, sampling, prefetch)
        // cannot change what crosses the bus: same key.
        let mut board_side = base.with_llc(CacheConfig::lru(1 << 22, 128, 8).unwrap());
        board_side.banks = 8;
        board_side.sample_period = 123;
        let same = CoSimulation::new(board_side).stream_key(WorkloadId::Fimi, Scale::tiny(), 1);
        assert_eq!(key.canonical(), same.canonical());
        // Platform-side knobs do: different key.
        let mut noisy = base;
        noisy.host_noise = Some(HostNoiseConfig {
            transactions_per_switch: 4,
        });
        let diff = CoSimulation::new(noisy).stream_key(WorkloadId::Fimi, Scale::tiny(), 1);
        assert_ne!(key.canonical(), diff.canonical());
        assert_ne!(
            key.canonical(),
            sim.stream_key(WorkloadId::Fimi, Scale::tiny(), 2)
                .canonical()
        );
    }

    #[test]
    fn broker_reuses_one_capture_across_replays() {
        let cfg = CoSimConfig::new(1, 1 << 20).unwrap();
        let sim = CoSimulation::new(cfg);
        let broker = crate::capture::CaptureBroker::in_memory();
        let a = sim.captured(&broker, WorkloadId::Fimi, Scale::tiny(), 1);
        let b = sim.captured(&broker, WorkloadId::Fimi, Scale::tiny(), 1);
        assert!(Arc::ptr_eq(&a, &b));
        let counters = broker.counters();
        assert_eq!((counters.captures, counters.memory_reuses), (1, 1));
    }

    #[test]
    fn run_counts_wiring() {
        let wl = WorkloadId::Plsa.build(Scale::tiny(), 4);
        let cfg = CoSimConfig::new(1, 1 << 20).unwrap();
        let r = CoSimulation::new(cfg).run(wl.as_ref());
        let c = r.run_counts();
        assert_eq!(c.instructions, r.run.instructions);
        assert_eq!(c.mem_fills, r.llc.misses);
        assert_eq!(c.threads, 1);
    }
}

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
use cmpsim_telemetry::trace::{self as ftrace, Lane, OpenSpan};
use cmpsim_telemetry::{Labels, MetricRegistry};
use cmpsim_trace::file::TraceWriter;
use cmpsim_trace::FsbTransaction;
use cmpsim_workloads::{Scale, Workload, WorkloadId};
use std::borrow::Borrow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Process-wide sweep-replay shard count, default 1 (serial).
///
/// Sweep boards are built inside the experiment types, far from any
/// CLI, and sharding never changes results (byte-identical at any
/// count — `tests/replay_equivalence.rs` pins it), so the shard count
/// is ambient tuning state rather than threaded through every
/// experiment constructor. Binaries set it once from `--replay-shards`.
static REPLAY_SHARDS: AtomicUsize = AtomicUsize::new(1);

/// Sets the process-wide shard count used by [`CoSimulation::sweep`]
/// and [`CoSimulation::replay_sweep`]. Zero and one both mean serial.
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
/// recorded, and passive boards observe it batch by batch. When the
/// stream has to be recorded, the boards watch it live, on their own
/// threads, while the platform runs ([`sweep`](CoSimulation::sweep),
/// [`run`](CoSimulation::run)); a stream recorded earlier is replayed
/// into them ([`replay_sweep_sharded`](CoSimulation::replay_sweep_sharded)).
/// Fault injection is an adapter on the decoded stream
/// ([`replay_checked`](CoSimulation::replay_checked)).
#[derive(Debug, Clone, Copy)]
pub struct CoSimulation {
    cfg: CoSimConfig,
}

/// Batches out with the board groups at once: one their boards are
/// observing and one queued behind it. With the one being recorded,
/// a recording holds at most three batch buffers, whatever the number
/// of groups.
const IN_FLIGHT: usize = 2;

/// How long either end of a feed polls for the other before it blocks.
/// The recorder and a board group hand over a batch about once a
/// millisecond. A thread that blocks on every handover lets the OS idle
/// its CPU, and waking it costs about as long as a batch takes — the
/// two sides then end up taking turns instead of running together. So a
/// waiting end polls for a little longer than one batch, yielding to
/// any other runnable thread, and only then blocks.
const POLL: Duration = Duration::from_millis(2);

/// Receives from `rx`, polling for up to [`POLL`] before blocking;
/// `None` once the sender is gone.
fn recv_polling<T>(rx: &Receiver<T>) -> Option<T> {
    let start = Instant::now();
    loop {
        match rx.try_recv() {
            Ok(v) => return Some(v),
            Err(TryRecvError::Disconnected) => return None,
            Err(TryRecvError::Empty) if start.elapsed() < POLL => std::thread::yield_now(),
            Err(TryRecvError::Empty) => return rx.recv().ok(),
        }
    }
}

/// One recorded batch, shared by every board group watching the bus.
type Batch = Arc<Vec<FsbTransaction>>;

/// The recorder's end of one board group's batch channel.
struct Feed {
    /// Recorded batches, to the group.
    full: SyncSender<Batch>,
    /// The group's handles on observed batches, back in order.
    done: Receiver<Batch>,
}

/// A batch a board group is observing. Dropping it, once the group's
/// boards are done with it, hands the group's handle back to the
/// recorder.
struct Loaned<'a> {
    batch: Option<Batch>,
    home: &'a Sender<Batch>,
}

impl AsRef<[FsbTransaction]> for Loaned<'_> {
    fn as_ref(&self) -> &[FsbTransaction] {
        self.batch.as_ref().map_or(&[], |b| b.as_slice())
    }
}

impl Drop for Loaned<'_> {
    fn drop(&mut self) {
        // After the recorder is done nobody takes handles back; the
        // batch is then simply freed.
        if let Some(batch) = self.batch.take() {
            let _ = self.home.send(batch);
        }
    }
}

/// The tape deck: a listener that records the exact FSB stream in the
/// compact trace encoding and hands it, batch by batch, to the board
/// groups watching the bus.
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
    /// One feed per watching board group; none for a plain capture.
    feeds: Vec<Feed>,
    /// The batch being recorded for `feeds`.
    filling: Vec<FsbTransaction>,
    /// Batches out with the groups, oldest first; at most [`IN_FLIGHT`].
    out: VecDeque<Batch>,
}

impl Recorder {
    fn new(feeds: Vec<Feed>) -> Self {
        Recorder {
            writer: TraceWriter::new(Vec::new()).expect("writing a trace to memory cannot fail"),
            unaligned: 0,
            feeds,
            filling: Vec::new(),
            out: VecDeque::with_capacity(IN_FLIGHT),
        }
    }

    /// Sends the batch being recorded to every group and starts the
    /// next one, in the oldest batch's buffer once [`IN_FLIGHT`] are out.
    ///
    /// A group that is gone has panicked. Every feed is then dropped, so
    /// the other groups end too and the recording runs to completion
    /// unwatched; the scope that joins the groups re-raises the panic.
    fn ship(&mut self) {
        let next = if self.out.len() < IN_FLIGHT {
            Some(Vec::with_capacity(cmpsim_dragonhead::BATCH_TRANSACTIONS))
        } else {
            self.reclaim()
        };
        let Some(mut next) = next else {
            return self.stop();
        };
        next.clear();
        let batch = Arc::new(std::mem::replace(&mut self.filling, next));
        if !self
            .feeds
            .iter()
            .all(|feed| feed.full.send(Arc::clone(&batch)).is_ok())
        {
            return self.stop();
        }
        self.out.push_back(batch);
    }

    /// Waits until every group has handed back the oldest batch out and
    /// returns its buffer; `None` if a group is gone. Groups observe and
    /// hand back batches in order, so each group's next handle is on
    /// the oldest batch.
    fn reclaim(&mut self) -> Option<Vec<FsbTransaction>> {
        let oldest = self.out.pop_front()?;
        for feed in &self.feeds {
            drop(recv_polling(&feed.done)?);
        }
        Arc::try_unwrap(oldest).ok()
    }

    fn stop(&mut self) {
        self.feeds.clear();
        self.out.clear();
    }

    /// Ships the last, partial batch and ends every group's stream.
    fn close_feeds(&mut self) {
        if !self.filling.is_empty() && !self.feeds.is_empty() {
            self.ship();
        }
        self.stop();
    }
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
        if !self.feeds.is_empty() {
            self.filling.push(*txn);
            if self.filling.len() == cmpsim_dragonhead::BATCH_TRANSACTIONS {
                self.ship();
            }
        }
    }
}

/// Splits `boards` into at most `shards` contiguous, equal groups (the
/// last may be shorter).
fn board_groups(boards: &mut [Dragonhead], shards: usize) -> std::slice::ChunksMut<'_, Dragonhead> {
    let len = boards.len().div_ceil(shards.max(1)).max(1);
    boards.chunks_mut(len)
}

/// The `board-replay` span of board group `shard` on a worker thread.
/// Worker threads have no tracing context, so the span goes on the
/// spawning thread's lane (`Lane` clones share one buffer), under the
/// parent `ctx` was snapshotted at, so `cmpsim report` shows per-group
/// replay time.
fn shard_span(ctx: &Option<(Lane, String, u64)>, shard: usize, boards: usize) -> Option<OpenSpan> {
    ctx.as_ref().map(|(lane, cell, parent)| {
        let mut s = lane.begin("board-replay", cell, *parent);
        s.arg("shard", shard as u64);
        s.arg("boards", boards as u64);
        s
    })
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
    /// stream is recorded into memory while this configuration's board
    /// watches it on a thread of its own.
    pub fn run(&self, workload: &dyn Workload) -> CoSimReport {
        // The key only labels the recording: an instance has no
        // scale/seed identity, and the stream is never stored.
        let key = JobKey::new("fsb-stream").field("workload", workload.id());
        let mut boards = self.boards(&[self.cfg.llc]);
        let (_, reports) = self.watch(&mut boards, 1, |feeds| self.record(&key, workload, feeds()));
        reports
            .and_then(|mut r| r.pop())
            .expect("a recording feeds its board")
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
        self.capture_fed(workload, scale, seed, &mut Vec::new)
    }

    /// [`capture`](CoSimulation::capture), with the board groups that
    /// `feeds` starts watching the recording. `feeds` is called once
    /// the workload is built, so the groups do not wait through the
    /// build.
    fn capture_fed(
        &self,
        workload: WorkloadId,
        scale: Scale,
        seed: u64,
        feeds: &mut dyn FnMut() -> Vec<Feed>,
    ) -> CapturedStream {
        let _t = ftrace::span("capture");
        let wl = {
            let _b = ftrace::span("build");
            workload.build(scale, seed)
        };
        self.record(
            &self.stream_key(workload, scale, seed),
            wl.as_ref(),
            feeds(),
        )
    }

    /// Records `workload`'s FSB stream under `key`, handing it batch by
    /// batch to `feeds` as it goes.
    fn record(&self, key: &JobKey, workload: &dyn Workload, feeds: Vec<Feed>) -> CapturedStream {
        let mut rec = Recorder::new(feeds);
        let run = {
            let _r = ftrace::span("record");
            let run = VirtualPlatform::new(self.cfg.platform_config(), workload).run(&mut rec);
            rec.close_feeds();
            run
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

    /// Runs `{workload, scale, seed}` into one board per LLC in `llcs`,
    /// returning one report per configuration, in order.
    ///
    /// If `broker` already holds the stream (in memory or in its
    /// on-disk store), this is
    /// [`replay_sweep`](CoSimulation::replay_sweep). Otherwise the
    /// calling thread records the stream while the boards, split into
    /// `min(`[`replay_shards`]`, boards)` groups on scoped threads,
    /// observe it batch by batch as it is recorded. Either way every
    /// board sees the same transactions over the same batch edges, so
    /// the reports are byte-identical.
    pub fn sweep(
        &self,
        broker: &CaptureBroker,
        workload: WorkloadId,
        scale: Scale,
        seed: u64,
        llcs: &[CacheConfig],
    ) -> Vec<CoSimReport> {
        self.sweep_sharded(broker, workload, scale, seed, llcs, replay_shards())
    }

    /// [`sweep`](CoSimulation::sweep) with an explicit shard count.
    fn sweep_sharded(
        &self,
        broker: &CaptureBroker,
        workload: WorkloadId,
        scale: Scale,
        seed: u64,
        llcs: &[CacheConfig],
        shards: usize,
    ) -> Vec<CoSimReport> {
        let key = self.stream_key(workload, scale, seed);
        let mut boards = self.boards(llcs);
        let (stream, reports) = self.watch(&mut boards, shards, |feeds| {
            broker.stream(&key, || self.capture_fed(workload, scale, seed, feeds))
        });
        reports.unwrap_or_else(|| self.replay_boards(&stream, boards, shards))
    }

    /// Runs `record` inside a thread scope. `record` gets a function
    /// that splits `boards` into at most `shards` groups, starts one
    /// scoped thread per group, and returns the feeds to record into;
    /// each thread drives its boards over the batches of its feed.
    ///
    /// If `record` called that function, every group has observed the
    /// whole stream once it returns; the boards are then flushed at the
    /// stream's final cycle and their reports come back with the
    /// stream. Otherwise the boards are untouched and no report comes
    /// back.
    ///
    /// Nothing hangs on a failure. A panic in `record` drops the feeds,
    /// which ends every group before the scope re-raises it. A group
    /// that panics makes the recorder stop feeding; the recording runs
    /// to completion, and then the group's panic is re-raised here.
    fn watch<S: Borrow<CapturedStream>>(
        &self,
        boards: &mut [Dragonhead],
        shards: usize,
        record: impl FnOnce(&mut dyn FnMut() -> Vec<Feed>) -> S,
    ) -> (S, Option<Vec<CoSimReport>>) {
        let ctx = ftrace::snapshot();
        let mut unwatched = Some(&mut *boards);
        let (stream, replay_span) = std::thread::scope(|scope| {
            let mut groups = Vec::new();
            let stream = record(&mut || {
                let boards = unwatched.take().expect("a stream is recorded once");
                board_groups(boards, shards)
                    .enumerate()
                    .map(|(shard, group)| {
                        let (full, batches) = sync_channel(IN_FLIGHT);
                        let (home, done) = channel();
                        let ctx = &ctx;
                        groups.push(scope.spawn(move || {
                            let _span = shard_span(ctx, shard, group.len());
                            let loaned =
                                std::iter::from_fn(|| recv_polling(&batches)).map(|batch| Loaned {
                                    batch: Some(batch),
                                    home: &home,
                                });
                            cmpsim_dragonhead::observe_batches(loaned, group)
                        }));
                        Feed { full, done }
                    })
                    .collect()
            });
            // What is left once the stream is sealed — the groups'
            // tail, the flush, the reports — is this sweep's replay.
            let replay = unwatched.is_none().then(|| ftrace::span("replay"));
            // A group's panic comes first: it is why the others were cut
            // off. If one panicked, the scope joins the rest.
            let observed = groups
                .into_iter()
                .map(|group| group.join())
                .collect::<Result<Vec<u64>, _>>()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            let transactions = stream.borrow().transactions();
            assert!(
                observed.iter().all(|&n| n == transactions),
                "a board group missed part of the stream it watched"
            );
            (stream, replay)
        });
        let Some(_replay) = replay_span else {
            return (stream, None);
        };
        let run = stream.borrow().run();
        cmpsim_dragonhead::flush_all(boards, run.cycles).expect("platform cycles are monotone");
        let reports = Self::reports(run, boards);
        (stream, Some(reports))
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
        self.replay_boards(stream, self.boards(llcs), shards)
    }

    /// One fresh board per LLC in `llcs`.
    fn boards(&self, llcs: &[CacheConfig]) -> Vec<Dragonhead> {
        llcs.iter()
            .map(|&llc| Dragonhead::new(self.cfg.board(llc)))
            .collect()
    }

    /// The body of [`replay_sweep_sharded`](CoSimulation::replay_sweep_sharded),
    /// over boards built by the caller.
    fn replay_boards(
        &self,
        stream: &CapturedStream,
        mut boards: Vec<Dragonhead>,
        shards: usize,
    ) -> Vec<CoSimReport> {
        let _t = ftrace::span("replay");
        let final_cycle = stream.run().cycles;
        let groups: Vec<&mut [Dragonhead]> = board_groups(&mut boards, shards).collect();
        // One group runs inline under the caller's tracing context,
        // where `dragonhead::replay` opens the `board-replay` span
        // itself; worker threads open their own.
        let ctx = (groups.len() > 1).then(ftrace::snapshot).flatten();
        cmpsim_runner::scoped_shards(groups, |shard, group: &mut [Dragonhead]| {
            let _span = shard_span(&ctx, shard, group.len());
            cmpsim_dragonhead::replay(stream.iter(), group, final_cycle)
                .expect("captured platform cycles are monotone");
        });
        Self::reports(stream.run(), &boards)
    }

    fn reports(run: &RunSummary, boards: &[Dragonhead]) -> Vec<CoSimReport> {
        boards
            .iter()
            .map(|dh| Self::report(run.clone(), dh))
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

    /// Asserts that `got` reproduces the live oracle `live` exactly.
    fn assert_matches_live(got: &[CoSimReport], live: &[CoSimReport], tag: &str) {
        assert_eq!(got.len(), live.len(), "{tag}: report count");
        for (i, (r, l)) in got.iter().zip(live).enumerate() {
            let tag = format!("{tag}, board {i}");
            assert_eq!(r.llc, l.llc, "{tag}: llc differs");
            assert_eq!(r.samples, l.samples, "{tag}: samples differ");
            assert_eq!(r.per_core_llc, l.per_core_llc, "{tag}: per-core");
            assert_eq!(r.mpki.to_bits(), l.mpki.to_bits(), "{tag}: mpki");
            assert_eq!(r.metrics.to_json(), l.metrics.to_json(), "{tag}: metrics");
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
        // board, and a prefetch-on board. The pipeline reaches the same
        // four through two sweeps, since the prefetcher is per
        // configuration.
        let boards = [
            cfg.board(small),
            cfg.board(big),
            cfg.board(wide),
            prefetching.cfg.board(small),
        ];
        let (scale, seed) = (Scale::tiny(), 3);
        let root = std::env::temp_dir().join(format!("cmpsim_cosim_sweep_{}", std::process::id()));
        for w in WorkloadId::all() {
            let wl = w.build(scale, seed);
            let live = sim.run_sweep(wl.as_ref(), &boards);
            let stream = sim.capture(w, scale, seed);
            assert_eq!(stream.run().instructions, live[0].run.instructions);
            let key = sim.stream_key(w, scale, seed);
            for shards in [1usize, 3] {
                let replayed = {
                    let mut r = sim.replay_sweep_sharded(&stream, &[small, big, wide], shards);
                    r.extend(prefetching.replay_sweep_sharded(&stream, &[small], shards));
                    r
                };
                assert_matches_live(&replayed, &live, &format!("{w}, {shards} shards, replay"));

                // `plain` feeds the three plain boards, `pf` the
                // prefetching one; each is its own broker, so on the
                // first call both sweeps record with their boards
                // watching.
                let sweep = |plain: &CaptureBroker, pf: &CaptureBroker| {
                    let mut r =
                        sim.sweep_sharded(plain, w, scale, seed, &[small, big, wide], shards);
                    r.extend(prefetching.sweep_sharded(pf, w, scale, seed, &[small], shards));
                    r
                };
                let tag = |path: &str| format!("{w}, {shards} shards, {path}");
                let (plain, pf) = (CaptureBroker::in_memory(), CaptureBroker::in_memory());
                assert_matches_live(&sweep(&plain, &pf), &live, &tag("cold"));
                assert_eq!((plain.counters().captures, pf.counters().captures), (1, 1));
                assert_matches_live(&sweep(&plain, &pf), &live, &tag("memory reuse"));
                assert_eq!(plain.counters().memory_reuses, 1);
                assert_eq!(pf.counters().memory_reuses, 1);
                let kept = plain.stream(&key, || panic!("must reuse, not capture"));
                assert_eq!(
                    kept.encoded_bytes(),
                    stream.encoded_bytes(),
                    "{w}: cold bytes"
                );

                // A cold store-backed sweep fills the store while its
                // boards watch; a fresh broker over it then loads.
                let _ = std::fs::remove_dir_all(&root);
                let filling = CaptureBroker::with_store(&root);
                assert_matches_live(&sweep(&filling, &filling), &live, &tag("store fill"));
                let store = filling.store().unwrap();
                assert_eq!(store.len(), 1, "{w}: the cold sweep stored its stream");
                let stored = store.load(&key).expect("stored entry loads");
                assert_eq!(
                    stored.encoded_bytes(),
                    stream.encoded_bytes(),
                    "{w}: stored bytes"
                );
                let loading = CaptureBroker::with_store(&root);
                assert_matches_live(&sweep(&loading, &loading), &live, &tag("disk load"));
                assert_eq!(
                    (loading.counters().captures, loading.counters().disk_loads),
                    (0, 1)
                );
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A workload whose kernels panic after `steps` steps each.
    #[derive(Debug)]
    struct Doomed {
        inner: Box<dyn Workload>,
        steps: u32,
    }

    #[derive(Debug)]
    struct DoomedKernel {
        inner: Box<dyn cmpsim_workloads::ThreadKernel>,
        left: u32,
    }

    impl cmpsim_workloads::ThreadKernel for DoomedKernel {
        fn step(&mut self, t: &mut cmpsim_workloads::KernelTracer<'_>) -> bool {
            assert!(self.left > 0, "kernel failed mid-run");
            self.left -= 1;
            self.inner.step(t)
        }
    }

    impl Workload for Doomed {
        fn id(&self) -> WorkloadId {
            self.inner.id()
        }
        fn make_threads(&self, threads: usize) -> Vec<Box<dyn cmpsim_workloads::ThreadKernel>> {
            self.inner
                .make_threads(threads)
                .into_iter()
                .map(|inner| {
                    Box::new(DoomedKernel {
                        inner,
                        left: self.steps,
                    }) as Box<dyn cmpsim_workloads::ThreadKernel>
                })
                .collect()
        }
        fn footprint(&self) -> u64 {
            self.inner.footprint()
        }
        fn dataset(&self) -> cmpsim_workloads::DatasetSpec {
            self.inner.dataset()
        }
    }

    #[test]
    fn a_platform_panic_while_boards_watch_surfaces_without_hanging() {
        let sim = CoSimulation::new(CoSimConfig::new(2, 1 << 20).unwrap());
        // Tiny MDS on two cores puts ~51 k transactions on the bus;
        // five steps per kernel are about half of them, so several
        // batches already went to the board thread.
        let doomed = Doomed {
            inner: WorkloadId::Mds.build(Scale::tiny(), 1),
            steps: 5,
        };
        let (done, outcome) = channel();
        std::thread::spawn(move || {
            let result =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run(&doomed)));
            let message = result.err().and_then(|p| {
                p.downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            });
            let _ = done.send(message);
        });
        let message = outcome
            .recv_timeout(Duration::from_secs(120))
            .expect("run deadlocked after the platform panicked");
        assert_eq!(message.as_deref(), Some("kernel failed mid-run"));
    }

    #[test]
    fn a_recorder_stops_feeding_once_its_group_is_gone() {
        let txn = |i: u64| {
            FsbTransaction::new(
                i,
                cmpsim_trace::FsbKind::ReadLine,
                cmpsim_trace::Addr::new(64 * i),
            )
        };
        let (full, batches) = sync_channel(IN_FLIGHT);
        let (home, done) = channel();
        let mut rec = Recorder::new(vec![Feed { full, done }]);
        let batch = cmpsim_dragonhead::BATCH_TRANSACTIONS as u64;
        for i in 0..2 * batch {
            rec.transaction(&txn(i));
        }
        assert_eq!(rec.out.len(), IN_FLIGHT, "both batches went out");
        // The group dies holding both: the third batch can neither
        // reclaim a buffer nor be sent.
        drop((batches, home));
        for i in 2 * batch..3 * batch {
            rec.transaction(&txn(i));
        }
        assert!(rec.feeds.is_empty(), "a gone group must cut the feeds");
        // Recording carries on unwatched.
        rec.transaction(&txn(3 * batch));
        assert_eq!(rec.writer.count(), 3 * batch + 1);
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

//! Replaying a recorded FSB stream into one or more boards.
//!
//! Dragonhead is a *passive* snooper: it never affects the workload or
//! the platform's private caches, so any number of emulated boards can
//! legally observe the same bus stream. The paper re-ran the workload
//! per LLC configuration only because it had a single FPGA board; a
//! recorded stream lifts that constraint — one pass drives N
//! independently-configured boards simultaneously (cache-size sweeps,
//! line-size sweeps, replacement/sharing ablations), and per-core
//! attribution survives because co-simulation `Message` transactions
//! are part of the stream.
//!
//! Replay is observationally identical to live snooping: each board
//! sees the exact transaction sequence in order, so its counters,
//! samples, and per-core statistics are bit-for-bit those of a live
//! run. The `cmpsim-core` crate pins this equivalence end to end.

use crate::emulator::Dragonhead;
use crate::sampler::SamplerError;
use cmpsim_telemetry::trace as ftrace;
use cmpsim_trace::FsbTransaction;

/// Transactions per broadcast batch: each board consumes the stream in
/// runs of this many transactions, so its tag arrays stay hot for a
/// whole run instead of being evicted between boards on every
/// transaction. Batch boundaries are fixed relative to the stream —
/// never to the board grouping — which is part of the determinism
/// argument for sharded replay (DESIGN.md §17).
pub const BATCH_TRANSACTIONS: usize = 4096;

/// Drives every board in `boards` over `stream`, in order, then closes
/// each board's sample series at `final_cycle` (the platform run's
/// total cycle count, exactly as a live run's teardown does).
///
/// Returns the number of transactions replayed.
///
/// # Errors
///
/// Propagates the first [`SamplerError`] from a board flush — possible
/// only if `final_cycle` is behind the stream's newest sample boundary,
/// i.e. the stream and the claimed run length disagree. Every board is
/// still flushed (see [`flush_all`]).
pub fn replay<I>(
    stream: I,
    boards: &mut [Dragonhead],
    final_cycle: u64,
) -> Result<u64, SamplerError>
where
    I: IntoIterator<Item = FsbTransaction>,
{
    let _t = ftrace::span("board-replay");
    let n = observe_batches(batches(stream), boards);
    flush_all(boards, final_cycle)?;
    Ok(n)
}

/// Cuts `stream` into [`BATCH_TRANSACTIONS`]-sized batches (the last
/// one may be shorter).
fn batches<I>(stream: I) -> impl Iterator<Item = Vec<FsbTransaction>>
where
    I: IntoIterator<Item = FsbTransaction>,
{
    let mut stream = stream.into_iter();
    std::iter::from_fn(move || {
        let mut batch = Vec::with_capacity(BATCH_TRANSACTIONS);
        batch.extend(stream.by_ref().take(BATCH_TRANSACTIONS));
        (!batch.is_empty()).then_some(batch)
    })
}

/// The batch loop: drives every board in `boards` over each batch in
/// turn, and returns the number of transactions observed. The boards'
/// sample series stay open; close them with [`flush_all`].
///
/// A batch is anything that lends a transaction slice, so the same
/// loop runs over a decoded stream ([`replay`]) and over batches a
/// recorder hands over while the platform is still running.
pub fn observe_batches<B>(batches: impl IntoIterator<Item = B>, boards: &mut [Dragonhead]) -> u64
where
    B: AsRef<[FsbTransaction]>,
{
    let mut n = 0u64;
    for batch in batches {
        let batch = batch.as_ref();
        for board in boards.iter_mut() {
            board.observe_batch(batch);
        }
        n += batch.len() as u64;
    }
    n
}

/// Flushes every board at `final_cycle`, returning the first error —
/// but only after attempting all of them. A mid-sweep flush failure
/// must not leave later boards with their sample-series tails missing:
/// a retrying caller could otherwise silently reuse half-flushed
/// boards.
///
/// # Errors
///
/// The first board's [`SamplerError`], if any board's series is already
/// past `final_cycle`.
pub fn flush_all(boards: &mut [Dragonhead], final_cycle: u64) -> Result<(), SamplerError> {
    let mut first_err = None;
    for board in boards.iter_mut() {
        if let Err(e) = board.flush(final_cycle) {
            first_err.get_or_insert(e);
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emulator::DragonheadConfig;
    use cmpsim_cache::CacheConfig;
    use cmpsim_trace::{Addr, FsbKind, Message, MessageCodec, Pcg32};

    /// A plausible co-simulation stream: start, core announcements,
    /// data traffic, counter messages, stop.
    fn sample_stream() -> Vec<FsbTransaction> {
        let mut rng = Pcg32::seed(11);
        let mut txns = Vec::new();
        let mut cycle = 10u64;
        txns.extend(MessageCodec::encode(Message::Start, cycle));
        for burst in 0..40u64 {
            cycle += 5;
            txns.extend(MessageCodec::encode(
                Message::CoreId((burst % 4) as u32),
                cycle,
            ));
            for _ in 0..500 {
                cycle += rng.below(20) + 1;
                let kind = match rng.below(3) {
                    0 => FsbKind::ReadLine,
                    1 => FsbKind::ReadInvalidateLine,
                    _ => FsbKind::WriteLine,
                };
                // A 1 MiB working set: fits the big test cache, thrashes
                // the small one.
                txns.push(FsbTransaction::new(
                    cycle,
                    kind,
                    Addr::new(rng.below(1 << 20) & !63),
                ));
            }
            cycle += 3;
            txns.extend(MessageCodec::encode(
                Message::InstructionsRetired(burst * 100_000),
                cycle,
            ));
        }
        cycle += 2;
        txns.extend(MessageCodec::encode(Message::Stop, cycle));
        txns
    }

    fn board(size: u64) -> Dragonhead {
        let mut cfg = DragonheadConfig::new(CacheConfig::lru(size, 64, 16).unwrap());
        // Sample densely so the stream spans many boundaries.
        cfg.sample_period = 1_000;
        Dragonhead::new(cfg)
    }

    #[test]
    fn replay_matches_live_observation() {
        let stream = sample_stream();
        let final_cycle = stream.last().unwrap().cycle + 100;

        let mut live = board(1 << 20);
        for t in &stream {
            live.observe(t);
        }
        live.flush(final_cycle).unwrap();

        let mut boards = vec![board(1 << 20)];
        let n = replay(stream.iter().copied(), &mut boards, final_cycle).unwrap();
        assert_eq!(n, stream.len() as u64);
        assert_eq!(boards[0].stats(), live.stats());
        assert_eq!(boards[0].samples(), live.samples());
        assert_eq!(boards[0].per_core(), live.per_core());
    }

    #[test]
    fn boards_in_one_replay_are_independent() {
        let stream = sample_stream();
        let final_cycle = stream.last().unwrap().cycle + 100;

        // Three boards replayed together must equal three boards
        // replayed alone: passive observation cannot couple them.
        let sizes = [1u64 << 18, 1 << 20, 1 << 22];
        let mut together: Vec<Dragonhead> = sizes.iter().map(|&s| board(s)).collect();
        replay(stream.iter().copied(), &mut together, final_cycle).unwrap();

        for (i, &size) in sizes.iter().enumerate() {
            let mut alone = vec![board(size)];
            replay(stream.iter().copied(), &mut alone, final_cycle).unwrap();
            assert_eq!(together[i].stats(), alone[0].stats(), "board {i}");
            assert_eq!(together[i].samples(), alone[0].samples(), "board {i}");
        }
        // And a bigger cache actually behaves differently (the boards
        // were not accidentally identical).
        assert!(together[0].stats().misses > together[2].stats().misses);
    }

    #[test]
    fn flush_error_surfaces_from_replay() {
        let stream = sample_stream();
        let mut boards = vec![board(1 << 20)];
        // Closing the series before the stream's end must fail, not
        // silently truncate the sample series.
        assert!(replay(stream.iter().copied(), &mut boards, 1).is_err());
    }

    #[test]
    fn observe_batch_matches_per_transaction_observe() {
        let stream = sample_stream();
        let mut one_by_one = board(1 << 19);
        for t in &stream {
            one_by_one.observe(t);
        }
        let mut batched = board(1 << 19);
        for chunk in stream.chunks(997) {
            // Deliberately odd batch size: boundaries must not matter.
            batched.observe_batch(chunk);
        }
        assert_eq!(batched.stats(), one_by_one.stats());
        assert_eq!(batched.samples(), one_by_one.samples());
        assert_eq!(batched.per_core(), one_by_one.per_core());
        assert_eq!(
            batched.transactions_quarantined(),
            one_by_one.transactions_quarantined()
        );
    }

    #[test]
    fn board_groups_replayed_apart_match_one_group() {
        // Sharded sweep replay splits the boards into groups that each
        // walk the stream on their own; batch edges depend only on the
        // stream, so the split must not change any board.
        let stream = sample_stream();
        let final_cycle = stream.last().unwrap().cycle + 100;
        let sizes = [1u64 << 18, 1 << 19, 1 << 20, 1 << 22];

        let mut together: Vec<Dragonhead> = sizes.iter().map(|&s| board(s)).collect();
        let n1 = replay(stream.iter().copied(), &mut together, final_cycle).unwrap();

        let mut apart: Vec<Dragonhead> = sizes.iter().map(|&s| board(s)).collect();
        for group in apart.chunks_mut(3) {
            let n2 = replay(stream.iter().copied(), group, final_cycle).unwrap();
            assert_eq!(n1, n2);
        }
        for i in 0..sizes.len() {
            assert_eq!(together[i].stats(), apart[i].stats(), "board {i}");
            assert_eq!(together[i].samples(), apart[i].samples(), "board {i}");
            assert_eq!(together[i].per_core(), apart[i].per_core(), "board {i}");
        }
    }

    #[test]
    fn failed_flush_still_flushes_every_board() {
        let stream = sample_stream();
        let final_cycle = stream.last().unwrap().cycle + 100;
        // Board 0 samples densely, so flushing at cycle 1 is an error
        // for it; board 1 uses a period longer than the stream, so its
        // only sample comes from the flush itself.
        let mut sparse_cfg = DragonheadConfig::new(CacheConfig::lru(1 << 20, 64, 16).unwrap());
        sparse_cfg.sample_period = u64::MAX;
        let mut boards = vec![board(1 << 20), Dragonhead::new(sparse_cfg)];
        let err = replay(stream.iter().copied(), &mut boards, 1).unwrap_err();
        assert_eq!(err.cycle, 1);
        // The old code returned on board 0's error and never flushed
        // board 1, losing its entire (tail-only) sample series.
        assert_eq!(boards[1].samples().len(), 1);
        assert_eq!(boards[1].samples()[0].cycle, 1);
        // A successful flush at the true final cycle still works on
        // board 0 afterwards: the failed attempt poisoned nothing.
        assert!(boards[0].flush(final_cycle).is_ok());
    }
}

//! The traced half of the cmpsim benchmark.
//!
//! One process calls each layer's public functions on the same inputs
//! as the end-to-end run (`cmpsim grid`) and times every call from the
//! outside, so the per-layer numbers need no instrumentation inside the
//! program. The grid runner drives the cells, exactly as in `cmpsim
//! grid`; inside each cell the probe walks the pipeline one layer at a
//! time:
//!
//! build (workloads) → platform into a counting listener (softsdv, with
//! the private caches) → capture through the broker (trace encode, store
//! write or load) → one decode pass (trace) → 7-board replay
//! (dragonhead) → 1-board replay → sharded sweep at 1 and 2 shards
//! (runner) → validation of every report (core).
//!
//! ```text
//! cmpsim-perfbench-probe --cores 8 --workloads FIMI --scale 1/64 --seed 1
//!                        --store DIR --mode cold|warm
//! ```
//!
//! Prints one JSON object on stdout with the per-layer measures and, under
//! `results`, one entry per cell in the shape of `cmpsim grid`'s results
//! (workload and sweep points), with the cell's measures, errors and spans.

use cmpsim_core::cache::CacheConfig;
use cmpsim_core::dragonhead::{Dragonhead, DragonheadConfig};
use cmpsim_core::experiment::paper_cache_sizes;
use cmpsim_core::grid::{run_grid, GridSpec};
use cmpsim_core::runner::RunnerConfig;
use cmpsim_core::softsdv::{CountingListener, PlatformConfig, VirtualPlatform};
use cmpsim_core::tel::JsonValue;
use cmpsim_core::{
    CaptureBroker, CmpClass, CoSimConfig, CoSimulation, Scale, Validator, WorkloadId,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

struct Args {
    cmp: CmpClass,
    workloads: Vec<WorkloadId>,
    scale: Scale,
    seed: u64,
    store: PathBuf,
    warm: bool,
}

/// Shards of the sharded sweep replay, timed against one shard; at most
/// the 2 CPUs the benchmark's sizing assumes.
const SHARDS: usize = 2;

fn parse_args() -> Result<Args, String> {
    let mut cores = 8;
    let mut workloads = Vec::new();
    let mut scale = None;
    let mut seed = 1;
    let mut store = None;
    let mut warm = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--cores" => cores = val.parse().map_err(|_| "bad --cores")?,
            "--workloads" => {
                workloads = val
                    .split(',')
                    .map(|s| s.parse().map_err(|_| format!("unknown workload `{s}`")))
                    .collect::<Result<_, _>>()?;
            }
            "--scale" => {
                let n: u64 = val
                    .strip_prefix("1/")
                    .and_then(|n| n.parse().ok())
                    .filter(|n: &u64| n.is_power_of_two())
                    .ok_or("bad --scale (want 1/N, N a power of two)")?;
                scale = Some(Scale::with_shift(n.trailing_zeros()));
            }
            "--seed" => seed = val.parse().map_err(|_| "bad --seed")?,
            "--store" => store = Some(PathBuf::from(val)),
            "--mode" => {
                warm = match val.as_str() {
                    "cold" => false,
                    "warm" => true,
                    _ => return Err("bad --mode (want cold or warm)".into()),
                }
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    let cmp = CmpClass::all()
        .into_iter()
        .find(|c| c.cores() == cores)
        .ok_or("--cores must be 8, 16 or 32")?;
    if workloads.is_empty() {
        return Err("--workloads is required".into());
    }
    Ok(Args {
        cmp,
        workloads,
        scale: scale.ok_or("--scale is required")?,
        seed,
        store: store.ok_or("--store is required")?,
        warm,
    })
}

/// The timed calls of one cell, as (name, start, duration) in seconds
/// since the probe started.
struct Spans {
    epoch: Instant,
    list: Vec<JsonValue>,
}

impl Spans {
    fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed().as_secs_f64();
        self.list.push(JsonValue::object([
            ("name", JsonValue::from(name)),
            (
                "start_s",
                JsonValue::F64(start.duration_since(self.epoch).as_secs_f64()),
            ),
            ("dur_s", JsonValue::F64(dur)),
        ]));
        (out, dur)
    }
}

/// Walks one cell through every layer and returns its measurements,
/// curve and spans as the cell's grid payload.
fn probe_cell(args: &CellArgs, broker: &CaptureBroker, w: WorkloadId) -> JsonValue {
    let mut spans = Spans {
        epoch: args.epoch,
        list: Vec::new(),
    };
    let cell_start = Instant::now();
    let sizes = paper_cache_sizes(args.scale);
    let cfg = CoSimConfig::scaled(args.cmp.cores(), sizes[0], args.scale)
        .expect("paper sizes are valid geometries");
    let llcs: Vec<CacheConfig> = sizes
        .iter()
        .map(|&s| CacheConfig::lru(s, 64, 16).expect("paper sizes are valid"))
        .collect();
    let sim = CoSimulation::new(cfg);
    let mut errors: Vec<String> = Vec::new();

    // workloads + softsdv: only a cold cell runs the platform.
    let (mut build_s, mut platform_s) = (0.0, 0.0);
    let (mut instructions, mut fsb_txns) = (0, 0);
    if !args.warm {
        let (wl, t) = spans.time("workloads.build", || w.build(args.scale, args.seed));
        build_s = t;
        let mut counter = CountingListener::default();
        let pcfg = PlatformConfig::new(cfg.cores).with_hierarchy(cfg.hierarchy);
        let (run, t) = spans.time("softsdv.run", || {
            VirtualPlatform::new(pcfg, wl.as_ref()).run(&mut counter)
        });
        platform_s = t;
        instructions = run.instructions;
        fsb_txns = counter.data_transactions + counter.message_transactions;
    }

    // trace encode + core store write (cold), or core store load (warm).
    let key = sim.stream_key(w, args.scale, args.seed);
    let mut capture_s = 0.0;
    let mut captured = false;
    let (stream, broker_s) = spans.time("core.broker_stream", || {
        broker.stream(&key, || {
            captured = true;
            let start = Instant::now();
            let s = sim.capture(w, args.scale, args.seed);
            capture_s = start.elapsed().as_secs_f64();
            s
        })
    });
    if args.warm && captured {
        errors.push(format!(
            "{w}: warm cell captured instead of loading the store"
        ));
    }
    let txns = stream.transactions();
    let final_cycle = stream.run().cycles;

    let (decoded, decode_s) = spans.time("trace.decode", || stream.iter().count() as u64);
    if decoded != txns {
        errors.push(format!("{w}: decoded {decoded} of {txns} transactions"));
    }

    let mut boards: Vec<Dragonhead> = llcs
        .iter()
        .map(|&llc| {
            let mut d = DragonheadConfig::new(llc);
            d.banks = cfg.banks;
            d.sample_period = cfg.sample_period;
            d.prefetch = cfg.prefetch;
            Dragonhead::new(d)
        })
        .collect();
    let (replayed, replay7_s) = spans.time("dragonhead.replay", || {
        cmpsim_core::dragonhead::replay(stream.iter(), &mut boards, final_cycle)
    });
    if !matches!(replayed, Ok(n) if n == txns) {
        errors.push(format!("{w}: 7-board replay failed: {replayed:?}"));
    }
    let board_misses: Vec<u64> = boards.iter().map(|b| b.stats().misses).collect();
    drop(boards);

    let (one, replay1_s) = spans.time("dragonhead.replay_1", || sim.replay(&stream));
    if one.llc.misses != board_misses[0] {
        errors.push(format!("{w}: 1-board replay disagrees with the sweep"));
    }

    let (serial, sharded1_s) = spans.time("runner.sharded_replay_1", || {
        sim.replay_sweep_sharded(&stream, &llcs, 1)
    });
    let (reports, sharded_s) = spans.time("runner.sharded_replay", || {
        sim.replay_sweep_sharded(&stream, &llcs, SHARDS)
    });
    for (i, (a, b)) in serial.iter().zip(&reports).enumerate() {
        if a.llc.misses != board_misses[i] || b.llc.misses != board_misses[i] {
            errors.push(format!("{w}: sharded replay disagrees at board {i}"));
        }
    }
    drop(serial);

    let validator = Validator::new(cfg.sample_period);
    let (invalid, validate_s) = spans.time("core.validate", || {
        reports
            .iter()
            .filter_map(|r| validator.validate(r).err())
            .map(|e| format!("{w}: {e}"))
            .collect::<Vec<_>>()
    });
    errors.extend(invalid);

    let measures = JsonValue::object([
        ("build_s", JsonValue::F64(build_s)),
        ("platform_s", JsonValue::F64(platform_s)),
        ("instructions", JsonValue::U64(instructions)),
        ("fsb_txns", JsonValue::U64(fsb_txns)),
        ("capture_s", JsonValue::F64(capture_s)),
        ("broker_s", JsonValue::F64(broker_s)),
        ("captured", JsonValue::Bool(captured)),
        ("bytes", JsonValue::U64(stream.encoded_bytes().len() as u64)),
        ("txns", JsonValue::U64(txns)),
        ("decode_s", JsonValue::F64(decode_s)),
        ("replay7_s", JsonValue::F64(replay7_s)),
        ("replay1_s", JsonValue::F64(replay1_s)),
        ("sharded1_s", JsonValue::F64(sharded1_s)),
        ("sharded_s", JsonValue::F64(sharded_s)),
        ("validate_s", JsonValue::F64(validate_s)),
        ("boards", JsonValue::U64(llcs.len() as u64)),
        ("llc_misses", JsonValue::U64(board_misses.iter().sum())),
        ("cell_s", JsonValue::F64(cell_start.elapsed().as_secs_f64())),
    ]);
    let points = reports.iter().map(|r| {
        JsonValue::object([
            ("llc_bytes", JsonValue::U64(r.llc_bytes)),
            ("mpki", JsonValue::F64(r.mpki)),
            ("misses", JsonValue::U64(r.llc.misses)),
            ("instructions", JsonValue::U64(r.run.instructions)),
        ])
    });
    JsonValue::object([
        ("workload", JsonValue::from(w.to_string())),
        ("points", JsonValue::array(points)),
        ("measures", measures),
        (
            "errors",
            JsonValue::array(errors.into_iter().map(JsonValue::from)),
        ),
        ("spans", JsonValue::Array(spans.list)),
    ])
}

/// What a grid cell needs to know, cheap to clone into the runner's
/// per-cell closure.
#[derive(Clone, Copy)]
struct CellArgs {
    cmp: CmpClass,
    scale: Scale,
    seed: u64,
    warm: bool,
    epoch: Instant,
}

fn main() {
    let epoch = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let cell = CellArgs {
        cmp: args.cmp,
        scale: args.scale,
        seed: args.seed,
        warm: args.warm,
        epoch,
    };
    let broker = Arc::new(CaptureBroker::with_store(&args.store));
    let spec = GridSpec::new("cmpsim_grid", args.scale, args.seed, args.workloads.clone())
        .param("cmp", args.cmp)
        .param("line", 64);
    let runner = RunnerConfig {
        workers: 1,
        retries: 0,
        ..RunnerConfig::default()
    };
    let grid_start = Instant::now();
    let cell_broker = Arc::clone(&broker);
    let report = run_grid(&spec, &runner, move |w| probe_cell(&cell, &cell_broker, w));
    let grid_s = grid_start.elapsed().as_secs_f64();
    let counters = broker.counters();
    let cells_failed = report.jobs.len() - report.ok_count();
    let cell_wall_max_s = report
        .jobs
        .iter()
        .map(|j| j.wall_ms / 1e3)
        .fold(0.0, f64::max);
    let wall_s = epoch.elapsed().as_secs_f64();
    let doc = JsonValue::object([
        ("wall_s", JsonValue::F64(wall_s)),
        ("grid_s", JsonValue::F64(grid_s)),
        ("cells_failed", JsonValue::from(cells_failed)),
        ("cell_wall_max_s", JsonValue::F64(cell_wall_max_s)),
        ("broker_captures", JsonValue::U64(counters.captures)),
        ("broker_disk_loads", JsonValue::U64(counters.disk_loads)),
        (
            "failures",
            JsonValue::array(
                report
                    .failures()
                    .into_iter()
                    .map(|(label, e)| JsonValue::from(format!("{label}: {e}"))),
            ),
        ),
        (
            "results",
            JsonValue::Array(report.payloads().cloned().collect()),
        ),
    ]);
    println!("{}", doc.to_json());
}

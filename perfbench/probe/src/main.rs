//! `perfbench-probe`: the in-process half of the repository benchmark.
//!
//! `perfbench/run.py` times user-level operations from outside the program.
//! This binary gives the traced pass its per-layer numbers by wrapping spans
//! around calls into each crate's public functions. Every subcommand does one
//! pass in a fresh process (so process-global stores start cold, as they do
//! in a real shard) and prints, as its last line of standard output, one flat
//! JSON object of numbers.
//!
//! ```text
//! perfbench-probe reference <SPEC> <OUT>        single-process Engine::run stream
//! perfbench-probe op <EXE> <SPEC> <OUT_DIR>     one campaign op: parse, plan,
//!                                               the driver's supervise loop
//!                                               over local transport, merge
//! perfbench-probe engine <SPEC> <CACHE> <OUT> <INDEX> <OF>
//!                                               one shard through the engine
//!                                               and cache calls run_shard_on makes
//! perfbench-probe shard <SPEC> <CACHE> <OUT> <INDEX> <OF>
//!                                               one shard through run_shard_on
//! perfbench-probe kernel <SPEC>                 every plan trial through
//!                                               run_trial, single-threaded
//! perfbench-probe studies                       the attack, memctrl and
//!                                               mitigations calls of the
//!                                               paper's figure targets
//! ```

use rowpress_attack::{latency_verification, run_attack, AttackParams, SystemModel};
use rowpress_cli::driver::{
    journal_event, supervise_resumed, SupervisorEvent, SupervisorJournal, WatchPolicy,
};
use rowpress_cli::transport::{Liveness, LocalProcess, ShardHandle, ShardStatus, Transport};
use rowpress_cli::CliError;
use rowpress_core::campaign::{run_shard_on, CampaignSpec, MERGED_CRC_FILENAME, MERGED_FILENAME};
use rowpress_core::engine::{
    run_trial, CostModel, CrcLineWriter, Engine, JsonlSink, OpenPolicy, PersistentCache, Plan,
    Sink, TrialRecord,
};
use rowpress_core::TrialScratch;
use rowpress_dram::{reset_scan_word_stats, scan_word_stats, ProfileStore};
use rowpress_memctrl::{simulate_alone, NoMitigation, RowPolicy, SystemConfig};
use rowpress_mitigations::{evaluate_mixes, evaluate_single_core, MechanismKind};
use rowpress_workloads::{build_mixes, find_workload, homogeneous_mix};
use std::cell::Cell;
use std::collections::HashMap;
use std::fs::File;
use std::hint::black_box;
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};

type Result<T> = std::result::Result<T, String>;

const USAGE: &str = "usage: perfbench-probe reference|op|engine|shard|kernel|studies ...";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(metrics) => println!("{}", to_json(&metrics)),
        Err(e) => {
            eprintln!("perfbench-probe: {e}");
            std::process::exit(1);
        }
    }
}

/// One named measurement of a pass, printed in insertion order.
type Metrics = Vec<(&'static str, f64)>;

fn dispatch(args: &[String]) -> Result<Metrics> {
    let arg = |i: usize| args.get(i).map(String::as_str).ok_or(USAGE.to_string());
    let index = |i: usize| -> Result<usize> { arg(i)?.parse().map_err(|e| format!("{e}")) };
    match arg(0)? {
        "reference" => reference(Path::new(arg(1)?), Path::new(arg(2)?)),
        "op" => op(
            PathBuf::from(arg(1)?),
            Path::new(arg(2)?),
            Path::new(arg(3)?),
        ),
        "engine" => engine(
            Path::new(arg(1)?),
            Path::new(arg(2)?),
            Path::new(arg(3)?),
            index(4)?,
            index(5)?,
        ),
        "shard" => shard(
            Path::new(arg(1)?),
            Path::new(arg(2)?),
            Path::new(arg(3)?),
            index(4)?,
            index(5)?,
        ),
        "kernel" => kernel(Path::new(arg(1)?)),
        "studies" => Ok(studies()),
        _ => Err(USAGE.to_string()),
    }
}

fn to_json(metrics: &Metrics) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value)| format!("\"{name}\": {value}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn io_err(e: io::Error) -> String {
    e.to_string()
}

fn load(spec_path: &Path) -> Result<(CampaignSpec, Plan)> {
    let spec = CampaignSpec::from_path(spec_path).map_err(|e| e.to_string())?;
    let plan = spec.plan().map_err(|e| e.to_string())?;
    Ok((spec, plan))
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[rank]
}

/// The single-process stream every campaign op's `merged.jsonl` must equal
/// (what `rowpress-campaign run --verify` compares against).
fn reference(spec_path: &Path, out: &Path) -> Result<Metrics> {
    let (spec, plan) = load(spec_path)?;
    let mut sink = JsonlSink::new(BufWriter::new(File::create(out).map_err(io_err)?));
    Engine::new(&spec.config())
        .run(&plan, &mut sink)
        .map_err(|e| e.to_string())?;
    Ok(vec![("trials", plan.len() as f64)])
}

/// What the driver's watch loop saw of one shard incarnation, in seconds
/// since the op began.
#[derive(Default)]
struct Timeline {
    launched: Cell<f64>,
    /// The first poll that found the shard connected.
    alive: Cell<Option<f64>>,
    /// When the shard's last frame (its `done` frame) arrived.
    last_frame: Cell<Option<f64>>,
    /// The poll that found the shard exited.
    exited: Cell<Option<f64>>,
}

/// A [`Transport`] that hands the driver timed [`ShardHandle`]s and passes
/// every call through to `inner` unchanged.
struct Timed<T: Transport> {
    inner: T,
    origin: Instant,
    shards: Vec<Rc<Timeline>>,
}

impl<T: Transport> Transport for Timed<T> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn launch(
        &mut self,
        index: usize,
        incarnation: u32,
    ) -> std::result::Result<Box<dyn ShardHandle>, CliError> {
        let timeline = Rc::new(Timeline::default());
        timeline.launched.set(self.origin.elapsed().as_secs_f64());
        let inner = self.inner.launch(index, incarnation)?;
        self.shards[index] = Rc::clone(&timeline);
        Ok(Box::new(TimedHandle {
            inner,
            origin: self.origin,
            timeline,
        }))
    }

    fn collect(&mut self, index: usize) -> std::result::Result<Vec<TrialRecord>, CliError> {
        self.inner.collect(index)
    }
}

/// A shard handle that stamps the driver's first sight of a connected shard
/// and its exit poll on the op's clock.
struct TimedHandle {
    inner: Box<dyn ShardHandle>,
    origin: Instant,
    timeline: Rc<Timeline>,
}

impl ShardHandle for TimedHandle {
    fn poll(&mut self) -> std::result::Result<ShardStatus, CliError> {
        let status = self.inner.poll()?;
        if let ShardStatus::Exited { .. } = status {
            let now = self.origin.elapsed().as_secs_f64();
            self.timeline.exited.set(Some(now));
            // The exit poll drained the pipe: `quiet` dates the last frame.
            if let Liveness::Alive { quiet } = self.inner.liveness() {
                self.timeline
                    .last_frame
                    .set(Some(now - quiet.as_secs_f64()));
            }
        }
        Ok(status)
    }

    fn liveness(&self) -> Liveness {
        let liveness = self.inner.liveness();
        if self.timeline.alive.get().is_none() && matches!(liveness, Liveness::Alive { .. }) {
            self.timeline
                .alive
                .set(Some(self.origin.elapsed().as_secs_f64()));
        }
        liveness
    }

    fn done(&self) -> bool {
        self.inner.done()
    }

    fn degraded(&self) -> bool {
        self.inner.degraded()
    }

    fn kill(&mut self) {
        self.inner.kill();
    }
}

/// Total length of the union of `spans`.
fn covered(mut spans: Vec<(f64, f64)>) -> f64 {
    spans.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = f64::NEG_INFINITY;
    for (start, end) in spans {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

fn journal_campaign(journal: &mut SupervisorJournal, event: &str) {
    journal.append(&SupervisorEvent {
        event: event.to_string(),
        shard: None,
        incarnation: None,
    });
}

/// One `rowpress-campaign run`, made of the library calls its driver makes:
/// spec parse, plan, `supervise_resumed` over the real local transport with
/// the spec's watch policy and the supervisor journal, then the merge. The
/// transport is wrapped in [`Timed`], so the driver's own watch loop is what
/// gets timed. The frames the transport relays go to standard output.
fn op(exe: PathBuf, spec_path: &Path, out_dir: &Path) -> Result<Metrics> {
    let origin = Instant::now();
    let now = || origin.elapsed().as_secs_f64();
    let mut blocking = Vec::new();

    let mut spec = CampaignSpec::from_path(spec_path).map_err(|e| e.to_string())?;
    let parsed = now();
    blocking.push((0.0, parsed));
    let plan = spec.plan().map_err(|e| e.to_string())?;
    let planned = now();
    blocking.push((parsed, planned));

    let of = spec.orchestration.shards.min(plan.len().max(1));
    spec.orchestration.shards = of;
    std::fs::create_dir_all(out_dir).map_err(io_err)?;
    let resolved_path = out_dir.join("campaign.json");
    std::fs::write(&resolved_path, spec.canonical_json() + "\n").map_err(io_err)?;
    let mut journal = SupervisorJournal::start(out_dir).map_err(io_err)?;
    journal_campaign(&mut journal, journal_event::CAMPAIGN_STARTED);

    let mut transport = Timed {
        inner: LocalProcess::new(
            exe,
            resolved_path,
            out_dir.to_path_buf(),
            of,
            HashMap::new(),
        ),
        origin,
        shards: vec![Rc::default(); of],
    };
    supervise_resumed(
        &mut transport,
        of,
        &WatchPolicy::from_spec(&spec),
        Some(&mut journal),
        &[],
    )
    .map_err(|e| e.message)?;
    let mut first_frame_ms: f64 = 0.0;
    let mut done_to_exit_ms: f64 = 0.0;
    for shard in &transport.shards {
        let exited = shard.exited.get().unwrap_or_else(now);
        let alive = shard.alive.get().unwrap_or(exited);
        let last_frame = shard.last_frame.get().unwrap_or(exited);
        first_frame_ms = first_frame_ms.max((alive - shard.launched.get()) * 1e3);
        done_to_exit_ms = done_to_exit_ms.max((exited - last_frame) * 1e3);
        blocking.push((alive, last_frame));
    }

    journal_campaign(&mut journal, journal_event::MERGE_STARTED);
    let started = now();
    let streams = (0..of)
        .map(|i| transport.collect(i).map_err(|e| e.message))
        .collect::<Result<Vec<Vec<TrialRecord>>>>()?;
    let parsed_streams = now();
    let records = Plan::merge(streams);
    let interleaved = now();
    let merged_path = out_dir.join(MERGED_FILENAME);
    let mut sink = JsonlSink::new(CrcLineWriter::new(BufWriter::new(
        File::create(&merged_path).map_err(io_err)?,
    )));
    let count = records.len();
    for record in records {
        sink.accept(record).map_err(io_err)?;
    }
    sink.finish().map_err(io_err)?;
    std::fs::write(
        out_dir.join(MERGED_CRC_FILENAME),
        sink.into_inner().sidecar(),
    )
    .map_err(io_err)?;
    journal_campaign(&mut journal, journal_event::MERGE_COMMITTED);
    let written = now();
    blocking.extend([
        (started, parsed_streams),
        (parsed_streams, interleaved),
        (interleaved, written),
    ]);

    Ok(vec![
        ("covered_s", covered(blocking)),
        ("spec_parse_ms", parsed * 1e3),
        ("plan_ms", (planned - parsed) * 1e3),
        ("first_frame_ms", first_frame_ms),
        ("done_to_exit_ms", done_to_exit_ms),
        ("parse_s", parsed_streams - started),
        ("interleave_s", interleaved - parsed_streams),
        ("write_s", written - interleaved),
        ("mb", file_len(&merged_path) as f64 / 1e6),
        ("records", count as f64),
        ("shards", of as f64),
    ])
}

/// A record sink that flushes the persistent cache after every record, as
/// `run_shard_on` does, and times each flush.
struct FlushingSink<'a, S: Sink> {
    inner: S,
    cache: &'a mut PersistentCache,
    flush: Duration,
}

impl<S: Sink> Sink for FlushingSink<'_, S> {
    fn accept(&mut self, record: TrialRecord) -> io::Result<()> {
        self.inner.accept(record)?;
        let started = Instant::now();
        self.cache.flush()?;
        self.flush += started.elapsed();
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.inner.finish()
    }
}

/// Shard `index` of `of` through the engine and cache calls `run_shard_on`
/// makes (preload, learned cost model, pooled run, per-record flush), each
/// timed, with the engine's pool and cache counters.
fn engine(
    spec_path: &Path,
    cache_path: &Path,
    out: &Path,
    index: usize,
    of: usize,
) -> Result<Metrics> {
    let (spec, plan) = load(spec_path)?;
    let cfg = spec.config();
    let shard = plan.shard(index, of);
    let preload_bytes = file_len(cache_path);
    let started = Instant::now();
    let mut persistent =
        PersistentCache::open_with_policy(cache_path, &cfg, OpenPolicy::Strict).map_err(io_err)?;
    let preload_s = started.elapsed().as_secs_f64();
    let preload_lines = persistent.preloaded();
    let cost = CostModel::default().fit(
        &cfg,
        persistent.timed_samples().iter().map(|(t, w)| (t, *w)),
    );
    let engine = Engine::new(&cfg)
        .with_persistent_cache(&persistent)
        .with_cost_model(cost);
    let mut sink = FlushingSink {
        inner: JsonlSink::new(BufWriter::new(File::create(out).map_err(io_err)?)),
        cache: &mut persistent,
        flush: Duration::ZERO,
    };
    let started = Instant::now();
    engine.run(&shard, &mut sink).map_err(|e| e.to_string())?;
    let run_s = started.elapsed().as_secs_f64();
    let mut flush = sink.flush;
    let started = Instant::now();
    persistent.flush().map_err(io_err)?;
    flush += started.elapsed();
    let metrics = engine.pool_metrics();
    Ok(vec![
        ("preload_s", preload_s),
        ("preload_bytes", preload_bytes as f64),
        ("preload_lines", preload_lines as f64),
        ("run_s", run_s),
        ("flush_s", flush.as_secs_f64()),
        (
            "bytes_written",
            file_len(cache_path).saturating_sub(preload_bytes) as f64,
        ),
        ("busy_s", metrics.busy_us() as f64 / 1e6),
        ("idle_s", metrics.idle_us() as f64 / 1e6),
        ("queue_peak", metrics.queue_peak() as f64),
        ("cache_hits", engine.cache().hits() as f64),
        ("cache_misses", engine.cache().misses() as f64),
    ])
}

/// Shard `index` of `of` through `run_shard_on` itself, timed whole.
fn shard(
    spec_path: &Path,
    cache_path: &Path,
    out: &Path,
    index: usize,
    of: usize,
) -> Result<Metrics> {
    let (spec, _) = load(spec_path)?;
    let persistent =
        PersistentCache::open_with_policy(cache_path, &spec.config(), OpenPolicy::Strict)
            .map_err(io_err)?;
    let sink = JsonlSink::new(BufWriter::new(File::create(out).map_err(io_err)?));
    let started = Instant::now();
    let run =
        run_shard_on(&spec, index, of, persistent, sink, |_| {}).map_err(|e| e.to_string())?;
    Ok(vec![
        ("shard_s", started.elapsed().as_secs_f64()),
        ("records", run.records as f64),
    ])
}

/// Every plan trial through the trial kernel on one thread, with a private
/// profile store and the device model's word-scan counters reset first, so
/// the rates describe this plan alone.
fn kernel(spec_path: &Path) -> Result<Metrics> {
    let (spec, plan) = load(spec_path)?;
    let cfg = spec.config();
    let store = ProfileStore::new();
    let mut scratch = TrialScratch::with_profile_store(store.clone());
    reset_scan_word_stats();
    let mut times = Vec::with_capacity(plan.len());
    for trial in plan.trials() {
        let started = Instant::now();
        black_box(run_trial(&cfg, trial, &mut scratch).map_err(|e| e.to_string())?);
        times.push(started.elapsed().as_secs_f64() * 1e6);
    }
    times.sort_by(f64::total_cmp);
    Ok(vec![
        ("trial_us_p50", percentile(&times, 0.5)),
        ("trial_us_p90", percentile(&times, 0.9)),
        ("trials", times.len() as f64),
        ("profile_store_hit_rate", store.hit_rate()),
        ("profile_store_entries", store.len() as f64),
        ("word_skip_rate", scan_word_stats().skip_rate()),
    ])
}

/// Runs `f`, adding its duration to `total`.
fn timed<T>(total: &mut Duration, f: impl FnOnce() -> T) {
    let started = Instant::now();
    black_box(f());
    *total += started.elapsed();
}

/// The engine-free studies of the paper's figure targets, with the inputs
/// those targets use: the real-system attack (Figs. 23, 24, 49), the memory
/// controller (Figs. 38, 39) and the mitigation evaluations (Tables 3, 9).
fn studies() -> Metrics {
    let mut attack = Duration::ZERO;
    let mut calls = Vec::new();
    let system = SystemModel::comet_lake_trr().with_victims(200);
    let mut attack_call = |params: AttackParams| {
        let mut call = Duration::ZERO;
        timed(&mut call, || run_attack(&system, &params));
        calls.push(call.as_secs_f64() * 1e3);
        attack += call;
    };
    for naa in [4u32, 3, 2] {
        for nr in [1u32, 2, 4, 8, 16, 32, 48, 64, 128] {
            attack_call(AttackParams::algorithm1(naa, nr));
        }
        for nr in [8u32, 16, 32, 64] {
            attack_call(AttackParams::algorithm1(naa, nr));
            attack_call(AttackParams::algorithm2(naa, nr));
        }
    }
    timed(&mut attack, || latency_verification(100_000, 42));
    calls.sort_by(f64::total_cmp);

    let mut memctrl = Duration::ZERO;
    let figures: [(u64, [&str; 7]); 2] = [
        (
            31,
            [
                "462.libquantum",
                "510.parest",
                "483.xalancbmk",
                "429.mcf",
                "h264_encode",
                "ycsb_eserver",
                "436.cactusADM",
            ],
        ),
        (
            37,
            [
                "462.libquantum",
                "510.parest",
                "505.mcf",
                "482.sphinx3",
                "429.mcf",
                "ycsb_cserver",
                "h264_decode",
            ],
        ),
    ];
    for (seed, names) in figures {
        let open = SystemConfig {
            accesses_per_core: 12_000,
            policy: RowPolicy::Open,
            retire_width: 4,
            seed,
        };
        let closed = SystemConfig {
            policy: RowPolicy::Closed,
            ..open
        };
        for name in names {
            let w = find_workload(name).expect("catalog workload");
            for cfg in [&open, &closed] {
                timed(&mut memctrl, || {
                    simulate_alone(&w, cfg, Box::new(NoMitigation))
                });
            }
        }
    }

    let mut mitigations = Duration::ZERO;
    let table3 = SystemConfig {
        accesses_per_core: 8_000,
        policy: RowPolicy::Open,
        retire_width: 4,
        seed: 17,
    };
    let mut mixes = build_mixes(&["HHHH", "HHLL", "LLLL"], 1, 99);
    for name in ["462.libquantum", "429.mcf"] {
        mixes.push(homogeneous_mix(
            &find_workload(name).expect("catalog workload"),
        ));
    }
    let table9 = SystemConfig { seed: 23, ..table3 };
    let singles: Vec<_> = [
        "429.mcf",
        "462.libquantum",
        "510.parest",
        "470.lbm",
        "483.xalancbmk",
        "h264_encode",
    ]
    .iter()
    .map(|n| find_workload(n).expect("catalog workload"))
    .collect();
    for kind in [MechanismKind::Graphene, MechanismKind::Para] {
        timed(&mut mitigations, || {
            evaluate_mixes(kind, 1000, &[36, 96, 636], &mixes, &table3)
        });
        timed(&mut mitigations, || {
            evaluate_single_core(kind, 1000, &[36, 66, 96, 186, 336, 636], &singles, &table9)
        });
    }

    vec![
        ("attack_total_s", attack.as_secs_f64()),
        ("attack_run_attack_ms_p50", percentile(&calls, 0.5)),
        ("attack_calls", calls.len() as f64),
        ("memctrl_total_s", memctrl.as_secs_f64()),
        ("mitigations_total_s", mitigations.as_secs_f64()),
    ]
}

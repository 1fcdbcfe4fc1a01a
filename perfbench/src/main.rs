//! `perfbench` — end-to-end and per-layer benchmark of the DORA simulator.
//!
//! ```text
//! perfbench --workload <fleet-msm8974|fleet-biglittle|decide-replay>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one thread, the sequential executor. A run sets up
//! (Quick-scale model training plus the workload's own preparation),
//! measures a window of batches of distinct work, checks the
//! program's outputs, and prints one JSON result as its last stdout line.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` repeats the
//! window through the traced composition and reports the per-layer
//! metrics, writing every span and counter to
//! `perfbench/out/trace-<workload>-seed<n>.jsonl`. See `perfbench/README.md`.

// A benchmark measures host time: the workspace's ban on wall-clock
// reads in simulation code does not apply here.
#![allow(clippy::disallowed_methods)]

mod fleet;
mod replay;
mod stats;
mod trace;

use dora::trainer::{train, TrainerConfig};
use dora::DoraModels;
use dora_campaign::driver::CampaignDriver;
use dora_campaign::training::TrainingCampaignConfig;
use dora_campaign::workload::WorkloadSet;
use dora_campaign::{Executor, Policy, ScenarioConfig};
use dora_experiments::pipeline::{Pipeline, Scale};
use dora_sim_core::sketch::Digest64;
use dora_sim_core::units::Celsius;
use dora_soc::board::BoardConfig;
use dora_soc::SocProfile;
use fleet::{BatchOutcome, SESSIONS_PER_BATCH};
use replay::{Nudge, ReplayTotals, Stream};
use stats::{median, window_rate};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use trace::Tracer;

/// The training seed: the models are the program's configuration, not a
/// workload input, so every workload seed runs against the same models.
const TRAIN_SEED: u64 = 42;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Fleet sessions per host second on the reference machine, by profile
/// (MSM8974, big.LITTLE). Only sizes the window (`--seconds` × rate
/// sessions), so that the amount of work — and every count the run
/// reports — is fixed by the arguments, never by how fast the host
/// happened to be.
const FLEET_NOMINAL_RATE: [f64; 2] = [115.0, 85.0];

/// Replay passes per batch.
const PASSES_PER_BATCH: u64 = 3;

/// Replayed decisions per host second on the reference machine, per
/// profile; sizes the decide-replay window like [`FLEET_NOMINAL_RATE`].
const REPLAY_NOMINAL_RATE: [f64; 2] = [250_000.0, 215_000.0];

/// Minimum batches per window (per profile for decide-replay).
const MIN_BATCHES: u64 = 4;

/// A window that runs past this multiple of `--seconds` stops early, so
/// a pathologically slow host still finishes the run in time. Its counts
/// and digests then cover fewer batches.
const WINDOW_CAP: f64 = 3.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    FleetMsm8974,
    FleetBiglittle,
    DecideReplay,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "fleet-msm8974" => Some(Workload::FleetMsm8974),
            "fleet-biglittle" => Some(Workload::FleetBiglittle),
            "decide-replay" => Some(Workload::DecideReplay),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::FleetMsm8974 => "fleet-msm8974",
            Workload::FleetBiglittle => "fleet-biglittle",
            Workload::DecideReplay => "decide-replay",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        values.insert(key, value);
    }
    let get = |key: &str| {
        values
            .get(key)
            .copied()
            .ok_or(format!("--{key} is required"))
    };
    let workload = get("workload")?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
    })
}

/// The result line's metrics, in insertion order.
#[derive(Debug, Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0
            .push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }
}

/// What a run reports besides its metrics.
#[derive(Debug, Default)]
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    /// Deterministic facts for the steadiness tool: digests and counts.
    info: Vec<(&'static str, String)>,
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn models_digest(models: &DoraModels) -> u64 {
    let mut d = Digest64::new();
    d.write_str(&dora::to_text(models));
    d.finish()
}

fn profile_of(workload: Workload) -> SocProfile {
    match workload {
        Workload::FleetBiglittle => SocProfile::biglittle_a15a7(),
        _ => SocProfile::msm8974(),
    }
}

/// The two replayed profiles' boards.
fn replay_boards() -> [BoardConfig; 2] {
    [
        SocProfile::msm8974().board_config(),
        SocProfile::biglittle_a15a7().board_config(),
    ]
}

/// Prepared inputs of a run.
struct Prepared {
    models: DoraModels,
    streams: Vec<Vec<Stream>>,
    /// Whether every set-up the run made produced the same inputs.
    consistent: bool,
}

fn record_all(models: &DoraModels, seed: u64) -> Vec<Vec<Stream>> {
    replay_boards()
        .iter()
        .enumerate()
        .map(|(i, board)| replay::record_streams(models, board, stats::mix(seed, i as u64)))
        .collect()
}

/// Untraced set-up, repeated [`SETUP_REPS`] times; returns the inputs and
/// each repetition's seconds. Repetitions must agree exactly.
fn setup_untraced(args: &Args) -> Result<(Prepared, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut prepared: Option<Prepared> = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let pipeline = Pipeline::build_with(Scale::Quick, TRAIN_SEED, &Executor::sequential());
        let streams = if args.workload == Workload::DecideReplay {
            record_all(&pipeline.models, args.seed)
        } else {
            Vec::new()
        };
        times.push(secs(start));
        let consistent = prepared.as_ref().is_none_or(|previous| {
            previous.consistent && previous.models == pipeline.models && previous.streams == streams
        });
        if !consistent {
            eprintln!("perfbench: set-up repetitions disagree");
        }
        prepared = Some(Prepared {
            models: pipeline.models,
            streams,
            consistent,
        });
    }
    Ok((prepared.ok_or("no set-up ran")?, times))
}

/// Traced set-up: the Quick pipeline composed from its campaign calls
/// under spans, checked against `Pipeline::build_with`.
fn setup_traced(args: &Args, tracer: &mut Tracer) -> Result<Prepared, String> {
    let reference = Pipeline::build_with(Scale::Quick, TRAIN_SEED, &Executor::sequential());
    tracer.open("setup", None);
    let scenario = ScenarioConfig::builder().seed(TRAIN_SEED).build();
    let all = WorkloadSet::paper54();
    let subset = WorkloadSet::from_workloads(
        all.workloads()
            .iter()
            .enumerate()
            .filter(|(i, w)| w.is_training() && i % 2 == 0)
            .map(|(_, w)| w.clone())
            .collect(),
    );
    let frequencies = scenario.board.dvfs.frequencies().step_by(2).collect();
    let driver = CampaignDriver::new().executor(Executor::sequential());
    let observations = tracer.span("campaign.training_campaign", None, || {
        driver.training_campaign(
            &subset,
            &TrainingCampaignConfig {
                scenario: scenario.clone(),
                frequencies: Some(frequencies),
            },
        )
    });
    let leakage = tracer.span("campaign.leakage_calibration", None, || {
        driver.leakage_calibration(
            &scenario.board,
            &[5.0, 15.0, 25.0, 35.0, 45.0].map(Celsius::new),
        )
    });
    let models = tracer.span("core.train", None, || {
        train(
            &observations,
            &leakage,
            &scenario.board.dvfs,
            TrainerConfig::default(),
        )
    });
    let streams = match (&models, args.workload) {
        (Ok(models), Workload::DecideReplay) => {
            tracer.span("campaign.record_streams", None, || {
                record_all(models, args.seed)
            })
        }
        _ => Vec::new(),
    };
    tracer.close();
    let models = models.map_err(|e| format!("training failed: {e}"))?;
    let consistent = models == reference.models;
    if !consistent {
        eprintln!("perfbench: composed set-up trained different models than Pipeline::build_with");
    }
    Ok(Prepared {
        models,
        streams,
        consistent,
    })
}

/// Sessions failed in a batch: all of them on an error, a short count,
/// or a digest that differs from `reference`.
fn batch_failures(result: &Result<BatchOutcome, String>, reference: Option<u64>) -> u64 {
    match result {
        Err(_) => SESSIONS_PER_BATCH,
        Ok(batch) => {
            let complete = batch.sessions == SESSIONS_PER_BATCH
                && batch
                    .sheets
                    .iter()
                    .all(|s| s.sessions == SESSIONS_PER_BATCH);
            let agrees = reference.is_none_or(|r| r == batch.digest());
            if complete && agrees {
                0
            } else {
                SESSIONS_PER_BATCH
            }
        }
    }
}

fn panic_to_error<T>(result: std::thread::Result<Result<T, String>>) -> Result<T, String> {
    result.unwrap_or_else(|_| Err("panicked".into()))
}

/// A timed fleet window.
struct FleetWindow {
    /// Host seconds per batch.
    seconds: Vec<f64>,
    /// Simulated seconds per batch: every governed load plus the
    /// per-archetype warm-ups, the work a batch's host time pays for.
    simulated: Vec<f64>,
    /// DORA decision intervals per batch.
    intervals: Vec<f64>,
    digests: Vec<u64>,
    totals: Vec<dora_campaign::fleet::GovernorSheet>,
    failed: u64,
}

impl FleetWindow {
    /// `per_batch` work units per host second, at the window's fast-batch
    /// speed (see [`stats`]).
    fn rate(&self, per_batch: &[f64]) -> f64 {
        let sim_per_s = window_rate(&self.simulated, &self.seconds);
        per_batch.iter().sum::<f64>() / self.simulated.iter().sum::<f64>() * sim_per_s
    }

    fn sessions_per_s(&self) -> f64 {
        self.rate(&vec![SESSIONS_PER_BATCH as f64; self.seconds.len()])
    }
}

/// Runs fleet batches `0..batches` through `run`, stopping early only if
/// the window exceeds [`WINDOW_CAP`] × `seconds`.
fn fleet_window(
    profile: &SocProfile,
    args: &Args,
    batches: u64,
    references: Option<&[u64]>,
    mut run: impl FnMut(&dora_campaign::FleetConfig) -> Result<BatchOutcome, String>,
) -> FleetWindow {
    let mut window = FleetWindow {
        seconds: Vec::new(),
        simulated: Vec::new(),
        intervals: Vec::new(),
        digests: Vec::new(),
        totals: Vec::new(),
        failed: 0,
    };
    let window_start = Instant::now();
    for b in 0..batches {
        if secs(window_start) > WINDOW_CAP * args.seconds {
            eprintln!("perfbench: window cut after {b} of {batches} batches");
            break;
        }
        let config = fleet::batch_config(profile, args.seed, b);
        let start = Instant::now();
        let result = panic_to_error(catch_unwind(AssertUnwindSafe(|| run(&config))));
        let elapsed = secs(start);
        let reference = references.and_then(|r| r.get(b as usize).copied());
        let failed = batch_failures(&result, reference);
        window.failed += failed;
        match result {
            Ok(batch) if failed == 0 => {
                let warmups = config.archetypes.len() as f64 * config.warmup.as_secs_f64();
                let loads: f64 = batch.sheets.iter().map(|s| s.load_time.sum()).sum();
                window.seconds.push(elapsed);
                window.simulated.push(loads + warmups);
                window
                    .intervals
                    .push(fleet::dora_decision_intervals(&batch.sheets));
                window.digests.push(batch.digest());
                if fleet::accumulate(&mut window.totals, &batch.sheets).is_err() {
                    window.failed += SESSIONS_PER_BATCH;
                }
            }
            Ok(batch) => window.digests.push(batch.digest()),
            Err(e) => {
                eprintln!("perfbench: batch {b} failed: {e}");
                window.digests.push(0);
            }
        }
    }
    window
}

fn fleet_batches(workload: Workload, seconds: f64) -> u64 {
    let rate = FLEET_NOMINAL_RATE[usize::from(workload == Workload::FleetBiglittle)];
    ((seconds * rate / SESSIONS_PER_BATCH as f64).round() as u64).max(MIN_BATCHES)
}

fn run_fleet(args: &Args, prepared: &Prepared, outcome: &mut Outcome, tracer: &mut Tracer) {
    let profile = profile_of(args.workload);
    let batches = fleet_batches(args.workload, args.seconds);
    let models = &prepared.models;

    let program = fleet_window(&profile, args, batches, None, |c| {
        fleet::program_batch(c, models)
    });
    outcome.attempted = program.digests.len() as u64 * SESSIONS_PER_BATCH;
    outcome.failed += program.failed;
    let sessions_per_s = program.sessions_per_s();
    let intervals_per_s = program.rate(&program.intervals);
    let batch_digest = {
        let mut d = Digest64::new();
        program.digests.iter().for_each(|&x| d.write_u64(x));
        d.finish()
    };

    if tracer.enabled() {
        tracer.open("window", None);
        let traced = fleet_window(&profile, args, batches, Some(&program.digests), |c| {
            fleet::composed_batch(c, Some(models), tracer)
        });
        tracer.close();
        outcome.failed += traced.failed;
        let traced_rate = traced.sessions_per_s();
        let switches: u64 = traced.totals.iter().map(|s| s.switches).sum();
        tracer.add_detail("soc.switches", switches, 0);
        outcome.metrics.put(
            "trace.overhead_pct",
            (sessions_per_s / traced_rate - 1.0) * 100.0,
            "%",
        );
    } else {
        // Output check outside the window: batch 0 rebuilt from the
        // public building blocks must reproduce the program's digest.
        let check = panic_to_error(catch_unwind(AssertUnwindSafe(|| {
            fleet::composed_batch(
                &fleet::batch_config(&profile, args.seed, 0),
                Some(models),
                &mut Tracer::off(),
            )
        })));
        outcome.failed += batch_failures(&check, program.digests.first().copied());
        let dora = Policy::Dora.name();
        let gain = (fleet::mean_ppw(&program.totals, dora)
            / fleet::mean_ppw(&program.totals, Policy::Interactive.name())
            - 1.0)
            * 100.0;
        let met = program
            .totals
            .iter()
            .find(|s| s.governor == dora)
            .map_or(f64::NAN, |s| s.deadline_met_fraction() * 100.0);
        let m = &mut outcome.metrics;
        m.put("sessions_per_s", sessions_per_s, "1/s");
        m.put("decisions_per_s.msm8974", intervals_per_s, "1/s");
        m.put("decisions_per_s.biglittle", intervals_per_s, "1/s");
        m.put("dora_ppw_gain_pct", gain, "%");
        m.put("dora_deadline_met_pct", met, "%");
        outcome.info.push(("dora_ppw_gain_pct", format!("{gain}")));
        outcome
            .info
            .push(("dora_deadline_met_pct", format!("{met}")));
    }
    let switches: u64 = program.totals.iter().map(|s| s.switches).sum();
    outcome.info.push(("batches", batches.to_string()));
    outcome.info.push(("switches", switches.to_string()));
    outcome
        .info
        .push(("digest", format!("{batch_digest:016x}")));
}

fn per_call(total_ns: u64, calls: u64) -> f64 {
    if calls == 0 {
        0.0
    } else {
        total_ns as f64 / calls as f64
    }
}

fn fleet_layer_metrics(tracer: &Tracer, m: &mut Metrics) {
    let step = tracer.counter("soc.step");
    let decide = tracer.counter("governors.decide");
    let migrate = tracer.counter("soc.migrate");
    let load = tracer.span_total("campaign.load");
    let warmup = tracer.span_total("campaign.warmup");
    let window = tracer.span_total("window");
    m.put("soc.step.calls", step.calls as f64, "count");
    m.put(
        "soc.step.ns_per_quantum",
        per_call(step.busy_ns, step.calls),
        "ns",
    );
    let restore = tracer.span_total("soc.restore");
    m.put(
        "soc.restore.ns",
        per_call(restore.total_ns, restore.count),
        "ns",
    );
    m.put(
        "soc.switches",
        tracer.counter("soc.switches").calls as f64,
        "count",
    );
    m.put("soc.migrate.calls", migrate.calls as f64, "count");
    m.put("governors.decide.calls", decide.calls as f64, "count");
    m.put(
        "governors.decide.ns",
        per_call(decide.busy_ns, decide.calls),
        "ns",
    );
    m.put(
        "campaign.load.self_ns",
        per_call(load.self_ns, load.count),
        "ns",
    );
    let merge = tracer.span_total("campaign.merge");
    m.put(
        "campaign.merge.ns",
        per_call(merge.total_ns, merge.count),
        "ns",
    );
    m.put("campaign.warmup_s", warmup.total_ns as f64 * 1e-9, "s");
    m.put(
        "campaign.warmup_pct",
        warmup.total_ns as f64 / window.total_ns.max(1) as f64 * 100.0,
        "%",
    );
    for (metric, span) in [
        ("browser.spawn.ns", "browser.spawn"),
        ("coworkloads.spawn.ns", "coworkloads.spawn"),
        ("sim-core.record.ns", "sim-core.record"),
    ] {
        let total = tracer.span_total(span);
        m.put(metric, per_call(total.total_ns, total.count), "ns");
    }
}

fn core_layer_metrics(tracer: &Tracer, m: &mut Metrics) {
    for (names, calls, ns, per_decision, per_candidate, infeasible) in [
        (
            fleet::CORE_MSM8974,
            "core.decide.calls.msm8974",
            "core.decide.ns.msm8974",
            "core.candidates_per_decision.msm8974",
            "core.ns_per_candidate.msm8974",
            "core.infeasible_decision_pct.msm8974",
        ),
        (
            fleet::CORE_BIGLITTLE,
            "core.decide.calls.biglittle",
            "core.decide.ns.biglittle",
            "core.candidates_per_decision.biglittle",
            "core.ns_per_candidate.biglittle",
            "core.infeasible_decision_pct.biglittle",
        ),
    ] {
        let decide = tracer.counter(names.decide);
        let candidates = tracer.counter(names.candidates).calls;
        let infeasible_calls = tracer.counter(names.infeasible).calls;
        m.put(calls, decide.calls as f64, "count");
        m.put(ns, per_call(decide.busy_ns, decide.calls), "ns");
        m.put(per_decision, per_call(candidates, decide.calls), "count");
        m.put(per_candidate, per_call(decide.busy_ns, candidates), "ns");
        m.put(
            infeasible,
            per_call(infeasible_calls * 100, decide.calls),
            "%",
        );
    }
}

/// One timed decide-replay window.
struct ReplayWindow {
    /// Batch seconds per profile.
    seconds: [Vec<f64>; 2],
    digest: u64,
    totals: [ReplayTotals; 2],
    failed: u64,
}

/// Replays `batches` batches of [`PASSES_PER_BATCH`] passes on each
/// profile, alternating profiles batch by batch so that both meet the
/// same host conditions; stops early only past [`WINDOW_CAP`] × `seconds`.
fn replay_window(
    prepared: &Prepared,
    args: &Args,
    batches: u64,
    tracer: &mut Tracer,
) -> ReplayWindow {
    let boards = replay_boards();
    let mut window = ReplayWindow {
        seconds: [Vec::new(), Vec::new()],
        digest: 0,
        totals: [ReplayTotals::default(); 2],
        failed: 0,
    };
    let mut digest = Digest64::new();
    let window_start = Instant::now();
    for batch in 0..batches {
        if secs(window_start) > WINDOW_CAP * args.seconds {
            eprintln!("perfbench: window cut after {batch} of {batches} batches");
            break;
        }
        for (p, board) in boards.iter().enumerate() {
            let streams = &prepared.streams[p];
            let first_pass = batch * PASSES_PER_BATCH;
            let mut totals = ReplayTotals::default();
            let start = Instant::now();
            let ran = catch_unwind(AssertUnwindSafe(|| {
                for pass in first_pass..first_pass + PASSES_PER_BATCH {
                    replay::replay_pass(
                        streams,
                        &prepared.models,
                        board,
                        Nudge::for_pass(args.seed, pass),
                        &mut digest,
                        &mut totals,
                        tracer,
                        fleet::core_names(board),
                    );
                }
            }));
            let elapsed = secs(start);
            let attempted = replay::decisions_per_pass(streams) * PASSES_PER_BATCH;
            if ran.is_err() || totals.decisions != attempted {
                window.failed += attempted;
            } else {
                window.failed += totals.mismatches;
                window.seconds[p].push(elapsed);
            }
            window.totals[p].absorb(&totals);
        }
    }
    window.digest = digest.finish();
    window
}

fn run_replay(args: &Args, prepared: &Prepared, outcome: &mut Outcome, tracer: &mut Tracer) {
    let per_batch = [0, 1]
        .map(|p| (replay::decisions_per_pass(&prepared.streams[p]) * PASSES_PER_BATCH) as f64);
    let nominal_batch_s: f64 = (0..2).map(|p| per_batch[p] / REPLAY_NOMINAL_RATE[p]).sum();
    let batches = ((args.seconds / nominal_batch_s.max(1e-9)).round() as u64).max(MIN_BATCHES);

    let program = replay_window(prepared, args, batches, &mut Tracer::off());
    outcome.attempted = program.totals.iter().map(|t| t.decisions).sum();
    outcome.failed += program.failed;
    let rate = |w: &ReplayWindow, p: usize| {
        window_rate(&vec![per_batch[p]; w.seconds[p].len()], &w.seconds[p])
    };
    let rates = [rate(&program, 0), rate(&program, 1)];
    // Both profiles together: one batch of each per fast-batch time of
    // each.
    let combined =
        |r: [f64; 2]| (per_batch[0] + per_batch[1]) / (per_batch[0] / r[0] + per_batch[1] / r[1]);

    if tracer.enabled() {
        tracer.open("window", None);
        let traced = replay_window(prepared, args, batches, tracer);
        tracer.close();
        outcome.failed += traced.failed;
        if traced.digest != program.digest {
            eprintln!("perfbench: traced replay chose different points than the untraced one");
            outcome.failed += outcome.attempted;
        }
        let traced_rates = [rate(&traced, 0), rate(&traced, 1)];
        outcome.metrics.put(
            "trace.overhead_pct",
            (combined(rates) / combined(traced_rates) - 1.0) * 100.0,
            "%",
        );
    } else {
        // A replayed stream is one recorded governed load.
        let streams_per_batch = (prepared.streams[0].len() + prepared.streams[1].len()) as f64
            * PASSES_PER_BATCH as f64;
        let all = |f: fn(&ReplayTotals) -> f64| f(&program.totals[0]) + f(&program.totals[1]);
        let decisions = all(|t| t.decisions as f64);
        let gain = (all(|t| t.chosen_ppw) / all(|t| t.fmax_ppw) - 1.0) * 100.0;
        let met = all(|t| t.chosen_feasible as f64) / decisions * 100.0;
        let m = &mut outcome.metrics;
        m.put(
            "sessions_per_s",
            streams_per_batch / (per_batch[0] + per_batch[1]) * combined(rates),
            "1/s",
        );
        m.put("decisions_per_s.msm8974", rates[0], "1/s");
        m.put("decisions_per_s.biglittle", rates[1], "1/s");
        m.put("dora_ppw_gain_pct", gain, "%");
        m.put("dora_deadline_met_pct", met, "%");
        outcome.info.push(("dora_ppw_gain_pct", format!("{gain}")));
        outcome
            .info
            .push(("dora_deadline_met_pct", format!("{met}")));
    }
    for (p, (decisions, candidates)) in [
        ("decisions.msm8974", "candidates.msm8974"),
        ("decisions.biglittle", "candidates.biglittle"),
    ]
    .into_iter()
    .enumerate()
    {
        outcome
            .info
            .push((decisions, program.totals[p].decisions.to_string()));
        outcome
            .info
            .push((candidates, program.totals[p].candidates.to_string()));
    }
    outcome.info.push(("batches", batches.to_string()));
    outcome
        .info
        .push(("digest", format!("{:016x}", program.digest)));
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut tracer = if args.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let prepared = if args.trace {
        setup_traced(args, &mut tracer)?
    } else {
        let (prepared, times) = setup_untraced(args)?;
        outcome.metrics.put("setup_s", median(&times), "s");
        prepared
    };
    outcome.info.push((
        "models_digest",
        format!("{:016x}", models_digest(&prepared.models)),
    ));
    match args.workload {
        Workload::FleetMsm8974 | Workload::FleetBiglittle => {
            run_fleet(args, &prepared, &mut outcome, &mut tracer);
        }
        Workload::DecideReplay => run_replay(args, &prepared, &mut outcome, &mut tracer),
    }
    if args.trace {
        fleet_layer_metrics(&tracer, &mut outcome.metrics);
        core_layer_metrics(&tracer, &mut outcome.metrics);
        setup_layer_metrics(&tracer, &mut outcome.metrics);
        write_trace(args, &tracer, &outcome.metrics)?;
    } else {
        outcome.metrics.put("peak_rss_mib", peak_rss_mib(), "MiB");
    }
    // A traced run checks the same work twice; count each failure once.
    outcome.failed = outcome.failed.min(outcome.attempted);
    outcome.correct = outcome.failed == 0 && prepared.consistent;
    Ok(outcome)
}

fn setup_layer_metrics(tracer: &Tracer, m: &mut Metrics) {
    for (metric, span) in [
        ("campaign.training_campaign_s", "campaign.training_campaign"),
        (
            "campaign.leakage_calibration_s",
            "campaign.leakage_calibration",
        ),
        ("campaign.record_streams_s", "campaign.record_streams"),
        ("core.train_s", "core.train"),
    ] {
        m.put(metric, tracer.span_total(span).total_ns as f64 * 1e-9, "s");
    }
}

fn write_trace(args: &Args, tracer: &Tracer, metrics: &Metrics) -> Result<(), String> {
    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let mut text = tracer.to_jsonl();
    let overhead = metrics
        .0
        .iter()
        .find(|(n, _, _)| *n == "trace.overhead_pct")
        .map_or(0.0, |(_, v, _)| *v);
    let _ = writeln!(
        text,
        "{{\"kind\":\"summary\",\"workload\":\"{}\",\"seed\":{},\"trace.overhead_pct\":{overhead}}}",
        args.workload.name(),
        args.seed
    );
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn render(outcome: &Outcome) -> (String, String) {
    let mut info = String::from("{");
    for (i, (key, value)) in outcome.info.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(info, "{sep}\"{key}\":\"{value}\"");
    }
    info.push('}');
    let mut metrics = String::from("{");
    for (i, (name, value, unit)) in outcome.metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    metrics.push('}');
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.correct, outcome.attempted, outcome.failed
    );
    (info, result)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <fleet-msm8974|fleet-biglittle|decide-replay> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            let (info, result) = render(&outcome);
            println!("perfbench-info {info}");
            println!("{result}");
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome_with(sessions: u64, digest_of: &mut u64) -> Result<BatchOutcome, String> {
        let config = fleet::batch_config(&SocProfile::msm8974(), 1, 0);
        let batch = BatchOutcome {
            seed: config.seed,
            sessions,
            shards: 1,
            sheets: ["interactive", "DORA"]
                .iter()
                .map(|g| {
                    let mut s = dora_campaign::fleet::GovernorSheet::new(g);
                    s.sessions = sessions;
                    s
                })
                .collect(),
        };
        *digest_of = batch.digest();
        Ok(batch)
    }

    #[test]
    fn failure_accounting_counts_whole_batches() {
        let mut digest = 0;
        let good = outcome_with(SESSIONS_PER_BATCH, &mut digest);
        assert_eq!(batch_failures(&good, None), 0);
        assert_eq!(batch_failures(&good, Some(digest)), 0);
        // An injected output mismatch fails every session of the batch.
        assert_eq!(batch_failures(&good, Some(digest ^ 1)), SESSIONS_PER_BATCH);
        let short = outcome_with(SESSIONS_PER_BATCH - 1, &mut digest);
        assert_eq!(batch_failures(&short, None), SESSIONS_PER_BATCH);
        assert_eq!(
            batch_failures(&Err("boom".into()), None),
            SESSIONS_PER_BATCH
        );
        assert!(panic_to_error::<()>(catch_unwind(|| panic!("injected"))).is_err());
    }

    #[test]
    fn args_are_validated() {
        let ok = |s: &str| parse_args(&s.split(' ').map(String::from).collect::<Vec<_>>());
        let a = ok("--workload decide-replay --seed 3 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload, Workload::DecideReplay);
        assert!(a.trace);
        assert!(ok("--workload nope --seed 3 --seconds 10 --trace 0").is_err());
        assert!(ok("--workload decide-replay --seed 3 --seconds 0 --trace 0").is_err());
        assert!(ok("--workload decide-replay --seed 3 --seconds 10 --trace 2").is_err());
        assert!(ok("--workload decide-replay --seed 3 --seconds 10").is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome {
            correct: true,
            attempted: 3,
            ..Outcome::default()
        };
        outcome.metrics.put("setup_s", 1.25, "s");
        outcome.metrics.put("bad", f64::NAN, "s");
        let (_, line) = render(&outcome);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"bad\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
    }
}

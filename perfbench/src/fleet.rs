//! The fleet workloads: batches of distinct device sessions, each session
//! governed under interactive, performance, powersave and DORA.
//!
//! Two paths produce the same batch:
//!
//! * [`program_batch`] — the program's own `CampaignDriver::fleet`, on
//!   the sequential executor. The untraced window times this path.
//! * [`composed_batch`] — the same batch rebuilt from the crates' public
//!   building blocks (`SessionSampler::sample`, `Board::new/restore/
//!   assign/step`, `RenderEngine::spawn`, `Kernel::spawn`,
//!   `Governor::decide_point`, `GovernorSheet::record/merge`), with a
//!   span or counter around every call. The traced window times this
//!   path, and its digest must equal the program's for the same batch.

use crate::stats::mix;
use crate::trace::Tracer;
use dora::{DoraConfig, DoraGovernor, DoraModels, DoraPolicy, HeterogeneousDoraGovernor};
use dora_browser::engine::RenderEngine;
use dora_campaign::fleet::{DeviceArchetype, GovernorSheet, SessionSampler};
use dora_campaign::runner::{WarmupPolicy, BROWSER_AUX_CORE, BROWSER_MAIN_CORE, CORUN_CORE};
use dora_campaign::{CampaignDriver, FleetConfig, Policy, PolicyName, RunResult, ScenarioConfig};
use dora_governors::{
    Governor, GovernorObservation, InteractiveGovernor, PerformanceGovernor, PinnedGovernor,
    PowersaveGovernor,
};
use dora_sim_core::sketch::Digest64;
use dora_sim_core::units::{Ppw, Seconds};
use dora_sim_core::{SimDuration, SimTime};
use dora_soc::board::Board;
use dora_soc::task::LoopTask;
use dora_soc::{BoardSnapshot, Frequency, PhaseProfile, SocProfile};

/// The compared policies, baseline first.
pub const POLICIES: [Policy; 4] = [
    Policy::Interactive,
    Policy::Performance,
    Policy::Powersave,
    Policy::Dora,
];

/// Sessions in one batch (one `fleet` call).
pub const SESSIONS_PER_BATCH: u64 = 25;

/// Counter names of the DORA decisions of one SoC profile.
#[derive(Debug, Clone, Copy)]
pub struct CoreNames {
    /// Algorithm 1 calls and their busy time.
    pub decide: &'static str,
    /// Candidates scored, as a call count.
    pub candidates: &'static str,
    /// Decisions with no feasible candidate, as a call count.
    pub infeasible: &'static str,
}

/// [`CoreNames`] of the 1-cluster MSM8974.
pub const CORE_MSM8974: CoreNames = CoreNames {
    decide: "core.decide.msm8974",
    candidates: "core.candidates.msm8974",
    infeasible: "core.infeasible.msm8974",
};

/// [`CoreNames`] of the 2-cluster big.LITTLE part.
pub const CORE_BIGLITTLE: CoreNames = CoreNames {
    decide: "core.decide.biglittle",
    candidates: "core.candidates.biglittle",
    infeasible: "core.infeasible.biglittle",
};

/// The counter names of the DORA decisions on `board`.
pub fn core_names(board: &dora_soc::BoardConfig) -> CoreNames {
    if board.clusters.len() > 1 {
        CORE_BIGLITTLE
    } else {
        CORE_MSM8974
    }
}

/// Batch `batch` of the fleet window of workload seed `seed`: the default
/// five-archetype population on `profile`, Quick (2 s) warm-up, its own
/// fleet seed so that no two batches share a session.
pub fn batch_config(profile: &SocProfile, seed: u64, batch: u64) -> FleetConfig {
    FleetConfig {
        sessions: SESSIONS_PER_BATCH,
        seed: mix(seed, batch),
        policies: POLICIES.to_vec(),
        archetypes: DeviceArchetype::population_for(profile),
        warmup: SimDuration::from_secs(2),
        ..FleetConfig::default()
    }
}

/// Per-governor sheets of one batch plus the report identity the digest
/// covers.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Fleet seed of the batch.
    pub seed: u64,
    /// Sessions folded in.
    pub sessions: u64,
    /// Shards merged.
    pub shards: u64,
    /// Sheets in [`POLICIES`] order.
    pub sheets: Vec<GovernorSheet>,
}

impl BatchOutcome {
    /// The batch digest, computed exactly as `FleetReport::digest` does
    /// from the report's public fields.
    pub fn digest(&self) -> u64 {
        let mut d = Digest64::new();
        d.write_str("fleet-v1");
        d.write_u64(self.sessions);
        d.write_u64(self.seed);
        d.write_u64(self.shards);
        for sheet in &self.sheets {
            d.write_str(&sheet.governor);
            d.write_u64(sheet.sessions);
            d.write_u64(sheet.deadline_met);
            d.write_u64(sheet.timed_out);
            d.write_u64(sheet.switches);
            sheet.load_time.digest_into(&mut d);
            sheet.ppw.digest_into(&mut d);
            d.write_f64(sheet.energy.value());
            d.write_f64(sheet.battery_hours_sum);
        }
        d.finish()
    }
}

/// Runs one batch through `CampaignDriver::fleet` on the sequential
/// executor.
///
/// # Errors
///
/// The `FleetError`, rendered.
pub fn program_batch(config: &FleetConfig, models: &DoraModels) -> Result<BatchOutcome, String> {
    let report = CampaignDriver::new()
        .fleet(config, Some(models))
        .map_err(|e| e.to_string())?;
    let outcome = BatchOutcome {
        seed: report.seed,
        sessions: report.sessions,
        shards: report.shards,
        sheets: report.sheets().to_vec(),
    };
    if outcome.digest() != report.digest() {
        return Err("FleetReport::digest disagrees with its public fields".into());
    }
    Ok(outcome)
}

/// Builds the governor of `policy` for one session, as the campaign's
/// policy factory does: the DORA family searches the (cluster, F)
/// product space on multi-cluster boards.
fn make_governor(
    policy: Policy,
    page: dora_browser::PageFeatures,
    models: Option<&DoraModels>,
    scenario: &ScenarioConfig,
) -> Result<Box<dyn Governor>, String> {
    let table = scenario.board.dvfs.clone();
    Ok(match policy {
        Policy::Interactive => Box::new(InteractiveGovernor::new(table)),
        Policy::Performance => Box::new(PerformanceGovernor::new(table)),
        Policy::Powersave => Box::new(PowersaveGovernor::new(table)),
        Policy::Dora => {
            let models = models.ok_or("DORA needs trained models")?;
            let config = DoraConfig {
                qos_target: scenario.deadline,
                include_leakage: true,
                policy: DoraPolicy::Dora,
                ..DoraConfig::default()
            };
            if scenario.board.clusters.len() > 1 {
                Box::new(HeterogeneousDoraGovernor::from_profile(
                    models,
                    &scenario.board,
                    page,
                    config,
                ))
            } else {
                Box::new(DoraGovernor::new(models.clone(), page, config))
            }
        }
        other => {
            return Err(format!(
                "policy {} is not part of the benchmark",
                other.name()
            ))
        }
    })
}

/// The browsing-shaped endless task pair the campaign warms boards with.
fn warmup_tasks() -> (LoopTask, LoopTask) {
    let main = LoopTask::new(
        "warmup-browse",
        PhaseProfile {
            base_cpi: 1.25,
            l2_apki: 14.0,
            working_set_bytes: 1.2 * 1024.0 * 1024.0,
            reuse_fraction: 0.80,
            duty_cycle: 0.85,
        },
    );
    let aux = LoopTask::new(
        "warmup-aux",
        PhaseProfile {
            base_cpi: 1.1,
            l2_apki: 10.0,
            working_set_bytes: 512.0 * 1024.0,
            reuse_fraction: 0.70,
            duty_cycle: 0.55,
        },
    );
    (main, aux)
}

/// Steps `board` under `governor` until `until` or, with `stop_when_loaded`,
/// until the browser's main task finishes. Mirrors the campaign runner's
/// governor loop. When the governor is DORA, `dora` names the counters its
/// Algorithm 1 calls are also counted in. Returns the governed-clock
/// integral (GHz·s) and the governed duration (s).
fn govern_until(
    board: &mut Board,
    governor: &mut dyn Governor,
    until: SimTime,
    stop_when_loaded: bool,
    tracer: &mut Tracer,
    dora: Option<CoreNames>,
) -> Result<(f64, f64), String> {
    let quantum = board.config().quantum;
    let interval = governor.decision_interval();
    let mut next_decision = board.time() + interval;
    let mut snap = board.counter_set().snapshot();
    let mut freq_integral = 0.0;
    let mut elapsed = 0.0;
    while board.time() < until && !(stop_when_loaded && board.task_finished(BROWSER_MAIN_CORE)) {
        freq_integral += board
            .cluster_frequency(board.cluster_of(BROWSER_MAIN_CORE))
            .as_ghz()
            * quantum.as_secs_f64();
        elapsed += quantum.as_secs_f64();
        tracer.time("soc.step", || board.step(quantum));
        if board.time() >= next_decision {
            let now_snap = board.counter_set().snapshot();
            let delta = now_snap.delta(&snap);
            snap = now_snap;
            let cluster = board.cluster_of(BROWSER_MAIN_CORE);
            let obs = GovernorObservation {
                now: board.time(),
                interval,
                frequency: board.cluster_frequency(cluster),
                cluster: cluster.index(),
                per_core_utilization: delta
                    .cores()
                    .iter()
                    .map(dora_soc::counters::CoreCounters::utilization)
                    .collect(),
                shared_l2_mpki: delta.shared_l2_mpki(),
                corun_utilization: delta.core(CORUN_CORE).utilization(),
                temperature: board.temperature(),
            };
            let before = tracer.counter("governors.decide").busy_ns;
            let point = tracer.time("governors.decide", || governor.decide_point(&obs));
            if let (Some(names), true) = (dora, tracer.enabled()) {
                let busy = tracer.counter("governors.decide").busy_ns - before;
                tracer.add_detail(names.decide, 1, busy);
                let curve = governor.decision_curve().unwrap_or_default();
                tracer.add_detail(names.candidates, curve.len() as u64, 0);
                tracer.add_detail(
                    names.infeasible,
                    u64::from(curve.iter().all(|c| !c.feasible)),
                    0,
                );
            }
            if point.cluster.index() != obs.cluster {
                tracer
                    .time("soc.migrate", || {
                        board.migrate(BROWSER_MAIN_CORE, point.cluster)?;
                        board.migrate(BROWSER_AUX_CORE, point.cluster)
                    })
                    .map_err(|e| format!("governor returned a foreign cluster: {e}"))?;
            }
            tracer
                .time("soc.set_frequency", || {
                    board.set_cluster_frequency(point.cluster, point.frequency)
                })
                .map_err(|e| format!("governor returned a foreign frequency: {e}"))?;
            next_decision = board.time() + interval;
        }
    }
    Ok((freq_integral, elapsed))
}

/// The warmed, snapshotted board of one archetype: a pinned governor
/// drives the browsing-shaped warm-up with no co-runner, as the fleet's
/// fork-at-warmup requires.
fn warm_snapshot(scenario: &ScenarioConfig, tracer: &mut Tracer) -> Result<BoardSnapshot, String> {
    let WarmupPolicy::Pinned(pin) = scenario.warmup_policy else {
        return Err("fleet warm-up must be pinned".into());
    };
    let mut board = Board::new(scenario.board.clone(), scenario.seed);
    if !scenario.warmup.is_zero() {
        let (main, aux) = warmup_tasks();
        board
            .assign(BROWSER_MAIN_CORE, Box::new(main))
            .and_then(|()| board.assign(BROWSER_AUX_CORE, Box::new(aux)))
            .map_err(|e| e.to_string())?;
        let until = board.time() + scenario.warmup;
        let mut governor = PinnedGovernor::new("warmup-pin", pin);
        govern_until(&mut board, &mut governor, until, false, tracer, None)?;
        board
            .clear_core(BROWSER_MAIN_CORE)
            .and_then(|_| board.clear_core(BROWSER_AUX_CORE))
            .map_err(|e| e.to_string())?;
    }
    Ok(board.snapshot())
}

/// One governed page load on a board forked from the archetype snapshot,
/// measured as the campaign runner measures it.
#[allow(clippy::too_many_arguments)]
fn measured_load(
    policy: Policy,
    spec: &dora_campaign::fleet::SessionSpec,
    archetype: &DeviceArchetype,
    fleet_seed: u64,
    snapshot: &BoardSnapshot,
    scenario: &ScenarioConfig,
    models: Option<&DoraModels>,
    tracer: &mut Tracer,
) -> Result<RunResult, String> {
    let page = &spec.workload.page;
    let kernel = &spec.workload.kernel;
    let mut governor = tracer.span("governors.new", None, || {
        make_governor(policy, page.features, models, scenario)
    })?;
    let mut board = tracer.span("soc.new", None, || {
        Board::new(archetype.board.clone(), fleet_seed)
    });
    tracer
        .span("soc.restore", None, || board.restore(snapshot))
        .map_err(|e| format!("snapshot fork failed: {e}"))?;
    let corunner = tracer.span("coworkloads.spawn", None, || kernel.spawn(spec.seed));
    let job = tracer.span("browser.spawn", None, || {
        RenderEngine::default().spawn(page, scenario.seed)
    });
    tracer
        .span("soc.assign", None, || {
            board.assign(CORUN_CORE, Box::new(corunner))?;
            board.assign(BROWSER_MAIN_CORE, Box::new(job.main))?;
            board.assign(BROWSER_AUX_CORE, Box::new(job.aux))
        })
        .map_err(|e| format!("assignment failed: {e}"))?;

    let t0 = board.time();
    let e0 = board.energy();
    let switches0 = board.switch_count();
    let snap0 = board.counter_set().snapshot();
    let dora = (policy == Policy::Dora).then(|| core_names(&archetype.board));
    let (freq_integral, governed_s) = govern_until(
        &mut board,
        governor.as_mut(),
        t0 + scenario.timeout,
        true,
        tracer,
        dora,
    )?;

    let timed_out = !board.task_finished(BROWSER_MAIN_CORE);
    let load_time = match board.finish_time(BROWSER_MAIN_CORE) {
        Some(t) if !timed_out => Seconds::new(t.duration_since(t0).as_secs_f64()),
        _ => Seconds::new(scenario.timeout.as_secs_f64()),
    };
    let wall = Seconds::new(board.time().duration_since(t0).as_secs_f64().max(1e-9));
    let energy = board.energy() - e0;
    let mean_power = energy / wall;
    let delta = board.counter_set().snapshot().delta(&snap0);
    Ok(RunResult {
        workload_id: spec.workload.id(),
        page: page.name.to_string(),
        kernel: kernel.name().to_string(),
        intensity: Some(kernel.intensity()),
        training: page.training,
        governor: PolicyName::from(governor.name()),
        load_time,
        mean_power,
        energy,
        ppw: Ppw::from_time_power(load_time, mean_power),
        met_deadline: !timed_out && load_time <= scenario.deadline,
        timed_out,
        switches: board.switch_count() - switches0,
        mean_frequency: if governed_s > 0.0 {
            Frequency::from_mhz(freq_integral / governed_s * 1000.0)
        } else {
            board.frequency()
        },
        final_temp: board.temperature(),
        mean_mpki: delta.shared_l2_mpki(),
        corun_utilization: delta.core(CORUN_CORE).utilization(),
        corun_instructions: delta.core(CORUN_CORE).instructions,
    })
}

/// Rebuilds the batch of `config` from the public building blocks, with
/// `tracer` recording every layer call. The result must equal
/// [`program_batch`]'s for the same config.
///
/// # Errors
///
/// A rendered description of the first failing call.
pub fn composed_batch(
    config: &FleetConfig,
    models: Option<&DoraModels>,
    tracer: &mut Tracer,
) -> Result<BatchOutcome, String> {
    let sampler = SessionSampler::new(config.archetypes.clone());
    let scenarios: Vec<ScenarioConfig> = sampler
        .archetypes()
        .iter()
        .map(|a| {
            ScenarioConfig::builder()
                .seed(config.seed)
                .board(a.board.clone())
                .deadline(config.deadline)
                .warmup(config.warmup)
                .warmup_policy(WarmupPolicy::Pinned(
                    a.board.dvfs.nearest(config.warmup_pin),
                ))
                .timeout(config.timeout)
                .build()
        })
        .collect();
    let mut snapshots = Vec::with_capacity(scenarios.len());
    for scenario in &scenarios {
        tracer.open("campaign.warmup", None);
        let snapshot = warm_snapshot(scenario, tracer);
        tracer.close();
        snapshots.push(snapshot?);
    }

    let names: Vec<&str> = config.policies.iter().map(|p| p.name()).collect();
    let shard_size = config.shard_size.max(1);
    let mut merged: Vec<GovernorSheet> = names.iter().map(|n| GovernorSheet::new(n)).collect();
    let mut shards = 0;
    let mut start = 0;
    while start < config.sessions {
        let end = (start + shard_size).min(config.sessions);
        let mut shard: Vec<GovernorSheet> = names.iter().map(|n| GovernorSheet::new(n)).collect();
        for index in start..end {
            tracer.open("campaign.session", Some(index));
            let session = composed_session(
                config, index, &sampler, &scenarios, &snapshots, models, &mut shard, tracer,
            );
            tracer.close();
            session?;
        }
        tracer
            .span("campaign.merge", None, || {
                merged
                    .iter_mut()
                    .zip(&shard)
                    .try_for_each(|(total, part)| total.merge(part))
            })
            .map_err(|e| format!("shard merge failed: {e}"))?;
        shards += 1;
        start = end;
    }
    Ok(BatchOutcome {
        seed: config.seed,
        sessions: config.sessions,
        shards,
        sheets: merged,
    })
}

#[allow(clippy::too_many_arguments)]
fn composed_session(
    config: &FleetConfig,
    index: u64,
    sampler: &SessionSampler,
    scenarios: &[ScenarioConfig],
    snapshots: &[BoardSnapshot],
    models: Option<&DoraModels>,
    shard: &mut [GovernorSheet],
    tracer: &mut Tracer,
) -> Result<(), String> {
    let spec = tracer.span("campaign.sample", Some(index), || {
        sampler.sample(config.seed, index)
    });
    let archetype = &sampler.archetypes()[spec.archetype];
    let scenario = scenarios[spec.archetype]
        .to_builder()
        .seed(spec.seed)
        .build();
    let battery = archetype.battery.at_charge(spec.charge);
    for (sheet, &policy) in shard.iter_mut().zip(&config.policies) {
        tracer.open("campaign.load", Some(index));
        let result = measured_load(
            policy,
            &spec,
            archetype,
            config.seed,
            &snapshots[spec.archetype],
            &scenario,
            models,
            tracer,
        );
        tracer.close();
        let result = result?;
        tracer.span("sim-core.record", Some(index), || {
            sheet.record(&result, battery)
        });
    }
    Ok(())
}

/// Mean PPW of `governor` over `sheets`.
pub fn mean_ppw(sheets: &[GovernorSheet], governor: &str) -> f64 {
    sheets
        .iter()
        .find(|s| s.governor == governor)
        .map_or(f64::NAN, |s| s.ppw.mean())
}

/// Folds `batch` into the running per-governor totals.
///
/// # Errors
///
/// The sketch-shape mismatch, rendered.
pub fn accumulate(totals: &mut Vec<GovernorSheet>, batch: &[GovernorSheet]) -> Result<(), String> {
    if totals.is_empty() {
        totals.extend(batch.iter().map(|s| GovernorSheet::new(&s.governor)));
    }
    for (total, sheet) in totals.iter_mut().zip(batch) {
        total.merge(sheet).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// DORA's simulated governed seconds in `sheets` divided by its decision
/// interval: the number of decision intervals DORA governed.
pub fn dora_decision_intervals(sheets: &[GovernorSheet]) -> f64 {
    let interval = DoraConfig::default().decision_interval.as_secs_f64();
    sheets
        .iter()
        .find(|s| s.governor == Policy::Dora.name())
        .map_or(0.0, |s| s.load_time.sum() / interval)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(profile: &SocProfile) -> FleetConfig {
        FleetConfig {
            sessions: 2,
            shard_size: 1,
            policies: vec![Policy::Interactive, Policy::Powersave],
            ..batch_config(profile, 11, 0)
        }
    }

    #[test]
    fn outcome_digest_matches_the_report_digest() {
        let config = tiny(&SocProfile::msm8974());
        let report = CampaignDriver::new()
            .fleet(&config, None)
            .expect("baselines need no models");
        let outcome = BatchOutcome {
            seed: report.seed,
            sessions: report.sessions,
            shards: report.shards,
            sheets: report.sheets().to_vec(),
        };
        assert_eq!(outcome.digest(), report.digest());
    }

    #[test]
    fn composed_batch_reproduces_the_program_on_both_profiles() {
        for profile in [SocProfile::msm8974(), SocProfile::biglittle_a15a7()] {
            let config = tiny(&profile);
            let report = CampaignDriver::new().fleet(&config, None).expect("runs");
            let mut tracer = Tracer::on();
            let composed = composed_batch(&config, None, &mut tracer).expect("composes");
            assert_eq!(composed.digest(), report.digest(), "{}", profile.name());
            assert_eq!(composed.shards, 2);
            assert!(tracer.counter("soc.step").calls > 0);
            assert_eq!(tracer.span_total("campaign.session").count, 2);
            assert_eq!(tracer.span_total("campaign.load").count, 4);
        }
    }

    #[test]
    fn batches_are_distinct_sessions() {
        let profile = SocProfile::msm8974();
        let seeds: std::collections::BTreeSet<u64> =
            (0..64).map(|b| batch_config(&profile, 5, b).seed).collect();
        assert_eq!(seeds.len(), 64);
    }
}

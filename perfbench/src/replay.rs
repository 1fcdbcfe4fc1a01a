//! The decide-replay workload: Algorithm 1 on recorded observation
//! streams, with no board stepping.
//!
//! Set-up records one stream per governed page load: every
//! `GovernorObservation` DORA received and the operating point it chose.
//! The window replays the streams in passes through fresh governors. The
//! replay is closed-loop: each observation carries the point the replaying
//! governor chose one interval earlier, as the board would have. Pass 0 of
//! each profile replays the streams unchanged and must reproduce every
//! recorded choice; every later pass nudges temperature and shared-L2
//! MPKI by its own small offsets, so no two passes ask Algorithm 1 the
//! same question.

use crate::fleet::CoreNames;
use crate::stats::mix;
use crate::trace::Tracer;
use dora::{DoraConfig, DoraGovernor, DoraModels, HeterogeneousDoraGovernor};
use dora_browser::{Catalog, PageFeatures};
use dora_campaign::runner::{run_page, ScenarioConfig, WarmupPolicy};
use dora_coworkloads::Kernel;
use dora_governors::{Governor, GovernorObservation};
use dora_sim_core::sketch::Digest64;
use dora_sim_core::units::{Celsius, Mpki};
use dora_sim_core::{Rng, SimDuration};
use dora_soc::board::BoardConfig;
use dora_soc::{ClusterId, Frequency, OperatingPoint};

/// One recorded governed load.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    /// The page DORA was optimizing for.
    pub page: PageFeatures,
    /// Every observation, in decision order.
    pub observations: Vec<GovernorObservation>,
    /// The point DORA chose for each observation.
    pub chosen: Vec<OperatingPoint>,
}

/// Wraps a governor and records what it saw and chose.
#[derive(Debug)]
pub struct Recorder {
    inner: Box<dyn Governor>,
    observations: Vec<GovernorObservation>,
    chosen: Vec<OperatingPoint>,
}

impl Recorder {
    /// Records `inner`'s decisions.
    pub fn new(inner: Box<dyn Governor>) -> Recorder {
        Recorder {
            inner,
            observations: Vec::new(),
            chosen: Vec::new(),
        }
    }

    /// The recorded stream of a load of `page`.
    pub fn into_stream(self, page: PageFeatures) -> Stream {
        Stream {
            page,
            observations: self.observations,
            chosen: self.chosen,
        }
    }
}

impl Governor for Recorder {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decision_interval(&self) -> SimDuration {
        self.inner.decision_interval()
    }

    fn decide(&mut self, observation: &GovernorObservation) -> Frequency {
        self.decide_point(observation).frequency
    }

    fn decide_point(&mut self, observation: &GovernorObservation) -> OperatingPoint {
        let point = self.inner.decide_point(observation);
        self.observations.push(observation.clone());
        self.chosen.push(point);
        point
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn page_changed(&mut self, page: &PageFeatures) {
        self.inner.page_changed(page);
    }
}

/// A fresh DORA governor for `board` in its default configuration (the
/// paper's DORA with leakage, 3 s deadline): the 1-D search on one
/// cluster, the (cluster, F) product-space search on several.
#[derive(Debug)]
pub enum Replayer {
    /// One cluster.
    Homogeneous(Box<DoraGovernor>),
    /// Several clusters.
    Heterogeneous(HeterogeneousDoraGovernor),
}

impl Replayer {
    /// A governor with no decision history.
    pub fn fresh(models: &DoraModels, board: &BoardConfig, page: PageFeatures) -> Replayer {
        if board.clusters.len() > 1 {
            Replayer::Heterogeneous(HeterogeneousDoraGovernor::from_profile(
                models,
                board,
                page,
                DoraConfig::default(),
            ))
        } else {
            Replayer::Homogeneous(Box::new(DoraGovernor::new(
                models.clone(),
                page,
                DoraConfig::default(),
            )))
        }
    }

    /// The governor, boxed for the campaign runner.
    pub fn into_governor(self) -> Box<dyn Governor> {
        match self {
            Replayer::Homogeneous(g) => g,
            Replayer::Heterogeneous(g) => Box::new(g),
        }
    }

    fn governor(&mut self) -> &mut dyn Governor {
        match self {
            Replayer::Homogeneous(g) => g.as_mut(),
            Replayer::Heterogeneous(g) => g,
        }
    }

    /// Reads the last decision: candidates scored, whether any was
    /// feasible, and the predicted PPW and feasibility of `chosen` and of
    /// the fastest point of the observed cluster.
    fn inspect(&self, chosen: OperatingPoint, observed: usize) -> Option<Inspection> {
        match self {
            Replayer::Homogeneous(g) => {
                let d = g.last_decision()?;
                let row = d.curve.iter().find(|p| p.frequency == chosen.frequency)?;
                let fmax = d.curve.iter().max_by_key(|p| p.frequency.as_khz())?;
                Some(Inspection {
                    candidates: d.curve.len() as u64,
                    feasible: d.feasible,
                    chosen_ppw: row.ppw.value(),
                    chosen_feasible: row.feasible,
                    fmax_ppw: fmax.ppw.value(),
                })
            }
            Replayer::Heterogeneous(g) => {
                let d = g.last_decision()?;
                let row = d.curve.iter().find(|p| p.point == chosen)?;
                let fmax = d
                    .curve
                    .iter()
                    .filter(|p| p.point.cluster.index() == observed)
                    .max_by_key(|p| p.point.frequency.as_khz())?;
                Some(Inspection {
                    candidates: d.curve.len() as u64,
                    feasible: d.feasible,
                    chosen_ppw: row.ppw.value(),
                    chosen_feasible: row.feasible,
                    fmax_ppw: fmax.ppw.value(),
                })
            }
        }
    }
}

struct Inspection {
    candidates: u64,
    feasible: bool,
    chosen_ppw: f64,
    chosen_feasible: bool,
    fmax_ppw: f64,
}

/// Records the streams of one SoC profile: every catalog page under every
/// co-runner, each load with its own jitter seed drawn from `seed`. Loads
/// start from a pinned 2 s warm-up, so a stream holds the measured load
/// only.
///
/// # Panics
///
/// Panics if the runner rejects DORA's operating point (a governor bug).
pub fn record_streams(models: &DoraModels, board: &BoardConfig, seed: u64) -> Vec<Stream> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut streams = Vec::new();
    for page in Catalog::alexa18().pages() {
        for kernel in Kernel::all() {
            let scenario = ScenarioConfig::builder()
                .seed(rng.next_u64())
                .board(board.clone())
                .warmup(SimDuration::from_secs(2))
                .warmup_policy(WarmupPolicy::Pinned(
                    board.dvfs.nearest(Frequency::from_mhz(1190.4)),
                ))
                .build();
            let governor = Replayer::fresh(models, board, page.features).into_governor();
            let mut recorder = Recorder::new(governor);
            run_page(page, Some(&kernel), &mut recorder, &scenario);
            streams.push(recorder.into_stream(page.features));
        }
    }
    streams
}

/// How one pass nudges the recorded observations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Nudge {
    /// Added to the die temperature, °C.
    pub temperature: f64,
    /// Multiplies the shared-L2 MPKI.
    pub mpki_scale: f64,
}

impl Nudge {
    /// The unchanged replay.
    pub const NONE: Nudge = Nudge {
        temperature: 0.0,
        mpki_scale: 1.0,
    };

    /// Pass `pass` of the replay of workload seed `seed`: pass 0 is
    /// [`Nudge::NONE`], later passes draw ±0.5 °C and ±2 % MPKI.
    pub fn for_pass(seed: u64, pass: u64) -> Nudge {
        if pass == 0 {
            return Nudge::NONE;
        }
        let mut rng = Rng::seed_from_u64(mix(seed, pass));
        Nudge {
            temperature: rng.range_f64(-0.5, 0.5),
            mpki_scale: rng.range_f64(0.98, 1.02),
        }
    }
}

/// Running totals of a replay.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplayTotals {
    /// Decisions replayed.
    pub decisions: u64,
    /// Candidates Algorithm 1 scored.
    pub candidates: u64,
    /// Decisions with no feasible candidate.
    pub infeasible: u64,
    /// Decisions whose chosen point is predicted to meet the deadline.
    pub chosen_feasible: u64,
    /// Sum of the chosen points' predicted PPW.
    pub chosen_ppw: f64,
    /// Sum of the predicted PPW at the observed cluster's fastest point.
    pub fmax_ppw: f64,
    /// Unchanged-pass decisions that differ from the recorded choice.
    pub mismatches: u64,
}

impl ReplayTotals {
    /// Adds `other`'s totals to these.
    pub fn absorb(&mut self, other: &ReplayTotals) {
        self.decisions += other.decisions;
        self.candidates += other.candidates;
        self.infeasible += other.infeasible;
        self.chosen_feasible += other.chosen_feasible;
        self.chosen_ppw += other.chosen_ppw;
        self.fmax_ppw += other.fmax_ppw;
        self.mismatches += other.mismatches;
    }
}

/// Replays every stream once, nudged by `nudge`, folding each chosen
/// (cluster, F) into `digest` and the outcome into `totals`. Algorithm 1
/// calls go into counter `names.decide` of `tracer`.
#[allow(clippy::too_many_arguments)]
pub fn replay_pass(
    streams: &[Stream],
    models: &DoraModels,
    board: &BoardConfig,
    nudge: Nudge,
    digest: &mut Digest64,
    totals: &mut ReplayTotals,
    tracer: &mut Tracer,
    names: CoreNames,
) {
    for stream in streams {
        let Some(first) = stream.observations.first() else {
            continue;
        };
        let mut replayer = Replayer::fresh(models, board, stream.page);
        let mut obs = first.clone();
        let mut current = OperatingPoint {
            cluster: ClusterId::new(first.cluster),
            frequency: first.frequency,
        };
        for (recorded, &expected) in stream.observations.iter().zip(&stream.chosen) {
            obs.now = recorded.now;
            obs.interval = recorded.interval;
            obs.frequency = current.frequency;
            obs.cluster = current.cluster.index();
            obs.per_core_utilization
                .clone_from(&recorded.per_core_utilization);
            obs.shared_l2_mpki = Mpki::clamped(recorded.shared_l2_mpki.value() * nudge.mpki_scale);
            obs.corun_utilization = recorded.corun_utilization;
            obs.temperature = Celsius::new(recorded.temperature.value() + nudge.temperature);
            let governor = replayer.governor();
            let point = tracer.time(names.decide, || governor.decide_point(&obs));
            digest.write_u64(point.cluster.index() as u64);
            digest.write_u64(point.frequency.as_khz());
            totals.decisions += 1;
            if nudge == Nudge::NONE && point != expected {
                totals.mismatches += 1;
            }
            match replayer.inspect(point, obs.cluster) {
                Some(seen) => {
                    tracer.add_detail(names.candidates, seen.candidates, 0);
                    tracer.add_detail(names.infeasible, u64::from(!seen.feasible), 0);
                    totals.candidates += seen.candidates;
                    totals.infeasible += u64::from(!seen.feasible);
                    totals.chosen_feasible += u64::from(seen.chosen_feasible);
                    totals.chosen_ppw += seen.chosen_ppw;
                    totals.fmax_ppw += seen.fmax_ppw;
                }
                None => totals.mismatches += 1,
            }
            current = point;
        }
    }
}

/// Decisions in one pass over `streams`.
pub fn decisions_per_pass(streams: &[Stream]) -> u64 {
    streams.iter().map(|s| s.observations.len() as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::CORE_MSM8974;
    use dora::trainer::{train, TrainerConfig};
    use dora_campaign::driver::CampaignDriver;
    use dora_campaign::training::TrainingCampaignConfig;
    use dora_campaign::workload::WorkloadSet;
    use dora_soc::SocProfile;

    /// Models trained on a small grid: enough for DORA to run.
    fn small_models() -> DoraModels {
        let scenario = ScenarioConfig::builder()
            .seed(42)
            .warmup(SimDuration::from_secs(1))
            .build();
        let set = WorkloadSet::paper54();
        let subset = WorkloadSet::from_workloads(
            set.workloads()
                .iter()
                .filter(|w| w.is_training())
                .step_by(4)
                .cloned()
                .collect(),
        );
        let frequencies = scenario.board.dvfs.frequencies().step_by(3).collect();
        let driver = CampaignDriver::new();
        let observations = driver.training_campaign(
            &subset,
            &TrainingCampaignConfig {
                scenario: scenario.clone(),
                frequencies: Some(frequencies),
            },
        );
        let leakage =
            driver.leakage_calibration(&scenario.board, &[5.0, 25.0, 45.0].map(Celsius::new));
        train(
            &observations,
            &leakage,
            &scenario.board.dvfs,
            TrainerConfig::default(),
        )
        .expect("small grid is identifiable")
    }

    fn one_stream(models: &DoraModels, board: &BoardConfig) -> Stream {
        let catalog = Catalog::alexa18();
        let page = &catalog.pages()[0];
        let kernel = Kernel::by_name("backprop").expect("in suite");
        let scenario = ScenarioConfig::builder()
            .seed(3)
            .board(board.clone())
            .warmup(SimDuration::from_secs(1))
            .warmup_policy(WarmupPolicy::Pinned(board.dvfs.max_frequency()))
            .build();
        let governor = Replayer::fresh(models, board, page.features).into_governor();
        let mut recorder = Recorder::new(governor);
        run_page(page, Some(&kernel), &mut recorder, &scenario);
        recorder.into_stream(page.features)
    }

    #[test]
    fn recorded_streams_round_trip_through_a_fresh_governor() {
        let models = small_models();
        for profile in [SocProfile::msm8974(), SocProfile::biglittle_a15a7()] {
            let board = profile.board_config();
            let stream = one_stream(&models, &board);
            assert!(stream.observations.len() > 3, "{}", profile.name());
            assert_eq!(stream.observations.len(), stream.chosen.len());
            let mut totals = ReplayTotals::default();
            let mut digest = Digest64::new();
            let mut tracer = Tracer::on();
            let streams = [stream];
            replay_pass(
                &streams,
                &models,
                &board,
                Nudge::NONE,
                &mut digest,
                &mut totals,
                &mut tracer,
                CORE_MSM8974,
            );
            assert_eq!(totals.mismatches, 0, "{}", profile.name());
            assert_eq!(totals.decisions, decisions_per_pass(&streams));
            assert_eq!(tracer.counter(CORE_MSM8974.decide).calls, totals.decisions);
            assert!(totals.candidates >= totals.decisions * board.dvfs.len() as u64);

            // The same replay with the tracer off folds the same digest.
            let mut again = Digest64::new();
            let mut quiet = ReplayTotals::default();
            replay_pass(
                &streams,
                &models,
                &board,
                Nudge::NONE,
                &mut again,
                &mut quiet,
                &mut Tracer::off(),
                CORE_MSM8974,
            );
            assert_eq!(again.finish(), digest.finish());
            assert_eq!(quiet, totals);
        }
    }

    #[test]
    fn a_tampered_stream_counts_as_mismatches() {
        let models = small_models();
        let board = SocProfile::msm8974().board_config();
        let mut stream = one_stream(&models, &board);
        let last = stream.chosen.len() - 1;
        stream.chosen[last].frequency = Frequency::from_mhz(1.0);
        let mut totals = ReplayTotals::default();
        replay_pass(
            &[stream],
            &models,
            &board,
            Nudge::NONE,
            &mut Digest64::new(),
            &mut totals,
            &mut Tracer::off(),
            CORE_MSM8974,
        );
        assert_eq!(totals.mismatches, 1);
    }

    #[test]
    fn passes_after_the_first_are_distinct_nudges() {
        assert_eq!(Nudge::for_pass(9, 0), Nudge::NONE);
        let nudges: Vec<Nudge> = (1..200).map(|p| Nudge::for_pass(9, p)).collect();
        for (i, a) in nudges.iter().enumerate() {
            assert!(a.temperature.abs() <= 0.5 && (a.mpki_scale - 1.0).abs() <= 0.02);
            assert!(nudges[i + 1..].iter().all(|b| b != a));
        }
    }
}

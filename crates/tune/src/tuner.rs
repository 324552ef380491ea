//! The search loop (simulated-annealing ALNS), the promotion gate, and
//! the live fleet harness.

use crate::evaluator::Evaluator;
use crate::operators::{Operator, OperatorBank, REWARD_ACCEPTED, REWARD_IMPROVED, REWARD_NEW_BEST};
use crate::point::PolicyPoint;
use aging_adapt::{ClassSpec, ServiceClass};
use aging_ml::Regressor;
use aging_obs::{
    CounterHandle, EventKind, EventScope, GaugeHandle, HistogramHandle, Recorder, Registry,
    TraceHandle, Unit,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

/// Maps a possibly-infinite objective to its serialisable form.
fn finite(objective_secs: f64) -> Option<f64> {
    objective_secs.is_finite().then_some(objective_secs)
}

/// Decides whether a searched candidate may displace the incumbent.
///
/// The gate is deliberately strict: the candidate's objective must be
/// finite and beat the incumbent's by more than the configured
/// fractional margin — `candidate < incumbent × (1 − min_improvement)`.
/// Ties and within-margin wins never promote, so measurement noise
/// cannot churn the live configuration. Objectives are non-negative
/// seconds; an infinite (unscoreable) incumbent is beaten by any finite
/// candidate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PromotionGate {
    /// Required fractional improvement over the incumbent, in `[0, 1)`.
    /// `0.0` still rejects ties (the comparison is strict).
    pub min_improvement: f64,
}

impl Default for PromotionGate {
    /// A 5 % margin.
    fn default() -> Self {
        PromotionGate { min_improvement: 0.05 }
    }
}

impl PromotionGate {
    /// A gate requiring `min_improvement` fractional improvement.
    ///
    /// # Panics
    ///
    /// Panics unless `min_improvement` is in `[0, 1)`.
    #[must_use]
    pub fn new(min_improvement: f64) -> Self {
        let gate = PromotionGate { min_improvement };
        gate.validate();
        gate
    }

    pub(crate) fn validate(&self) {
        assert!(
            (0.0..1.0).contains(&self.min_improvement),
            "promotion margin must be in [0, 1), got {}",
            self.min_improvement
        );
    }

    /// `true` when `candidate_objective_secs` beats
    /// `incumbent_objective_secs` by more than the margin.
    #[must_use]
    pub fn promotes(&self, candidate_objective_secs: f64, incumbent_objective_secs: f64) -> bool {
        candidate_objective_secs.is_finite()
            && candidate_objective_secs < incumbent_objective_secs * (1.0 - self.min_improvement)
    }
}

/// Tuning for one search run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuneConfig {
    /// RNG seed — same seed, same journal, same incumbent ⇒ bit-identical
    /// search.
    pub seed: u64,
    /// Candidates evaluated per search.
    pub candidates: u64,
    /// Initial annealing temperature as a fraction of the incumbent
    /// objective (floored at 1 s; 1 s flat when the incumbent is
    /// unscoreable).
    pub initial_temperature: f64,
    /// Geometric cooling factor per candidate, in `(0, 1]`.
    pub cooling: f64,
    /// ALNS weight-update reaction factor `ρ`, in `(0, 1]`.
    pub reaction: f64,
    /// Objective seconds charged per replayed retrain.
    pub retrain_penalty_secs: f64,
    /// Replay every candidate twice and reject digest mismatches.
    pub verify_digest_stability: bool,
    /// The promotion gate.
    pub gate: PromotionGate,
}

impl Default for TuneConfig {
    fn default() -> Self {
        TuneConfig {
            seed: 42,
            candidates: 24,
            initial_temperature: 0.1,
            cooling: 0.92,
            reaction: 0.2,
            retrain_penalty_secs: 0.0,
            verify_digest_stability: false,
            gate: PromotionGate::default(),
        }
    }
}

impl TuneConfig {
    pub(crate) fn validate(&self) {
        assert!(self.candidates > 0, "a search needs at least one candidate");
        assert!(
            self.cooling > 0.0 && self.cooling <= 1.0,
            "cooling factor must be in (0, 1], got {}",
            self.cooling
        );
        assert!(
            self.initial_temperature.is_finite() && self.initial_temperature >= 0.0,
            "initial temperature fraction must be finite and ≥ 0"
        );
        assert!(
            self.reaction > 0.0 && self.reaction <= 1.0,
            "reaction factor must be in (0, 1], got {}",
            self.reaction
        );
        assert!(
            self.retrain_penalty_secs.is_finite() && self.retrain_penalty_secs >= 0.0,
            "retrain penalty must be finite and ≥ 0"
        );
        self.gate.validate();
    }
}

/// One scored candidate in a search trajectory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateRecord {
    /// Zero-based candidate index.
    pub round: u64,
    /// The operator that generated the candidate.
    pub operator: Operator,
    /// The candidate's objective (seconds); `None` when unscoreable.
    pub objective_secs: Option<f64>,
    /// Whether simulated annealing accepted it as the new position.
    pub accepted: bool,
    /// Whether it became the best point seen so far.
    pub new_best: bool,
    /// Best objective *after* this candidate — a monotone non-increasing
    /// trajectory by construction, which `check_tune` asserts.
    pub best_objective_secs: Option<f64>,
}

/// Final selection weight of one operator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OperatorWeight {
    /// The operator.
    pub operator: Operator,
    /// Its weight when the search ended.
    pub weight: f64,
}

/// Everything one search run produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchOutcome {
    /// The incumbent the search tried to beat.
    pub incumbent: PolicyPoint,
    /// The incumbent's replayed objective (seconds).
    pub incumbent_objective_secs: Option<f64>,
    /// The best point found (the incumbent itself if nothing beat it).
    pub best: PolicyPoint,
    /// The best point's objective (seconds).
    pub best_objective_secs: Option<f64>,
    /// Fractional improvement over the incumbent, when both are finite.
    pub improvement: Option<f64>,
    /// Whether the promotion gate fired for `best`.
    pub promoted: bool,
    /// Candidates accepted by simulated annealing.
    pub accepted: u64,
    /// The full per-candidate trajectory, in evaluation order.
    pub candidates: Vec<CandidateRecord>,
    /// Final ALNS selection weights.
    pub operator_weights: Vec<OperatorWeight>,
}

/// One seeded simulated-annealing ALNS search over [`PolicyPoint`]s.
///
/// The loop is classic destroy-and-repair: an adaptively weighted
/// [`OperatorBank`] proposes a neighbour of the current position, the
/// [`Evaluator`] replays the journal under it, and acceptance is
/// simulated annealing — improving candidates always move the position,
/// worse ones move it with probability `exp(−Δ/T)` under a geometrically
/// cooling temperature. Everything is driven by one seeded
/// [`StdRng`], so a search is bit-reproducible given the same journal,
/// incumbent and config.
#[derive(Debug, Clone)]
pub struct Tuner {
    config: TuneConfig,
    trace: TraceHandle,
}

impl Tuner {
    /// A tuner with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is degenerate (zero candidates, a
    /// cooling or reaction factor outside `(0, 1]`, a bad gate margin…).
    #[must_use]
    pub fn new(config: TuneConfig) -> Self {
        config.validate();
        Tuner { config, trace: TraceHandle::disabled() }
    }

    /// Emits `CandidateEvaluated` events for every scored candidate.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }

    /// The tuner's configuration.
    #[must_use]
    pub fn config(&self) -> &TuneConfig {
        &self.config
    }

    /// Runs one full search against `incumbent`, scoring candidates with
    /// `evaluator`.
    ///
    /// # Errors
    ///
    /// Propagates journal read failures from the evaluator.
    pub fn search(
        &self,
        evaluator: &Evaluator,
        incumbent: &PolicyPoint,
    ) -> io::Result<SearchOutcome> {
        let incumbent = incumbent.clamped();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut bank = OperatorBank::new(self.config.reaction);
        let incumbent_objective = evaluator.evaluate(&incumbent)?.objective_secs;

        let mut current = incumbent.clone();
        let mut current_objective = incumbent_objective;
        let mut best = incumbent.clone();
        let mut best_objective = incumbent_objective;
        let mut temperature = if incumbent_objective.is_finite() {
            (self.config.initial_temperature * incumbent_objective.abs()).max(1.0)
        } else {
            1.0
        };
        let mut accepted_count = 0u64;
        let mut candidates = Vec::with_capacity(self.config.candidates as usize);

        for round in 0..self.config.candidates {
            let operator = bank.select(&mut rng);
            let candidate = operator.apply(&current, &incumbent, &mut rng).clamped();
            let objective = evaluator.evaluate(&candidate)?.objective_secs;

            let improved = objective < current_objective;
            let accepted = if improved {
                true
            } else if objective.is_finite() && current_objective.is_finite() {
                // Metropolis: Δ ≥ 0, so exp(−Δ/T) ∈ (0, 1].
                rng.gen_bool(((current_objective - objective) / temperature).exp().min(1.0))
            } else {
                false
            };
            let new_best = objective < best_objective;

            if new_best {
                best = candidate.clone();
                best_objective = objective;
            }
            if accepted {
                current = candidate;
                current_objective = objective;
                accepted_count += 1;
            }
            bank.reward(
                operator,
                if new_best {
                    REWARD_NEW_BEST
                } else if improved {
                    REWARD_IMPROVED
                } else if accepted {
                    REWARD_ACCEPTED
                } else {
                    0.0
                },
            );
            temperature = (temperature * self.config.cooling).max(f64::MIN_POSITIVE);

            self.trace.emit(
                EventScope::root().class(evaluator.class().as_str()),
                EventKind::CandidateEvaluated {
                    round,
                    operator: operator.name().to_string(),
                    objective_secs: finite(objective),
                    accepted,
                },
            );
            candidates.push(CandidateRecord {
                round,
                operator,
                objective_secs: finite(objective),
                accepted,
                new_best,
                best_objective_secs: finite(best_objective),
            });
        }

        let promoted = self.config.gate.promotes(best_objective, incumbent_objective);
        let improvement = (incumbent_objective.is_finite()
            && best_objective.is_finite()
            && incumbent_objective > 0.0)
            .then(|| (incumbent_objective - best_objective) / incumbent_objective);
        Ok(SearchOutcome {
            incumbent,
            incumbent_objective_secs: finite(incumbent_objective),
            best,
            best_objective_secs: finite(best_objective),
            improvement,
            promoted,
            accepted: accepted_count,
            candidates,
            operator_weights: bank
                .weights()
                .into_iter()
                .map(|(operator, weight)| OperatorWeight { operator, weight })
                .collect(),
        })
    }
}

/// One class under live tuning.
#[derive(Debug, Clone)]
pub struct TunedClass {
    /// The routed service class.
    pub class: ServiceClass,
    /// The currently deployed policy, as a search point.
    pub incumbent: PolicyPoint,
    /// The generation-0 model every counterfactual replay starts from.
    pub initial: Arc<dyn Regressor>,
}

/// Live per-class tuning state.
#[derive(Debug)]
struct ClassTunerState {
    class: ServiceClass,
    incumbent: PolicyPoint,
    initial: Arc<dyn Regressor>,
    incumbent_objective_secs: Option<f64>,
    rounds: u64,
    promotions: u64,
    objective_gauge: GaugeHandle,
}

/// Telemetry handles, resolved once when a registry is attached.
#[derive(Debug)]
struct TuneInstruments {
    rounds: CounterHandle,
    candidates: CounterHandle,
    accepted: CounterHandle,
    promotions: CounterHandle,
    round_duration: HistogramHandle,
}

impl TuneInstruments {
    fn disabled() -> Self {
        TuneInstruments {
            rounds: CounterHandle::disabled(),
            candidates: CounterHandle::disabled(),
            accepted: CounterHandle::disabled(),
            promotions: CounterHandle::disabled(),
            round_duration: HistogramHandle::disabled(),
        }
    }

    fn resolve(registry: &Registry) -> Self {
        TuneInstruments {
            rounds: registry.counter("tune_rounds_total", "Policy-search rounds completed"),
            candidates: registry
                .counter("tune_candidates_total", "Policy-search candidates evaluated"),
            accepted: registry
                .counter("tune_accepted_total", "Candidates accepted by simulated annealing"),
            promotions: registry
                .counter("tune_promotions_total", "Policies promoted through the gate"),
            round_duration: registry.histogram(
                "tune_round_seconds",
                "Wall-clock duration of one policy-search round",
                Unit::Seconds,
            ),
        }
    }
}

/// Serialisable snapshot of what a [`FleetTuner`] has done so far.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuneStats {
    /// Search rounds completed across all classes.
    pub rounds: u64,
    /// Candidates evaluated in total.
    pub candidates: u64,
    /// Candidates accepted by simulated annealing.
    pub accepted: u64,
    /// Promotions that fired.
    pub promotions: u64,
    /// Per-class state, in registration order.
    pub classes: Vec<ClassTuneStats>,
    /// Rounds that could not read the journal: a missing directory, an
    /// I/O error or mid-log corruption. 0 in reports written before
    /// failures were counted.
    #[serde(default)]
    pub failed_rounds: u64,
    /// Gate-approved promotions the live system refused to apply (the
    /// closure handed to [`FleetTuner::round`] returned `false`).
    #[serde(default)]
    pub failed_promotions: u64,
}

/// One class's slice of [`TuneStats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassTuneStats {
    /// The class name.
    pub class: String,
    /// Search rounds run against this class.
    pub rounds: u64,
    /// Promotions this class received.
    pub promotions: u64,
    /// The replayed objective of the current incumbent (seconds), from
    /// the most recent round.
    pub incumbent_objective_secs: Option<f64>,
    /// The current incumbent point.
    pub incumbent: PolicyPoint,
}

/// Drives repeated search rounds against a live fleet's journal.
///
/// The harness round-robins over its classes: each [`FleetTuner::round`]
/// runs one full seeded search for one class, scoring the incumbent and
/// every candidate on one read of the journal, updates that class's
/// incumbent when the gate fires, and hands the winner's spec to the
/// caller's closure — a tuned fleet's leader step, which applies it with
/// [`AdaptiveRouter::apply_spec`](aging_adapt::AdaptiveRouter::apply_spec)
/// at a cut. Per-round seeds derive from the base seed, the class index
/// and the class's round counter, so a run that starts its rounds at the
/// same journal prefixes repeats them bit for bit. The tuner keeps its own
/// failure books: a round that cannot read the journal and a promotion the
/// closure refuses are counted in [`TuneStats`].
#[derive(Debug)]
pub struct FleetTuner {
    journal_dir: PathBuf,
    feature_names: Vec<String>,
    config: TuneConfig,
    classes: Vec<ClassTunerState>,
    next_class: usize,
    rounds: u64,
    candidates: u64,
    accepted: u64,
    promotions: u64,
    failed_rounds: u64,
    failed_promotions: u64,
    trace: TraceHandle,
    instruments: TuneInstruments,
}

impl FleetTuner {
    /// A tuner over the journal at `journal_dir` for the given classes.
    ///
    /// # Panics
    ///
    /// Panics when `config` is degenerate (see [`Tuner::new`]).
    #[must_use]
    pub fn new(
        journal_dir: impl Into<PathBuf>,
        feature_names: Vec<String>,
        config: TuneConfig,
        classes: Vec<TunedClass>,
    ) -> Self {
        config.validate();
        FleetTuner {
            journal_dir: journal_dir.into(),
            feature_names,
            config,
            classes: classes
                .into_iter()
                .map(|c| ClassTunerState {
                    class: c.class,
                    incumbent: c.incumbent.clamped(),
                    initial: c.initial,
                    incumbent_objective_secs: None,
                    rounds: 0,
                    promotions: 0,
                    objective_gauge: GaugeHandle::disabled(),
                })
                .collect(),
            next_class: 0,
            rounds: 0,
            candidates: 0,
            accepted: 0,
            promotions: 0,
            failed_rounds: 0,
            failed_promotions: 0,
            trace: TraceHandle::disabled(),
            instruments: TuneInstruments::disabled(),
        }
    }

    /// Resolves the `tune_*` metric families against `registry`.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.instruments = TuneInstruments::resolve(registry);
        for state in &mut self.classes {
            state.objective_gauge = registry.gauge_with(
                "tune_incumbent_objective_secs",
                "Replayed objective of the deployed policy",
                "class",
                state.class.as_str(),
            );
        }
    }

    /// Emits `CandidateEvaluated` / `TuneRoundCompleted` /
    /// `PolicyPromoted` events through `trace`.
    pub fn attach_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Runs one search round for the next class in round-robin order and
    /// hands a gate-approved winner to `apply` as the class and the spec
    /// to publish; the incumbent is already advanced. `apply` returns
    /// whether the live system took the spec. A round that cannot read the
    /// journal counts in [`TuneStats::failed_rounds`], a refused spec in
    /// [`TuneStats::failed_promotions`].
    pub fn round(&mut self, mut apply: impl FnMut(&ServiceClass, ClassSpec) -> bool) {
        match self.step() {
            Ok(Some((class, spec))) => {
                if !apply(&class, spec) {
                    self.failed_promotions += 1;
                }
            }
            Ok(None) => {}
            Err(_) => self.failed_rounds += 1,
        }
    }

    /// One search round: the promoted class and its spec, if the gate
    /// fired.
    fn step(&mut self) -> io::Result<Option<(ServiceClass, ClassSpec)>> {
        if self.classes.is_empty() {
            return Ok(None);
        }
        let idx = self.next_class;
        self.next_class = (self.next_class + 1) % self.classes.len();

        let state = &self.classes[idx];
        let evaluator = {
            let mut e = Evaluator::new(
                self.journal_dir.clone(),
                self.feature_names.clone(),
                state.class.clone(),
                Arc::clone(&state.initial),
            )
            .retrain_penalty_secs(self.config.retrain_penalty_secs);
            if self.config.verify_digest_stability {
                e = e.verify_digest_stability();
            }
            e
        };
        // Re-seed per round: reproducible searches, fresh neighbourhoods.
        let seed = self
            .config
            .seed
            .wrapping_add((idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(state.rounds.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let tuner =
            Tuner::new(TuneConfig { seed, ..self.config.clone() }).with_trace(self.trace.clone());

        let span = self.instruments.round_duration.span();
        let outcome = tuner.search(&evaluator, &state.incumbent)?;
        span.finish();

        let state = &mut self.classes[idx];
        state.rounds += 1;
        self.rounds += 1;
        self.candidates += outcome.candidates.len() as u64;
        self.accepted += outcome.accepted;
        self.instruments.rounds.inc();
        self.instruments.candidates.add(outcome.candidates.len() as u64);
        self.instruments.accepted.add(outcome.accepted);

        self.trace.emit(
            EventScope::root().class(state.class.as_str()),
            EventKind::TuneRoundCompleted {
                round: state.rounds - 1,
                best_objective_secs: outcome.best_objective_secs,
                incumbent_objective_secs: outcome.incumbent_objective_secs,
            },
        );

        let mut promotion = None;
        if outcome.promoted {
            state.incumbent = outcome.best.clone();
            state.incumbent_objective_secs = outcome.best_objective_secs;
            state.promotions += 1;
            self.promotions += 1;
            self.instruments.promotions.inc();
            self.trace.emit(
                EventScope::root().class(state.class.as_str()),
                EventKind::PolicyPromoted {
                    incumbent_objective_secs: outcome.incumbent_objective_secs,
                    candidate_objective_secs: outcome.best_objective_secs,
                },
            );
            promotion =
                Some((state.class.clone(), outcome.best.to_spec(Arc::clone(&state.initial))));
        } else {
            state.incumbent_objective_secs = outcome.incumbent_objective_secs;
        }
        if let Some(objective) = state.incumbent_objective_secs {
            state.objective_gauge.set(objective);
        }
        Ok(promotion)
    }

    /// Snapshot of everything the tuner has done so far.
    #[must_use]
    pub fn stats(&self) -> TuneStats {
        TuneStats {
            rounds: self.rounds,
            candidates: self.candidates,
            accepted: self.accepted,
            promotions: self.promotions,
            classes: self
                .classes
                .iter()
                .map(|s| ClassTuneStats {
                    class: s.class.as_str().to_string(),
                    rounds: s.rounds,
                    promotions: s.promotions,
                    incumbent_objective_secs: s.incumbent_objective_secs,
                    incumbent: s.incumbent.clone(),
                })
                .collect(),
            failed_rounds: self.failed_rounds,
            failed_promotions: self.failed_promotions,
        }
    }
}

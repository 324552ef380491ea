//! `aging-tune` — self-optimising policy search over the rejuvenation
//! space, scored by counterfactual journal replay.
//!
//! The paper's adaptive loop tunes *thresholds* on-line, but the policy
//! *shape* around them — which learner retrains each class, how hard the
//! drift detector debounces, how big the sliding training buffer is,
//! whether refits also run on a schedule — is frozen when the fleet
//! spawns. This crate searches that frozen space while the system runs,
//! using the one evaluator that is both faithful and free of production
//! risk: the recorded checkpoint journal, deterministically re-executed
//! under a candidate configuration via
//! [`aging_adapt::replay::replay_scored`].
//!
//! # The loop
//!
//! - [`PolicyPoint`] is a serialisable point in the search space
//!   (learner kind, drift debounce/EWMA, threshold-policy quantiles,
//!   buffer and refit cadence) with validity clamps.
//! - [`Operator`]s are ALNS-style destroy/repair moves
//!   (perturb-one-axis, swap-learner, crossover-with-incumbent,
//!   random-restart); an [`OperatorBank`] re-weights their selection by
//!   realised improvement.
//! - [`Evaluator`] replays the journal under a candidate and reduces the
//!   outcome to one objective: replayed mean TTF error plus a
//!   per-retrain penalty, with an optional digest-stability self-check.
//!   It reads the journal once, so every candidate it scores is scored on
//!   the same records.
//! - [`Tuner::search`] runs seeded simulated annealing over those moves —
//!   bit-reproducible for a fixed seed.
//! - [`PromotionGate`] only lets a winner displace the incumbent when it
//!   beats it by a configured margin; ties and within-margin wins never
//!   promote.
//! - [`FleetTuner`] round-robins searches over a live fleet's classes,
//!   one class per [`FleetTuner::round`], with one evaluator (one journal
//!   snapshot) per round. A tuned fleet runs a round as a leader step,
//!   every 360 epochs while every shard is parked, and applies each
//!   approved spec to the running router before the next batch, so a
//!   tuned run is as reproducible as an untuned one. The tuner counts
//!   rounds that could not read the journal and specs the router refused.
//!
//! Every stage threads `aging-obs`: `tune_*` metrics (rounds, candidate
//! and acceptance counters, per-class incumbent-objective gauges) and
//! `CandidateEvaluated` / `TuneRoundCompleted` / `PolicyPromoted` trace
//! events.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod evaluator;
pub mod operators;
pub mod point;
pub mod tuner;

pub use evaluator::{Evaluation, Evaluator};
pub use operators::{Operator, OperatorBank};
pub use point::PolicyPoint;
pub use tuner::{
    CandidateRecord, ClassTuneStats, FleetTuner, OperatorWeight, PromotionGate, SearchOutcome,
    TuneConfig, TuneStats, TunedClass, Tuner,
};

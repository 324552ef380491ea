//! Fleet-wide and per-instance outcome reports.

use aging_adapt::{AdaptationStats, RouterStats};
use aging_obs::TelemetrySnapshot;
use aging_tune::TuneStats;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Outcome of operating one instance over the horizon — the fields of the
/// single-instance `RejuvenationReport`, plus fleet extras.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceReport {
    /// Instance identifier from its spec.
    pub name: String,
    /// Service class from its spec (`"default"` for homogeneous fleets).
    pub class: String,
    /// Policy description.
    pub policy: String,
    /// Operation period covered, seconds.
    pub horizon_secs: f64,
    /// Unplanned crashes suffered.
    pub crashes: u64,
    /// Planned restarts performed.
    pub rejuvenations: u64,
    /// Planned restarts whose frozen-rate counterfactual fork crashed
    /// within the configured window (0 when the check is disabled).
    pub crashes_avoided: u64,
    /// Total downtime, seconds.
    pub downtime_secs: f64,
    /// Fraction of the horizon the service was up.
    pub availability: f64,
    /// Estimated requests lost during downtime.
    pub lost_requests: f64,
    /// Monitoring checkpoints consumed.
    pub checkpoints: u64,
    /// Service epochs started (initial start + every restart).
    pub service_epochs: u64,
    /// Sum of absolute TTF prediction errors over retrospectively labelled
    /// checkpoints (crash epochs against the real crash time, proactive
    /// restarts against the frozen-rate counterfactual fork).
    pub ttf_error_sum_secs: f64,
    /// Number of labelled predictions behind `ttf_error_sum_secs`.
    pub ttf_error_count: u64,
    /// Fleet epoch at whose top the instance joined (0 for the initial
    /// roster; defaults to 0 when deserialising pre-elastic reports).
    #[serde(default)]
    pub joined_epoch: u64,
    /// Fleet epoch during which the instance retired — by ageing past its
    /// horizon or by a scripted/forced retire. `None` when the instance
    /// was still live at the end of the run (and for pre-elastic reports).
    #[serde(default)]
    pub retired_epoch: Option<u64>,
}

impl InstanceReport {
    /// Mean absolute TTF prediction error over this instance's labelled
    /// checkpoints, seconds (0 when nothing could be labelled).
    pub fn mean_ttf_error_secs(&self) -> f64 {
        if self.ttf_error_count > 0 {
            self.ttf_error_sum_secs / self.ttf_error_count as f64
        } else {
            0.0
        }
    }
}

/// One discovered class in a [`DiscoveryReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiscoveredClass {
    /// The class name (`discovered-N`).
    pub class: String,
    /// Instances assigned to it when the run ended.
    pub members: usize,
    /// Whether the class was retired (merged away) before the run ended.
    pub retired: bool,
}

/// One partition re-evaluation inside a [`DiscoveryReport`] — the
/// time-resolved view an end-of-run counter cannot give (e.g. "did the
/// steady class drift *after* the split separated it from the shifted
/// one?").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiscoveryEvaluation {
    /// Fleet epochs completed when the evaluation ran.
    pub epoch: u64,
    /// Instances with a ready signature.
    pub ready_instances: usize,
    /// Active classes after the evaluation.
    pub active_classes: usize,
    /// Mean silhouette of the adopted clustering (0 for a single class).
    pub silhouette: f64,
    /// Classes created by this evaluation.
    pub new_classes: Vec<String>,
    /// Classes retired by this evaluation.
    pub retired_classes: Vec<String>,
    /// Cumulative instance reassignments after this evaluation.
    pub reassignments: u64,
    /// Router-side drift events per class at evaluation time (classes in
    /// registration order). Snapshotted from live counters, so a batch
    /// still in flight on the bus may land one entry later.
    pub class_drift_events: Vec<(String, u64)>,
    /// Router-side model generations per class at evaluation time.
    pub class_generations: Vec<(String, u64)>,
}

/// What automatic class discovery did during a
/// [`crate::Fleet::run_discovered`] run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiscoveryReport {
    /// Every class ever discovered, in creation order (retired included).
    pub classes: Vec<DiscoveredClass>,
    /// The per-evaluation timeline (one entry per reassessment boundary).
    pub evaluations_log: Vec<DiscoveryEvaluation>,
    /// Final class per instance, in spec order — the discovered
    /// partition.
    pub assignment: Vec<String>,
    /// Instance-to-class changes applied over the run (the initial
    /// seeding into `discovered-0` is not counted).
    pub reassignments: u64,
    /// Partition re-evaluations run (one per reassessment boundary).
    pub evaluations: u64,
    /// Accepted splits.
    pub splits: u64,
    /// Accepted merges.
    pub merges: u64,
}

/// Durability counters for a run that wrote a checkpoint journal.
///
/// Snapshot of the [`aging_journal::Journal`] handle at the end of the
/// run; like the other runtime-dependent report fields it is excluded
/// from [`FleetReport`] equality (fsync batching makes the counts
/// timing-sensitive).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JournalStats {
    /// Records appended over the run.
    pub appended_records: u64,
    /// `fsync` calls issued (batched, so far fewer than records).
    pub fsyncs: u64,
    /// Segment-file rotations.
    pub segment_rotations: u64,
    /// Appends of the fleet's own records that failed: membership changes
    /// of an elastic run and the partitions of a discovered run. The
    /// router counts its failed appends in
    /// [`aging_adapt::RouterStats::journal_errors`].
    #[serde(default)]
    pub append_errors: u64,
}

/// Membership-change accounting for an elastic run. Unlike the
/// runtime-dependent stats blocks, churn is fully determined by the specs,
/// the plan and the seeds, so it **is** part of [`FleetReport`] equality —
/// two runs of the same elastic fleet must agree on every join and retire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ChurnStats {
    /// Scripted joins applied.
    pub scripted_joins: u64,
    /// Scripted retires that actually retired a live instance (a retire
    /// scheduled after its target aged out naturally is a no-op).
    pub scripted_retires: u64,
    /// Instances spawned by the autoscale rule.
    pub autoscale_spawns: u64,
    /// Force-retires applied (scripted retires that landed).
    pub forced_retires: u64,
    /// Instances that aged out past their horizon on their own.
    pub natural_retires: u64,
    /// Peak live population over the run (computed from the membership
    /// event log: joins at an epoch land before that epoch's retires).
    pub peak_live: u64,
    /// Live population when the run ended.
    pub final_live: u64,
}

/// Execution counters of the epoch scheduler. Runtime-dependent (how work
/// interleaves across the worker pool varies between runs), so excluded
/// from [`FleetReport`] equality like `timing`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SchedulerStats {
    /// Worker threads in the scheduler pool.
    pub workers: usize,
    /// Shard-epoch tasks executed.
    pub shard_tasks: u64,
    /// Leader tasks executed (discovery/autoscale boundaries).
    pub leader_steps: u64,
    /// Epochs skipped by fast-forwarding dead shards to their next join
    /// or leader boundary instead of ticking them emptily.
    pub fast_forwarded_epochs: u64,
}

/// Wall-clock performance of a fleet run. Not part of the report's
/// equality: two runs of the same fleet are *equal* when their simulated
/// outcomes agree, however fast the hardware drove them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetTiming {
    /// Wall-clock seconds the run took.
    pub wall_secs: f64,
    /// Monitoring checkpoints processed per wall-clock second across the
    /// whole fleet — the engine's headline throughput number.
    pub checkpoints_per_sec: f64,
}

/// Aggregated outcome of a fleet run.
///
/// `PartialEq` deliberately ignores [`FleetReport::timing`] and
/// [`FleetReport::adaptation`]: equality means "the same simulated
/// outcome", which is what the determinism guarantee (same specs, seeds
/// and config ⇒ same report) is about — wall-clock speed and the
/// adaptation service's concurrent counters both legitimately vary between
/// otherwise identical runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetReport {
    /// Per-instance outcomes, in spec order.
    pub instances: Vec<InstanceReport>,
    /// Worker threads used.
    pub shards: usize,
    /// Fleet epochs driven (the furthest any shard got).
    pub epochs: u64,
    /// Configured operating horizon, seconds.
    pub horizon_secs: f64,
    /// Total unplanned crashes across the fleet.
    pub crashes: u64,
    /// Total planned restarts across the fleet.
    pub rejuvenations: u64,
    /// Total planned restarts that pre-empted an imminent crash.
    pub crashes_avoided: u64,
    /// Total downtime across the fleet, seconds.
    pub downtime_secs: f64,
    /// Mean per-instance availability.
    pub availability: f64,
    /// Total estimated requests lost to downtime.
    pub lost_requests: f64,
    /// Total monitoring checkpoints consumed.
    pub checkpoints: u64,
    /// Mean absolute TTF prediction error across every labelled checkpoint
    /// of the fleet, seconds (0 when nothing could be labelled).
    pub mean_ttf_error_secs: f64,
    /// Labelled predictions behind `mean_ttf_error_secs`.
    pub ttf_error_count: u64,
    /// Adaptation-service counters for [`crate::Fleet::run_adaptive`] runs
    /// (`None` for frozen-model runs; excluded from equality).
    pub adaptation: Option<AdaptationStats>,
    /// Labelled checkpoints the shards could not publish because the
    /// adaptation side had closed the bus mid-run — a learner panic on the
    /// ingest thread, say. 0 for frozen runs (and pre-existing reports);
    /// excluded from equality like the other adaptation counters.
    #[serde(default)]
    pub unpublished_checkpoints: u64,
    /// Per-class router counters for [`crate::Fleet::run_routed`] and
    /// [`crate::Fleet::run_discovered`] runs (`None` otherwise; excluded
    /// from equality).
    pub routing: Option<RouterStats>,
    /// The discovered partition for [`crate::Fleet::run_discovered`] runs
    /// (`None` otherwise; excluded from equality — compare it directly in
    /// determinism tests).
    pub discovery: Option<DiscoveryReport>,
    /// Wall-clock performance (excluded from equality).
    pub timing: FleetTiming,
    /// Telemetry snapshot captured when the run finished — present when a
    /// registry was attached via [`crate::Fleet::with_telemetry`], `None`
    /// otherwise (and when deserialising reports written before telemetry
    /// existed; excluded from equality like the other runtime-dependent
    /// fields).
    #[serde(default)]
    pub telemetry: Option<TelemetrySnapshot>,
    /// Checkpoint-journal counters — present when a journal was attached
    /// via [`crate::Fleet::with_journal`], `None` otherwise (excluded
    /// from equality; fsync batching is timing-sensitive).
    #[serde(default)]
    pub journal: Option<JournalStats>,
    /// Policy-search counters — present when a tuner was attached via
    /// [`crate::Fleet::with_tuner`], `None` otherwise. Excluded from
    /// equality: how many search rounds the background thread completed
    /// depends on wall-clock scheduling, and a run whose promotion gate
    /// never fired must compare equal to the same run without a tuner.
    #[serde(default)]
    pub tuning: Option<TuneStats>,
    /// Membership-change accounting — present for elastic runs (a
    /// [`crate::ChurnPlan`] was attached), `None` otherwise and for
    /// pre-elastic reports. *Included* in equality: churn is deterministic
    /// for fixed specs, plan and seeds.
    #[serde(default)]
    pub churn: Option<ChurnStats>,
    /// Epoch-scheduler counters — present for elastic runs (a
    /// [`crate::ChurnPlan`] was attached), `None` otherwise and for
    /// pre-elastic reports. Excluded from equality: task interleaving
    /// varies between runs.
    #[serde(default)]
    pub scheduler: Option<SchedulerStats>,
    /// Whether the adaptation side settled before the report read its
    /// counters: `Some(false)` when [`crate::Fleet::run_discovered`]'s wait
    /// for the router timed out, so `routing` and `telemetry` may still
    /// move. `None` for runs that do not wait (and pre-existing reports).
    /// Excluded from equality: it depends on wall-clock timing.
    #[serde(default)]
    pub quiesced: Option<bool>,
}

impl PartialEq for FleetReport {
    fn eq(&self, other: &Self) -> bool {
        self.instances == other.instances
            && self.shards == other.shards
            && self.epochs == other.epochs
            && self.horizon_secs == other.horizon_secs
            && self.crashes == other.crashes
            && self.rejuvenations == other.rejuvenations
            && self.crashes_avoided == other.crashes_avoided
            && self.downtime_secs == other.downtime_secs
            && self.availability == other.availability
            && self.lost_requests == other.lost_requests
            && self.checkpoints == other.checkpoints
            && self.mean_ttf_error_secs == other.mean_ttf_error_secs
            && self.ttf_error_count == other.ttf_error_count
            && self.churn == other.churn
    }
}

impl FleetReport {
    /// Builds the aggregate from per-instance outcomes.
    pub(crate) fn aggregate(
        instances: Vec<InstanceReport>,
        shards: usize,
        epochs: u64,
        horizon_secs: f64,
        timing: FleetTiming,
    ) -> Self {
        let n = instances.len().max(1) as f64;
        let ttf_error_count: u64 = instances.iter().map(|i| i.ttf_error_count).sum();
        let ttf_error_sum: f64 = instances.iter().map(|i| i.ttf_error_sum_secs).sum();
        FleetReport {
            shards,
            epochs,
            horizon_secs,
            crashes: instances.iter().map(|i| i.crashes).sum(),
            rejuvenations: instances.iter().map(|i| i.rejuvenations).sum(),
            crashes_avoided: instances.iter().map(|i| i.crashes_avoided).sum(),
            downtime_secs: instances.iter().map(|i| i.downtime_secs).sum(),
            availability: instances.iter().map(|i| i.availability).sum::<f64>() / n,
            lost_requests: instances.iter().map(|i| i.lost_requests).sum(),
            checkpoints: instances.iter().map(|i| i.checkpoints).sum(),
            mean_ttf_error_secs: if ttf_error_count > 0 {
                ttf_error_sum / ttf_error_count as f64
            } else {
                0.0
            },
            ttf_error_count,
            adaptation: None,
            unpublished_checkpoints: 0,
            routing: None,
            discovery: None,
            instances,
            timing,
            telemetry: None,
            journal: None,
            tuning: None,
            churn: None,
            scheduler: None,
            quiesced: None,
        }
    }

    /// Labelled rows the adaptation side rejected for arity or non-finite
    /// values: the service's count for [`crate::Fleet::run_adaptive`] runs,
    /// the sum over the router's classes for routed and discovered runs,
    /// and 0 for frozen runs. Read it after the adaptation side has
    /// settled, since rows still on the bus are not counted yet.
    pub fn rejected_rows(&self) -> u64 {
        let service = self.adaptation.as_ref().map_or(0, |a| a.rejected_rows);
        let routed = self
            .routing
            .as_ref()
            .map_or(0, |r| r.classes.iter().map(|c| c.stats.rejected_rows).sum());
        service + routed
    }

    /// Mean absolute TTF prediction error over the labelled checkpoints of
    /// one service class, seconds (0 when nothing in that class could be
    /// labelled).
    pub fn class_mean_ttf_error_secs(&self, class: &str) -> f64 {
        let (sum, count) = self
            .instances
            .iter()
            .filter(|i| i.class == class)
            .fold((0.0, 0u64), |(s, c), i| (s + i.ttf_error_sum_secs, c + i.ttf_error_count));
        if count > 0 {
            sum / count as f64
        } else {
            0.0
        }
    }

    /// Summarises where the shards' wall time went, from the telemetry
    /// snapshot: the busiest shard by its summed epoch phases
    /// (`fleet_epoch_{advance,predict,publish}_seconds`), its ratio to the
    /// mean shard, and the scheduler pool's total idle time
    /// (`fleet_scheduler_idle_seconds`). `None` when no telemetry was
    /// attached or it holds no shard phases.
    pub fn shard_timing_summary(&self) -> Option<String> {
        let telemetry = self.telemetry.as_ref()?;
        let mut busy: BTreeMap<&str, f64> = BTreeMap::new();
        for phase in [
            "fleet_epoch_advance_seconds",
            "fleet_epoch_predict_seconds",
            "fleet_epoch_publish_seconds",
        ] {
            for series in telemetry.histogram_series(phase) {
                *busy.entry(series.label_value().unwrap_or("?")).or_default() += series.sum;
            }
        }
        let (shard, secs) = busy.iter().max_by(|a, b| a.1.total_cmp(b.1))?;
        let mean = busy.values().sum::<f64>() / busy.len() as f64;
        let idle: f64 =
            telemetry.histogram_series("fleet_scheduler_idle_seconds").iter().map(|h| h.sum).sum();
        Some(format!(
            "busiest shard {shard} ({secs:.3} s in epoch phases, {:.2}x the mean shard)  \
             worker idle {idle:.3} s total",
            if mean > 0.0 { secs / mean } else { 1.0 }
        ))
    }

    /// Serializes the report (including adaptation stats, when present) as
    /// pretty-printed JSON — the machine-readable `BENCH_*.json` format of
    /// the fleet benches and examples.
    ///
    /// # Errors
    ///
    /// Propagates serializer errors (none occur for this type in
    /// practice).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }
}

/// Formats an optional drift EWMA for the text report: the smoothed error
/// in seconds, or `n/a` before any labelled prediction arrived.
fn fmt_ewma(ewma: Option<f64>) -> String {
    match ewma {
        Some(secs) => format!("{secs:.0} s"),
        None => "n/a".into(),
    }
}

/// Formats the effective operating thresholds of one adaptation pipeline.
/// The drift level always prints (a self-tuning policy may move it
/// without publishing a rejuvenation override); the rejuvenation trigger
/// shows its override when one is in force, otherwise that each spec's
/// configured threshold rules.
fn effective_thresholds(stats: &AdaptationStats) -> String {
    match stats.effective_rejuvenation_threshold_secs {
        Some(rejuvenate) => format!(
            "  thresholds drift {:.0} s / rejuvenate {:.0} s",
            stats.effective_error_threshold_secs, rejuvenate
        ),
        None => format!(
            "  thresholds drift {:.0} s / rejuvenate per spec",
            stats.effective_error_threshold_secs
        ),
    }
}

impl fmt::Display for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fleet of {} instances across {} shards, {:.1} h horizon ({} epochs)",
            self.instances.len(),
            self.shards,
            self.horizon_secs / 3600.0,
            self.epochs
        )?;
        writeln!(f, "  availability       {:.4} (mean over instances)", self.availability)?;
        writeln!(
            f,
            "  crashes suffered   {:<8} crashes avoided {}",
            self.crashes, self.crashes_avoided
        )?;
        writeln!(
            f,
            "  rejuvenations      {:<8} downtime        {:.0} s",
            self.rejuvenations, self.downtime_secs
        )?;
        writeln!(f, "  lost requests      {:.0}", self.lost_requests)?;
        writeln!(
            f,
            "  TTF error          {:.0} s mean abs over {} labelled predictions",
            self.mean_ttf_error_secs, self.ttf_error_count
        )?;
        if let Some(adaptation) = &self.adaptation {
            writeln!(
                f,
                "  adaptation         gen {}  retrains {}  drift events {}  \
                 ingested {}  dropped {}  rejected {}  unpublished {}  error EWMA {}{}",
                adaptation.generation,
                adaptation.retrains,
                adaptation.drift_events,
                adaptation.ingested_checkpoints,
                adaptation.dropped_checkpoints,
                adaptation.rejected_rows,
                self.unpublished_checkpoints,
                fmt_ewma(adaptation.error_ewma_secs),
                effective_thresholds(adaptation)
            )?;
        }
        if let Some(routing) = &self.routing {
            writeln!(
                f,
                "  routing            {} classes  {} generations  ingested {}  \
                 dropped {}  rejected {}  unpublished {}  unrouted {}",
                routing.classes.len(),
                routing.generations_published,
                routing.ingested_checkpoints,
                routing.dropped_checkpoints,
                routing.classes.iter().map(|c| c.stats.rejected_rows).sum::<u64>(),
                self.unpublished_checkpoints,
                routing.unrouted_checkpoints
            )?;
            for entry in &routing.classes {
                writeln!(
                    f,
                    "    class {:<12} gen {}  retrains {}  drift events {}  ingested {}  \
                     dropped {}  rejected {}  error {} (fleet mean {:.0} s){}{}",
                    entry.class,
                    entry.stats.generation,
                    entry.stats.retrains,
                    entry.stats.drift_events,
                    entry.stats.ingested_checkpoints,
                    entry.stats.dropped_checkpoints,
                    entry.stats.rejected_rows,
                    fmt_ewma(entry.stats.error_ewma_secs),
                    self.class_mean_ttf_error_secs(entry.class.as_str()),
                    effective_thresholds(&entry.stats),
                    if entry.retired { "  [retired]" } else { "" }
                )?;
            }
        }
        if let Some(discovery) = &self.discovery {
            writeln!(
                f,
                "  discovery          {} classes ({} retired)  {} evaluations  \
                 {} splits  {} merges  {} reassignments",
                discovery.classes.len(),
                discovery.classes.iter().filter(|c| c.retired).count(),
                discovery.evaluations,
                discovery.splits,
                discovery.merges,
                discovery.reassignments
            )?;
            for class in &discovery.classes {
                writeln!(
                    f,
                    "    {:<18} {} members{}",
                    class.class,
                    class.members,
                    if class.retired { "  [retired]" } else { "" }
                )?;
            }
        }
        if let Some(tuning) = &self.tuning {
            writeln!(
                f,
                "  policy search      {} rounds  {} candidates  {} accepted  {} promotions  \
                 failed rounds {}  failed promotions {}",
                tuning.rounds,
                tuning.candidates,
                tuning.accepted,
                tuning.promotions,
                tuning.failed_rounds,
                tuning.failed_promotions
            )?;
            for class in &tuning.classes {
                writeln!(
                    f,
                    "    class {:<12} rounds {}  promotions {}  incumbent objective {}",
                    class.class,
                    class.rounds,
                    class.promotions,
                    match class.incumbent_objective_secs {
                        Some(secs) => format!("{secs:.0} s"),
                        None => "n/a".into(),
                    }
                )?;
            }
        }
        if let Some(churn) = &self.churn {
            writeln!(
                f,
                "  churn              {} joins  {} retires  {} autoscale spawns  \
                 {} forced  {} natural  peak live {}  final live {}",
                churn.scripted_joins,
                churn.scripted_retires,
                churn.autoscale_spawns,
                churn.forced_retires,
                churn.natural_retires,
                churn.peak_live,
                churn.final_live
            )?;
        }
        if let Some(scheduler) = &self.scheduler {
            writeln!(
                f,
                "  scheduler          {} workers  {} shard tasks  {} leader steps  \
                 {} epochs fast-forwarded",
                scheduler.workers,
                scheduler.shard_tasks,
                scheduler.leader_steps,
                scheduler.fast_forwarded_epochs
            )?;
        }
        if let Some(journal) = &self.journal {
            write!(
                f,
                "  journal            {} records  {} fsyncs  {} rotations  append errors {}",
                journal.appended_records,
                journal.fsyncs,
                journal.segment_rotations,
                journal.append_errors
            )?;
            match &self.routing {
                Some(routing) => writeln!(f, " (router {})", routing.journal_errors)?,
                None => writeln!(f)?,
            }
        }
        if self.quiesced == Some(false) {
            writeln!(
                f,
                "  UNSETTLED          the router did not settle in time: routing and \
                 telemetry counters are not final"
            )?;
        }
        if let Some(timing) = self.shard_timing_summary() {
            writeln!(f, "  shard timing       {timing}")?;
        }
        write!(
            f,
            "  throughput         {} checkpoints in {:.2} s wall = {:.0} checkpoints/s",
            self.checkpoints, self.timing.wall_secs, self.timing.checkpoints_per_sec
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unsettled_router_is_printed_but_not_compared() {
        let timing = FleetTiming { wall_secs: 1.0, checkpoints_per_sec: 0.0 };
        let settled = FleetReport::aggregate(Vec::new(), 1, 0, 3600.0, timing);
        let mut unsettled = settled.clone();
        unsettled.quiesced = Some(false);
        assert_eq!(unsettled, settled, "settling is timing, not outcome");
        assert!(unsettled.to_string().contains("UNSETTLED"));
        assert!(!settled.to_string().contains("UNSETTLED"));
        // Reports written before the field existed parse as "did not wait".
        let json = serde_json::to_string(&unsettled).unwrap();
        let legacy = json.replace(",\"quiesced\":false", "");
        assert!(!legacy.contains("quiesced"), "the field must really be gone");
        let parsed: FleetReport = serde_json::from_str(&legacy).unwrap();
        assert_eq!(parsed.quiesced, None);
        let roundtrip: FleetReport = serde_json::from_str(&json).unwrap();
        assert_eq!(roundtrip.quiesced, Some(false));
    }

    #[test]
    fn rejected_rows_sum_the_service_and_every_router_class() {
        let timing = FleetTiming { wall_secs: 1.0, checkpoints_per_sec: 0.0 };
        let mut report = FleetReport::aggregate(Vec::new(), 1, 0, 3600.0, timing);
        assert_eq!(report.rejected_rows(), 0, "a frozen run has no adaptation side");
        let stats = |rejected_rows| AdaptationStats {
            ingested_checkpoints: 10,
            drift_events: 0,
            retrains: 0,
            failed_retrains: 0,
            generations_published: 0,
            generation: 0,
            buffered: 0,
            dropped_checkpoints: 0,
            rejected_rows,
            error_ewma_secs: None,
            effective_error_threshold_secs: 900.0,
            effective_rejuvenation_threshold_secs: None,
        };
        report.adaptation = Some(stats(3));
        assert_eq!(report.rejected_rows(), 3);
        let class = |name: &str, rejected| aging_adapt::ClassAdaptation {
            class: aging_adapt::ServiceClass::new(name),
            retired: name == "retired",
            stats: stats(rejected),
        };
        report.adaptation = None;
        report.routing = Some(RouterStats {
            classes: vec![class("leak", 2), class("steady", 0), class("retired", 5)],
            dynamic_registrations: 0,
            retired_classes: 1,
            ingested_checkpoints: 30,
            dropped_checkpoints: 0,
            unrouted_checkpoints: 0,
            generations_published: 0,
            journal_errors: 0,
            applied_specs: 0,
        });
        assert_eq!(report.rejected_rows(), 7, "every class counts, retired ones too");
    }

    #[test]
    fn unpublished_checkpoints_are_not_compared_and_default_to_zero() {
        let timing = FleetTiming { wall_secs: 1.0, checkpoints_per_sec: 0.0 };
        let report = FleetReport::aggregate(Vec::new(), 1, 0, 3600.0, timing);
        let mut lossy = report.clone();
        lossy.unpublished_checkpoints = 7;
        assert_eq!(lossy, report, "a closed bus is runtime, not outcome");
        // Reports written before the field existed parse as 0.
        let json = serde_json::to_string(&lossy).unwrap();
        let legacy = json.replace(",\"unpublished_checkpoints\":7", "");
        assert!(!legacy.contains("unpublished"), "the field must really be gone");
        let parsed: FleetReport = serde_json::from_str(&legacy).unwrap();
        assert_eq!(parsed.unpublished_checkpoints, 0);
    }
}

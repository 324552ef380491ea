//! Instance churn: scripted joins/retires and load-driven autoscaling.
//!
//! A [`ChurnPlan`] makes the population elastic: instances can join the
//! fleet mid-run (a deploy, a scale-out), be retired early (a spot
//! reclaim, a scale-in), or be spawned on demand by an [`AutoscaleRule`]
//! that tops the fleet back up whenever the live population falls below a
//! floor. Under a plan the scheduler (`crate::scheduler`) lets shards run
//! ahead of each other freely between leader boundaries and fast-forwards
//! dead shards to their next join.
//!
//! Membership changes take effect at the **top of a fleet epoch** on the
//! owning shard, the same boundary discipline as model pins and class
//! assignments: a joiner participates in the epoch it joins, a scripted
//! retire removes the instance before it consumes that epoch's
//! checkpoint. Every change is journalled
//! (`aging_journal::JournalRecord::{InstanceJoined, InstanceRetired}`)
//! and traced, so a replay can fold the journal back into the exact live
//! roster.

use crate::config::{validate_spec, FleetError, InstanceSpec};
use serde::{Deserialize, Serialize};

/// One scripted join: `spec` enters the fleet at the top of fleet epoch
/// `at_epoch` (the initial roster is epoch 0, so scripted joins start at
/// epoch 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduledJoin {
    /// Fleet epoch at whose top the instance joins (must be ≥ 1).
    pub at_epoch: u64,
    /// The deployment that joins.
    pub spec: InstanceSpec,
}

/// One scripted retire: the named instance is force-retired at the top of
/// fleet epoch `at_epoch` — before it consumes that epoch's checkpoint.
/// A no-op if the instance already aged out naturally by then.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduledRetire {
    /// Fleet epoch at whose top the instance is retired (must be ≥ 1).
    pub at_epoch: u64,
    /// Name of the instance to retire (initial roster or a scripted
    /// joiner).
    pub instance: String,
}

/// Load-driven autoscaling: at every `evaluate_every_epochs` boundary the
/// scheduler's leader task compares the live population against
/// `min_live` and spawns clones of `template` to close the gap, up to
/// `max_spawns` over the whole run.
///
/// Spawn `k` is named `{template.name}-as{k}` and seeded
/// `template.seed + k`, so autoscaled runs are deterministic for a fixed
/// seed. Like every membership change, spawns land at the top of the
/// boundary epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AutoscaleRule {
    /// Fleet epochs between autoscale evaluations (must be ≥ 1).
    pub evaluate_every_epochs: u64,
    /// Target floor for the live population (must be ≥ 1 — a floor of 0
    /// would never spawn).
    pub min_live: usize,
    /// Hard cap on spawns over the whole run (must be ≥ 1; bounds the
    /// run's roster, so discovery slots can be preallocated).
    pub max_spawns: usize,
    /// The deployment each spawn clones (name and seed are derived per
    /// spawn).
    pub template: InstanceSpec,
}

/// Scripted membership changes plus optional autoscaling for one fleet
/// run. Attach with [`crate::Fleet::with_churn`]; an attached plan always
/// selects the event-driven scheduler.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ChurnPlan {
    /// Scripted joins, applied in `at_epoch` order.
    #[serde(default)]
    pub joins: Vec<ScheduledJoin>,
    /// Scripted retires, applied in `at_epoch` order.
    #[serde(default)]
    pub retires: Vec<ScheduledRetire>,
    /// Optional load-driven autoscaling.
    #[serde(default)]
    pub autoscale: Option<AutoscaleRule>,
}

impl ChurnPlan {
    /// An empty plan (builder seed).
    #[must_use]
    pub fn new() -> Self {
        ChurnPlan::default()
    }

    /// Adds a scripted join (builder-style).
    #[must_use]
    pub fn join(mut self, at_epoch: u64, spec: InstanceSpec) -> Self {
        self.joins.push(ScheduledJoin { at_epoch, spec });
        self
    }

    /// Adds a scripted retire (builder-style).
    #[must_use]
    pub fn retire(mut self, at_epoch: u64, instance: impl Into<String>) -> Self {
        self.retires.push(ScheduledRetire { at_epoch, instance: instance.into() });
        self
    }

    /// Sets the autoscale rule (builder-style).
    #[must_use]
    pub fn autoscale(mut self, rule: AutoscaleRule) -> Self {
        self.autoscale = Some(rule);
        self
    }

    /// Whether the plan changes nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.joins.is_empty() && self.retires.is_empty() && self.autoscale.is_none()
    }

    /// Scripted joins in application order: sorted by epoch, original
    /// order preserved within an epoch.
    pub(crate) fn sorted_joins(&self) -> Vec<ScheduledJoin> {
        let mut joins = self.joins.clone();
        joins.sort_by_key(|j| j.at_epoch);
        joins
    }

    /// The autoscale spawn pool, in spawn order: `max_spawns` clones of
    /// the template with derived names and seeds. Empty without a rule.
    pub(crate) fn autoscale_pool(&self) -> Vec<InstanceSpec> {
        let Some(rule) = &self.autoscale else {
            return Vec::new();
        };
        (0..rule.max_spawns)
            .map(|k| {
                let mut spec = rule.template.clone();
                spec.name = format!("{}-as{k}", rule.template.name);
                spec.seed = rule.template.seed.wrapping_add(k as u64);
                spec
            })
            .collect()
    }

    /// Validates the plan against the fleet's initial roster.
    pub(crate) fn validate(&self, initial: &[InstanceSpec]) -> Result<(), FleetError> {
        let mut names: Vec<&str> = initial.iter().map(|s| s.name.as_str()).collect();
        for join in &self.joins {
            if join.at_epoch == 0 {
                return Err(FleetError::InvalidParameter(format!(
                    "churn join `{}`: epoch 0 is the initial roster; joins start at epoch 1",
                    join.spec.name
                )));
            }
            validate_spec(&join.spec)?;
            if names.contains(&join.spec.name.as_str()) {
                return Err(FleetError::InvalidParameter(format!(
                    "churn join `{}`: instance name already in the roster",
                    join.spec.name
                )));
            }
            names.push(join.spec.name.as_str());
        }
        for retire in &self.retires {
            if retire.at_epoch == 0 {
                return Err(FleetError::InvalidParameter(format!(
                    "churn retire `{}`: retires start at epoch 1",
                    retire.instance
                )));
            }
            if !names.contains(&retire.instance.as_str()) {
                return Err(FleetError::InvalidParameter(format!(
                    "churn retire `{}`: no such instance in the roster",
                    retire.instance
                )));
            }
            if let Some(join) = self.joins.iter().find(|j| j.spec.name == retire.instance) {
                if retire.at_epoch <= join.at_epoch {
                    return Err(FleetError::InvalidParameter(format!(
                        "churn retire `{}` at epoch {} precedes its join at epoch {}",
                        retire.instance, retire.at_epoch, join.at_epoch
                    )));
                }
            }
        }
        if let Some(rule) = &self.autoscale {
            if rule.evaluate_every_epochs == 0 {
                return Err(FleetError::InvalidParameter(
                    "autoscale evaluation interval must be at least one epoch".into(),
                ));
            }
            if rule.min_live == 0 {
                return Err(FleetError::InvalidParameter(
                    "autoscale floor must be at least 1 (a floor of 0 never spawns)".into(),
                ));
            }
            if rule.max_spawns == 0 {
                return Err(FleetError::InvalidParameter(
                    "autoscale spawn cap must be at least 1 (use no rule instead)".into(),
                ));
            }
            validate_spec(&rule.template)?;
            for spec in self.autoscale_pool() {
                if names.contains(&spec.name.as_str()) {
                    return Err(FleetError::InvalidParameter(format!(
                        "autoscale spawn `{}` collides with a roster name",
                        spec.name
                    )));
                }
            }
        }
        Ok(())
    }
}

/// The full *potential* roster of an elastic run, in global-index order:
/// the initial specs (join epoch 0), scripted joins sorted by epoch, then
/// the autoscale pool (join epoch decided at run time, `u64::MAX` here).
/// Discovery slots, journalled partitions and report ordering all index
/// this roster, so joined instances always occupy a contiguous prefix.
pub(crate) fn potential_roster(
    initial: &[InstanceSpec],
    churn: Option<&ChurnPlan>,
) -> Vec<(u64, InstanceSpec, bool)> {
    let mut roster: Vec<(u64, InstanceSpec, bool)> =
        initial.iter().map(|spec| (0, spec.clone(), false)).collect();
    if let Some(plan) = churn {
        for join in plan.sorted_joins() {
            roster.push((join.at_epoch, join.spec, false));
        }
        for spec in plan.autoscale_pool() {
            roster.push((u64::MAX, spec, true));
        }
    }
    roster
}

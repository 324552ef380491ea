//! Golden fleet-report digests: every simulated outcome of fork-heavy
//! frozen fleets, hashed bit-exactly.
//!
//! The fleets cycle perfbench's four fleet-mixed classes (50, 100, 150 and
//! 200 emulated browsers; leak N = 15 or 30) under time-based and
//! predictive policies with the counterfactual fork on, so most service
//! epochs end in a proactive restart whose labels and `crashes_avoided`
//! come from a frozen-rate fork. They run at 1, 2 and 4 shards, and once
//! more under a churn plan (joins, retires and an autoscale floor).
//!
//! The expected values were recorded while every fork still ran inline in
//! the restart that queued it, before forks were deferred to folds and
//! moved onto an audit lane. They must never change unless the simulated
//! model or the policy accounting does.

use aging_core::{AgingPredictor, RejuvenationConfig, RejuvenationPolicy};
use aging_fleet::{
    AutoscaleRule, ChurnPlan, ChurnStats, Fleet, FleetConfig, FleetReport, InstanceReport,
    InstanceSpec,
};
use aging_monitor::FeatureSet;
use aging_testbed::{MemLeakSpec, Scenario};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn bytes(&mut self, s: &[u8]) {
        self.word(s.len() as u64);
        for &b in s {
            self.word(u64::from(b));
        }
    }

    fn instance(&mut self, r: &InstanceReport) {
        // Exhaustive destructuring: a new field must be added to the digest.
        let InstanceReport {
            name,
            class,
            policy,
            horizon_secs,
            crashes,
            rejuvenations,
            crashes_avoided,
            downtime_secs,
            availability,
            lost_requests,
            checkpoints,
            service_epochs,
            ttf_error_sum_secs,
            ttf_error_count,
            joined_epoch,
            retired_epoch,
        } = r;
        self.bytes(name.as_bytes());
        self.bytes(class.as_bytes());
        self.bytes(policy.as_bytes());
        for x in [horizon_secs, downtime_secs, availability, lost_requests, ttf_error_sum_secs] {
            self.f64(*x);
        }
        for n in [crashes, rejuvenations, crashes_avoided, checkpoints, service_epochs] {
            self.word(*n);
        }
        self.word(*ttf_error_count);
        self.word(*joined_epoch);
        self.word(retired_epoch.unwrap_or(u64::MAX));
    }

    fn churn(&mut self, c: &ChurnStats) {
        let ChurnStats {
            scripted_joins,
            scripted_retires,
            autoscale_spawns,
            forced_retires,
            natural_retires,
            peak_live,
            final_live,
        } = *c;
        for n in [
            scripted_joins,
            scripted_retires,
            autoscale_spawns,
            forced_retires,
            natural_retires,
            peak_live,
            final_live,
        ] {
            self.word(n);
        }
    }
}

/// The report's simulated outcome: everything but `timing`, `telemetry`
/// and the scheduler's interleaving counters, which vary from run to run.
/// A frozen run carries no adaptation, routing, discovery, journal, tuning
/// or settling fields.
fn report_digest(report: &FleetReport) -> u64 {
    let FleetReport {
        instances,
        shards,
        epochs,
        horizon_secs,
        crashes,
        rejuvenations,
        crashes_avoided,
        downtime_secs,
        availability,
        lost_requests,
        checkpoints,
        mean_ttf_error_secs,
        ttf_error_count,
        adaptation,
        unpublished_checkpoints,
        routing,
        discovery,
        timing: _,
        telemetry: _,
        journal,
        tuning,
        churn,
        scheduler: _,
        quiesced,
    } = report;
    assert!(adaptation.is_none() && routing.is_none() && discovery.is_none());
    assert!(journal.is_none() && tuning.is_none() && quiesced.is_none());
    assert_eq!(*unpublished_checkpoints, 0);
    let mut h = Fnv::new();
    h.word(instances.len() as u64);
    for instance in instances {
        h.instance(instance);
    }
    h.word(*shards as u64);
    for n in [epochs, crashes, rejuvenations, crashes_avoided, checkpoints, ttf_error_count] {
        h.word(*n);
    }
    for x in [horizon_secs, downtime_secs, availability, lost_requests, mean_ttf_error_secs] {
        h.f64(*x);
    }
    match churn {
        Some(stats) => h.churn(stats),
        None => h.word(u64::MAX),
    }
    h.0
}

fn leaky(ebs: u64, n: u32) -> Scenario {
    Scenario::builder(format!("leaky-{ebs}eb-n{n}"))
        .emulated_browsers(ebs)
        .memory_leak(MemLeakSpec::new(n))
        .run_to_crash()
        .build()
}

/// perfbench's fleet-mixed classes: (emulated browsers, leak N).
const CLASSES: [(u64, u32); 4] = [(50, 15), (100, 15), (150, 30), (200, 30)];

fn predictor() -> AgingPredictor {
    AgingPredictor::train(&[leaky(100, 15)], FeatureSet::exp42(), 77).unwrap()
}

/// Instance `i` runs class `i % 4`; even instances restart every 20
/// minutes, odd ones on two consecutive predictions under 420 s.
fn spec(i: usize) -> InstanceSpec {
    let (ebs, n) = CLASSES[i % CLASSES.len()];
    let policy = if i % 2 == 0 {
        RejuvenationPolicy::TimeBased { interval_secs: 1200.0 }
    } else {
        RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 }
    };
    InstanceSpec::new(format!("mixed-{i}"), leaky(ebs, n), policy, 2_000 + i as u64)
}

fn config(shards: usize) -> FleetConfig {
    FleetConfig {
        shards,
        rejuvenation: RejuvenationConfig { horizon_secs: 3.0 * 3600.0, ..Default::default() },
        ..Default::default()
    }
}

fn mixed_fleet(shards: usize) -> Fleet {
    Fleet::new((0..8).map(spec).collect(), config(shards)).unwrap()
}

fn churn_fleet() -> Fleet {
    let plan = ChurnPlan::new()
        .join(60, spec(8))
        .join(60, spec(9))
        .join(150, spec(10))
        .retire(100, "mixed-2")
        .retire(200, "mixed-8")
        .retire(300, "mixed-5")
        .autoscale(AutoscaleRule {
            evaluate_every_epochs: 90,
            min_live: 8,
            max_spawns: 3,
            template: spec(11),
        });
    Fleet::new((0..8).map(spec).collect(), config(2)).unwrap().with_churn(plan).unwrap()
}

#[test]
fn fork_heavy_fleets_match_their_golden_digests() {
    let predictor = predictor();
    let mut got = Vec::new();
    for shards in [1, 2, 4] {
        let report = mixed_fleet(shards).run_with_predictor(&predictor);
        assert!(report.rejuvenations > report.crashes, "{report}");
        assert!(report.crashes_avoided > 0, "{report}");
        got.push((format!("{shards} shards"), report_digest(&report)));
    }
    let churned = churn_fleet().run_with_predictor(&predictor);
    let churn = churned.churn.expect("a churn plan reports churn");
    assert!(churn.scripted_joins > 0 && churn.forced_retires > 0, "{churn:?}");
    got.push(("churn plan".to_string(), report_digest(&churned)));

    let expected: [u64; 4] = [
        0x2219_417b_16e7_31de,
        0x5b9a_7bb4_2ca9_6ebd,
        0x4c72_e116_f5cf_543f,
        0xc8b3_c101_6076_0127,
    ];
    let failures: Vec<String> = got
        .iter()
        .zip(expected)
        .filter(|((_, digest), want)| digest != want)
        .map(|((what, digest), _)| format!("{what}: got {digest:#018x}"))
        .collect();
    assert!(failures.is_empty(), "digests changed:\n{}", failures.join("\n"));
}

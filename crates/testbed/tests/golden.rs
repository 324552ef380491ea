//! Golden simulator digests: every checkpoint field and the crash of a set
//! of scenarios, hashed bit-exactly. Together the scenarios fire all six
//! kinds of simulator event — arrivals and completions everywhere, thread
//! injections, checkpoints, the 1800 s periodic full GC and phase ends — so
//! any change to the event loop that reorders a single event, or perturbs
//! one bit of one metric, changes a digest here.
//!
//! The expected values were recorded with a binary-heap event queue, an
//! implementation independent of the time wheel; they must never change
//! unless the simulated model itself does.
//!
//! Three more runs pin the inputs the defaults leave fixed: a Browsing-mix
//! and an Ordering-mix leak run (the mix's interaction thresholds) and a
//! saturated server with few workers, a short accept queue and non-default
//! service and query times (the per-interaction service costs, queueing
//! and refusals). They were recorded with the sequential mix walk and the
//! per-request cost products, before the precomputed tables replaced them.

use aging_testbed::config::{ServerConfig, SimConfig, WorkloadConfig};
use aging_testbed::{
    MemLeakSpec, MetricSample, PeriodicSpec, RunTrace, Scenario, Simulator, StepOutcome,
    ThreadLeakSpec, TpcwMix,
};

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
        for &b in s {
            self.word(u64::from(b));
        }
    }

    fn sample(&mut self, s: &MetricSample) {
        // Exhaustive destructuring: a new field must be added to the digest.
        let MetricSample {
            time_secs,
            throughput_rps,
            workload_ebs,
            response_time_ms,
            system_load,
            disk_used_mb,
            swap_free_mb,
            num_processes,
            system_mem_used_mb,
            tomcat_mem_mb,
            num_threads,
            http_connections,
            mysql_connections,
            young_max_mb,
            old_max_mb,
            young_used_mb,
            old_used_mb,
            heap_used_mb,
            gc_minor,
            gc_major,
            old_resizes,
            refused,
        } = *s;
        for x in [
            time_secs,
            throughput_rps,
            workload_ebs,
            response_time_ms,
            system_load,
            disk_used_mb,
            swap_free_mb,
            num_processes,
            system_mem_used_mb,
            tomcat_mem_mb,
            num_threads,
            http_connections,
            mysql_connections,
            young_max_mb,
            old_max_mb,
            young_used_mb,
            old_used_mb,
            heap_used_mb,
            gc_minor,
            gc_major,
            old_resizes,
            refused,
        ] {
            self.f64(x);
        }
    }
}

fn trace_digest(trace: &RunTrace) -> u64 {
    let mut h = Fnv::new();
    h.word(trace.samples.len() as u64);
    for s in &trace.samples {
        h.sample(s);
    }
    match trace.crash {
        Some(crash) => {
            h.f64(crash.time_secs);
            h.bytes(format!("{:?}", crash.kind).as_bytes());
        }
        None => h.word(u64::MAX),
    }
    h.f64(trace.duration_secs);
    h.0
}

/// The `simulate template` shape: idle, N=30, N=15 with a thread leak,
/// then an unbounded N=75 leak.
fn template() -> Scenario {
    Scenario::builder("golden-template")
        .emulated_browsers(100)
        .idle_phase_minutes(20)
        .leak_phase_minutes(20, MemLeakSpec::new(30), None)
        .leak_phase_minutes(20, MemLeakSpec::new(15), Some(ThreadLeakSpec::new(30, 90)))
        .final_leak_phase(MemLeakSpec::new(75), None)
        .build()
}

/// A whole-run leak at 100 EBs under `mix`.
fn mix_leak(name: &str, mix: TpcwMix, n: u32) -> Scenario {
    let workload = WorkloadConfig { mix, ..WorkloadConfig::default() };
    Scenario::builder(name)
        .config(SimConfig { workload, ..SimConfig::default() })
        .emulated_browsers(100)
        .memory_leak(MemLeakSpec::new(n))
        .run_to_crash()
        .build()
}

/// Three workers behind a twelve-connection accept queue, with slower CPU
/// and DB times than the defaults: 150 EBs offer ~21 requests/s against a
/// capacity of ~15, so requests queue and are refused throughout.
fn saturated() -> Scenario {
    let server = ServerConfig {
        worker_threads: 3,
        max_http_connections: 12,
        base_service_ms: 55.5,
        db_query_ms: 35.25,
        ..ServerConfig::default()
    };
    Scenario::builder("golden-saturated")
        .config(SimConfig { server, ..SimConfig::default() })
        .emulated_browsers(150)
        .idle_phase_minutes(10)
        .final_leak_phase(MemLeakSpec::new(30), None)
        .build()
}

fn scenarios() -> Vec<(Scenario, u64, u64)> {
    vec![
        (mix_leak("golden-browsing-leak", TpcwMix::Browsing, 15), 3, 0x9c37_22f9_89c5_398c),
        (mix_leak("golden-ordering-leak", TpcwMix::Ordering, 15), 4, 0x9723_9d26_ebde_a64b),
        (saturated(), 6, 0x5374_ff1e_3434_4a26),
        (
            Scenario::builder("golden-leak")
                .emulated_browsers(100)
                .memory_leak(MemLeakSpec::new(15))
                .run_to_crash()
                .build(),
            1,
            0x352f_2a44_080a_b612,
        ),
        (
            Scenario::builder("golden-threads")
                .emulated_browsers(50)
                .thread_leak(ThreadLeakSpec::new(45, 60))
                .run_to_crash()
                .build(),
            5,
            0x2e53_c459_b65f_f4a5,
        ),
        (template(), 7, 0xd3c8_5851_a19b_8579),
        (
            Scenario::builder("golden-periodic-gc")
                .emulated_browsers(50)
                .duration_minutes(70)
                .build(),
            2,
            0xdc5f_266f_327a_cc17,
        ),
        (
            Scenario::builder("golden-exp43")
                .emulated_browsers(100)
                .periodic_cycles(PeriodicSpec::paper_exp43(), 2)
                .run_to_crash()
                .build(),
            11,
            0x025d_f238_f1de_97bc,
        ),
    ]
}

#[test]
fn scenario_runs_match_their_golden_digests() {
    let mut failures = Vec::new();
    for (scenario, seed, expected) in scenarios() {
        let got = trace_digest(&scenario.run(seed));
        if got != expected {
            failures.push(format!("{} seed {seed}: got {got:#018x}", scenario.name));
        }
    }
    assert!(failures.is_empty(), "digests changed:\n{}", failures.join("\n"));
}

#[test]
fn the_saturated_run_queues_and_refuses() {
    let trace = saturated().run(6);
    let workers = saturated().config.server.worker_threads as f64;
    assert!(trace.samples.iter().any(|s| s.http_connections > workers), "nothing queued");
    assert!(trace.samples.iter().map(|s| s.refused).sum::<f64>() > 0.0, "nothing refused");
}

#[test]
fn frozen_forks_match_their_golden_values_and_leave_the_run_untouched() {
    // Fork the template run in the N=30 phase, in the N=15 + thread-leak
    // phase and in the final N=75 phase.
    let scenario = template();
    let mut sim = Simulator::new(&scenario, 7);
    let mut forks = Vec::new();
    let mut samples = Vec::new();
    let mut crash = None;
    loop {
        match sim.step() {
            StepOutcome::Checkpoint(sample) => {
                if [1500.0, 3000.0, 4200.0].contains(&sample.time_secs) {
                    forks.push(sim.frozen_time_to_crash(10_800.0));
                }
                samples.push(sample);
            }
            StepOutcome::Crashed(c) => {
                crash = Some(c);
                break;
            }
            StepOutcome::Finished => break,
        }
    }
    let forked = RunTrace {
        scenario: scenario.name.clone(),
        seed: 7,
        samples,
        crash,
        duration_secs: sim.time_ms() as f64 / 1000.0,
    };
    assert_eq!(forked, scenario.run(7), "forking must not perturb the forked run");
    assert_eq!(forks, [4096.158, 735.0, 367.03999999999996], "frozen times to crash changed");
}

/// The consuming fork on a clone gives the golden values too, bit for bit:
/// it is the same fork without the copy.
#[test]
fn consuming_forks_match_the_golden_frozen_values() {
    let mut sim = Simulator::new(&template(), 7);
    let mut forks = Vec::new();
    while let StepOutcome::Checkpoint(sample) = sim.step() {
        if [1500.0, 3000.0, 4200.0].contains(&sample.time_secs) {
            let borrowed = sim.frozen_time_to_crash(10_800.0);
            let consumed = sim.clone().into_frozen_time_to_crash(10_800.0);
            assert_eq!(consumed.to_bits(), borrowed.to_bits(), "at {} s", sample.time_secs);
            forks.push(consumed.to_bits());
        }
    }
    let golden: Vec<u64> =
        [4096.158, 735.0, 367.03999999999996].iter().map(|x: &f64| x.to_bits()).collect();
    assert_eq!(forks, golden, "frozen times to crash changed");
}

//! The discrete-event simulation engine.
//!
//! [`Simulator`] drives the whole testbed: emulated browsers issue requests
//! into the Tomcat pool, requests allocate heap and (through the modified
//! search servlet) inject leaks, collectors run, the OS view tracks the
//! resident set, and a monitoring checkpoint fires every 15 seconds. The
//! run ends at a crash (heap exhaustion, thread exhaustion or system
//! memory exhaustion), when the phase list is exhausted, or at the
//! simulation-time cap.
//!
//! The simulator is deterministic given a seed and is `Clone`; cloning plus
//! [`Simulator::frozen_time_to_crash`] implements the paper's ground-truth
//! procedure for dynamic scenarios: "we fix the current injection rate and
//! then simulate the system until a crash occurs" (Section 4.2).
//! [`Simulator::into_frozen_time_to_crash`] runs the same fork on the
//! simulator itself, for callers that are done with the live run.

use crate::config::SimConfig;
use crate::inject::{MemLeakInjector, ThreadLeakInjector};
use crate::jvm::Heap;
use crate::os::OsView;
use crate::queue::EventQueue;
use crate::scenario::{MemInjection, Phase, Scenario};
use crate::server::{Admission, Request, ServiceCosts, Tomcat};
use crate::tpcw::Interaction;
use crate::workload::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Why the server died.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum CrashKind {
    /// `java.lang.OutOfMemoryError`: the Old generation could not grow.
    OutOfMemory,
    /// The process hit the kernel thread limit.
    ThreadExhaustion,
    /// Physical RAM + swap exhausted; the OS killed the process.
    SystemMemoryExhausted,
}

/// A crash event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrashInfo {
    /// Simulated time of the crash, in seconds.
    pub time_secs: f64,
    /// Failure mode.
    pub kind: CrashKind,
}

/// One 15-second monitoring checkpoint: the raw system metrics of the
/// paper's Table 2 (derived variables are computed by `aging-monitor`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetricSample {
    /// Simulated time, seconds.
    pub time_secs: f64,
    /// Completed requests per second over the last interval.
    pub throughput_rps: f64,
    /// Concurrent emulated browsers (constant — Table 2 "Workload").
    pub workload_ebs: f64,
    /// Mean response time over the last interval, ms.
    pub response_time_ms: f64,
    /// Runnable work per worker (load proxy).
    pub system_load: f64,
    /// Disk used, MB.
    pub disk_used_mb: f64,
    /// Free swap, MB.
    pub swap_free_mb: f64,
    /// OS process count.
    pub num_processes: f64,
    /// Total system memory used, MB.
    pub system_mem_used_mb: f64,
    /// Tomcat resident set (OS perspective), MB.
    pub tomcat_mem_mb: f64,
    /// Threads owned by the Tomcat process.
    pub num_threads: f64,
    /// Open HTTP connections.
    pub http_connections: f64,
    /// Busy MySQL connections.
    pub mysql_connections: f64,
    /// Young generation capacity, MB.
    pub young_max_mb: f64,
    /// Old generation committed capacity, MB (grows at resizes).
    pub old_max_mb: f64,
    /// Young generation used, MB.
    pub young_used_mb: f64,
    /// Old generation used, MB.
    pub old_used_mb: f64,
    /// JVM-perspective heap used (young + old), MB.
    pub heap_used_mb: f64,
    /// Minor collections during the interval.
    pub gc_minor: f64,
    /// Major collections during the interval.
    pub gc_major: f64,
    /// Old-zone resizes during the interval.
    pub old_resizes: f64,
    /// Connections refused during the interval.
    pub refused: f64,
}

/// The full record of one simulated execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunTrace {
    /// Scenario name.
    pub scenario: String,
    /// RNG seed the run used.
    pub seed: u64,
    /// Checkpoints, in time order.
    pub samples: Vec<MetricSample>,
    /// The crash, if one occurred.
    pub crash: Option<CrashInfo>,
    /// Total simulated duration, seconds.
    pub duration_secs: f64,
}

impl RunTrace {
    /// Time to failure from `t_secs`, if the run crashed.
    pub fn ttf_from(&self, t_secs: f64) -> Option<f64> {
        self.crash.map(|c| (c.time_secs - t_secs).max(0.0))
    }
}

/// Result of advancing the simulation to its next observable point.
#[derive(Debug, Clone, PartialEq)]
pub enum StepOutcome {
    /// A monitoring checkpoint fired.
    Checkpoint(MetricSample),
    /// The server crashed; no further progress is possible.
    Crashed(CrashInfo),
    /// The scenario ended without a crash (phases exhausted or time cap).
    Finished,
}

/// Memory-injection mode currently in force.
#[derive(Debug, Clone, PartialEq)]
enum MemMode {
    None,
    Leak(MemLeakInjector),
    Acquire(MemLeakInjector),
    Release(MemLeakInjector),
}

/// Discrete events, popped in (time, push order) order.
#[derive(Debug, Clone, Copy)]
enum Event {
    Arrival { eb: u64, interaction: Interaction },
    Completion { eb: u64, arrival_ms: u64, interaction: Interaction },
    ThreadInject { phase: usize },
    Checkpoint,
    PeriodicGc,
    PhaseEnd { phase: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct IntervalAccum {
    completed: u64,
    response_sum_ms: f64,
    gc_minor: u64,
    gc_major: u64,
    resizes: u64,
    refused_baseline: u64,
}

/// The simulation engine. See the module docs.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: SimConfig,
    scenario_name: String,
    phases: Vec<Phase>,
    current_phase: usize,
    time_ms: u64,
    rng: StdRng,
    seed: u64,
    heap: Heap,
    os: OsView,
    tomcat: Tomcat,
    /// The server configuration's per-interaction costs, kept here because
    /// [`Tomcat`] is serialized and compared.
    service_costs: ServiceCosts,
    workload: Workload,
    injected_threads: u64,
    mem_mode: MemMode,
    thread_injector: Option<ThreadLeakInjector>,
    events: EventQueue<Event>,
    pending_gc_pause_ms: f64,
    interval: IntervalAccum,
    crash: Option<CrashInfo>,
    finished: bool,
    frozen: bool,
}

impl Simulator {
    /// Builds a simulator for `scenario` under `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the scenario's configuration fails validation or has no
    /// phases (both prevented by [`Scenario::builder`]).
    pub fn new(scenario: &Scenario, seed: u64) -> Self {
        let problems = scenario.config.validate();
        assert!(problems.is_empty(), "invalid configuration: {problems:?}");
        assert!(!scenario.phases.is_empty(), "scenario has no phases");

        let config = scenario.config;
        let mut heap = Heap::new(config.heap);
        let tomcat = Tomcat::new(config.server);
        let workload = Workload::new(config.workload);
        let os = OsView::new(config.system, config.server.mysql_rss_mb);

        // Long-lived session state for the EB population.
        heap.add_live(tomcat.session_footprint_mb(workload.emulated_browsers()))
            .expect("session state fits in a fresh heap");
        let _ = heap.drain_activity();

        let mut sim = Simulator {
            config,
            scenario_name: scenario.name.clone(),
            phases: scenario.phases.clone(),
            current_phase: 0,
            time_ms: 0,
            rng: StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15),
            seed,
            heap,
            os,
            tomcat,
            service_costs: ServiceCosts::new(&config.server),
            workload,
            injected_threads: 0,
            mem_mode: MemMode::None,
            thread_injector: None,
            events: EventQueue::new(),
            pending_gc_pause_ms: 0.0,
            interval: IntervalAccum::default(),
            crash: None,
            finished: false,
            frozen: false,
        };

        sim.enter_phase(0);
        // Stagger the emulated browsers over one mean think time.
        for eb in 0..sim.workload.emulated_browsers() {
            let offset =
                sim.workload.think_time_ms(&mut sim.rng) % sim.config.workload.think_time_mean_ms;
            let interaction = sim.workload.sample_interaction(&mut sim.rng);
            sim.events.push(offset as u64, Event::Arrival { eb, interaction });
        }
        sim.events.push(sim.config.checkpoint_interval_ms, Event::Checkpoint);
        if sim.config.heap.periodic_full_gc_secs > 0 {
            sim.events.push(sim.config.heap.periodic_full_gc_secs * 1000, Event::PeriodicGc);
        }
        sim
    }

    /// Current simulated time in ms.
    pub fn time_ms(&self) -> u64 {
        self.time_ms
    }

    /// The heap (for white-box assertions and figure series).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Threads currently owned by the Tomcat process.
    pub fn process_threads(&self) -> u64 {
        self.tomcat.base_threads() + self.injected_threads
    }

    /// The crash, if it already happened.
    pub fn crash(&self) -> Option<CrashInfo> {
        self.crash
    }

    /// Index of the phase currently in force.
    pub fn current_phase(&self) -> usize {
        self.current_phase
    }

    fn enter_phase(&mut self, idx: usize) {
        self.current_phase = idx;
        let phase = self.phases[idx].clone();
        self.mem_mode = match phase.mem {
            MemInjection::None => MemMode::None,
            MemInjection::Leak(spec) => MemMode::Leak(MemLeakInjector::new(spec, &mut self.rng)),
            MemInjection::Acquire(spec) => {
                MemMode::Acquire(MemLeakInjector::new(spec, &mut self.rng))
            }
            MemInjection::Release(spec) => {
                MemMode::Release(MemLeakInjector::new(spec, &mut self.rng))
            }
        };
        self.thread_injector = phase.threads.map(ThreadLeakInjector::new);
        if let Some(injector) = &self.thread_injector {
            let delay = injector.next_delay_ms(&mut self.rng);
            self.events.push(self.time_ms + delay, Event::ThreadInject { phase: idx });
        }
        if let Some(duration) = phase.duration_ms {
            self.events.push(self.time_ms + duration, Event::PhaseEnd { phase: idx });
        }
    }

    fn record_crash(&mut self, kind: CrashKind) {
        if self.crash.is_none() {
            self.crash = Some(CrashInfo { time_secs: self.time_ms as f64 / 1000.0, kind });
        }
    }

    /// Drains collector activity into the interval accumulators and the
    /// pending-pause budget, then runs the host-level crash checks.
    fn absorb_heap_activity(&mut self) {
        let act = self.heap.drain_activity();
        self.interval.gc_minor += act.minor;
        self.interval.gc_major += act.major;
        self.interval.resizes += act.resizes;
        self.pending_gc_pause_ms += act.pause_ms;
        let threads = self.process_threads();
        if self.os.memory_exhausted(&self.heap, threads) {
            self.record_crash(CrashKind::SystemMemoryExhausted);
        }
    }

    fn schedule_completion(&mut self, request: Request) {
        let pause = std::mem::take(&mut self.pending_gc_pause_ms);
        let cost = self.service_costs.get(request.interaction);
        let service = self.tomcat.service_time_ms(cost, pause, &mut self.rng).max(1.0);
        self.events.push(
            self.time_ms + service as u64,
            Event::Completion {
                eb: request.eb,
                arrival_ms: request.arrival_ms,
                interaction: request.interaction,
            },
        );
    }

    fn schedule_next_request(&mut self, eb: u64) {
        let think = self.workload.think_time_ms(&mut self.rng) as u64;
        let interaction = self.workload.sample_interaction(&mut self.rng);
        self.events.push(self.time_ms + think.max(1), Event::Arrival { eb, interaction });
    }

    fn handle_search_injection(&mut self) {
        match &mut self.mem_mode {
            MemMode::None => {}
            MemMode::Leak(injector) | MemMode::Acquire(injector) => {
                let mb = injector.on_search_request(&mut self.rng);
                if mb > 0.0 && self.heap.leak(mb).is_err() {
                    self.record_crash(CrashKind::OutOfMemory);
                }
            }
            MemMode::Release(injector) => {
                let mb = injector.on_search_request(&mut self.rng);
                if mb > 0.0 {
                    self.heap.release_leaked(mb);
                }
            }
        }
    }

    fn take_sample(&mut self) -> MetricSample {
        let interval_secs = self.config.checkpoint_interval_ms as f64 / 1000.0;
        let acc = self.interval;
        let threads = self.process_threads();
        let refused_now = self.tomcat.refused_total();
        let sample = MetricSample {
            time_secs: self.time_ms as f64 / 1000.0,
            throughput_rps: acc.completed as f64 / interval_secs,
            workload_ebs: self.workload.emulated_browsers() as f64,
            response_time_ms: if acc.completed > 0 {
                acc.response_sum_ms / acc.completed as f64
            } else {
                0.0
            },
            system_load: self.tomcat.system_load(),
            disk_used_mb: self.os.disk_used_mb(),
            swap_free_mb: self.os.swap_free_mb(&self.heap, threads),
            num_processes: self.os.num_processes() as f64,
            system_mem_used_mb: self.os.system_mem_used_mb(&self.heap, threads),
            tomcat_mem_mb: self.os.tomcat_rss_mb(&self.heap, threads),
            num_threads: threads as f64,
            http_connections: self.tomcat.http_connections() as f64,
            mysql_connections: self.tomcat.mysql_connections() as f64,
            young_max_mb: self.heap.young_capacity(),
            old_max_mb: self.heap.old_committed(),
            young_used_mb: self.heap.young_used(),
            old_used_mb: self.heap.old_used(),
            heap_used_mb: self.heap.used_total(),
            gc_minor: acc.gc_minor as f64,
            gc_major: acc.gc_major as f64,
            old_resizes: acc.resizes as f64,
            refused: (refused_now - acc.refused_baseline) as f64,
        };
        self.interval = IntervalAccum { refused_baseline: refused_now, ..Default::default() };
        sample
    }

    /// Advances to the next checkpoint, crash or end of scenario.
    pub fn step(&mut self) -> StepOutcome {
        loop {
            if let Some(crash) = self.crash {
                return StepOutcome::Crashed(crash);
            }
            if self.finished {
                return StepOutcome::Finished;
            }
            let Some((at_ms, event)) = self.events.pop() else {
                self.finished = true;
                return StepOutcome::Finished;
            };
            if at_ms > self.config.max_sim_time_ms {
                self.finished = true;
                return StepOutcome::Finished;
            }
            self.time_ms = at_ms.max(self.time_ms);

            match event {
                Event::Arrival { eb, interaction } => {
                    let request = Request { eb, arrival_ms: self.time_ms, interaction };
                    match self.tomcat.offer(request) {
                        Admission::Served => self.schedule_completion(request),
                        Admission::Queued => {}
                        Admission::Refused => self.schedule_next_request(eb),
                    }
                }
                Event::Completion { eb, arrival_ms, interaction } => {
                    self.interval.completed += 1;
                    self.interval.response_sum_ms += (self.time_ms - arrival_ms) as f64;
                    self.os.log_requests(1);
                    if self.heap.allocate_transient(self.tomcat.alloc_per_request_mb()).is_err() {
                        self.record_crash(CrashKind::OutOfMemory);
                    }
                    if interaction.hits_search_servlet() {
                        self.handle_search_injection();
                    }
                    self.absorb_heap_activity();
                    if let Some(next) = self.tomcat.complete() {
                        self.schedule_completion(next);
                    }
                    self.schedule_next_request(eb);
                }
                Event::ThreadInject { phase } => {
                    if phase != self.current_phase || self.crash.is_some() {
                        continue;
                    }
                    let Some(injector) = &mut self.thread_injector else { continue };
                    let count = injector.injection_size(&mut self.rng);
                    let delay = injector.next_delay_ms(&mut self.rng);
                    self.injected_threads += count;
                    let footprint = count as f64 * self.config.heap.thread_heap_mb;
                    if self.heap.add_live(footprint).is_err() {
                        self.record_crash(CrashKind::OutOfMemory);
                    }
                    self.absorb_heap_activity();
                    if self.os.thread_limit_exceeded(self.process_threads()) {
                        self.record_crash(CrashKind::ThreadExhaustion);
                    }
                    self.events.push(self.time_ms + delay.max(1), Event::ThreadInject { phase });
                }
                Event::Checkpoint => {
                    let sample = self.take_sample();
                    self.events
                        .push(self.time_ms + self.config.checkpoint_interval_ms, Event::Checkpoint);
                    return StepOutcome::Checkpoint(sample);
                }
                Event::PeriodicGc => {
                    self.heap.full_gc();
                    self.absorb_heap_activity();
                    self.events.push(
                        self.time_ms + self.config.heap.periodic_full_gc_secs * 1000,
                        Event::PeriodicGc,
                    );
                }
                Event::PhaseEnd { phase } => {
                    if self.frozen || phase != self.current_phase {
                        continue;
                    }
                    if phase + 1 >= self.phases.len() {
                        self.finished = true;
                        return StepOutcome::Finished;
                    }
                    self.enter_phase(phase + 1);
                }
            }
        }
    }

    /// Runs the scenario to its end and returns the trace of the
    /// checkpoints this call stepped through.
    pub fn run_to_completion(mut self) -> RunTrace {
        let mut samples = Vec::new();
        while let StepOutcome::Checkpoint(sample) = self.step() {
            samples.push(sample);
        }
        RunTrace {
            scenario: self.scenario_name,
            seed: self.seed,
            samples,
            crash: self.crash,
            duration_secs: self.time_ms as f64 / 1000.0,
        }
    }

    /// The paper's ground truth for dynamic scenarios: clones the simulator,
    /// freezes the current phase (injection rates never change again) and
    /// runs until the crash. Returns the time to failure in seconds from
    /// the current instant, capped at `cap_secs` ("infinite" when the
    /// frozen state never crashes — the paper caps at 3 h = 10 800 s).
    pub fn frozen_time_to_crash(&self, cap_secs: f64) -> f64 {
        self.clone().into_frozen_time_to_crash(cap_secs)
    }

    /// [`Simulator::frozen_time_to_crash`] on this simulator itself instead
    /// of a clone, for a caller that drops the live run anyway (a fleet
    /// instance's proactive restart). The result is the same, bit for bit.
    pub fn into_frozen_time_to_crash(mut self, cap_secs: f64) -> f64 {
        self.frozen = true;
        let cap_ms = (cap_secs * 1000.0) as u64;
        let start_ms = self.time_ms;
        self.config.max_sim_time_ms = start_ms.saturating_add(cap_ms).saturating_add(60_000);
        loop {
            match self.step() {
                StepOutcome::Crashed(crash) => {
                    return ((crash.time_secs - start_ms as f64 / 1000.0).max(0.0)).min(cap_secs);
                }
                StepOutcome::Finished => return cap_secs,
                StepOutcome::Checkpoint(_) => {
                    if self.time_ms.saturating_sub(start_ms) > cap_ms {
                        return cap_secs;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::{MemLeakSpec, PeriodicSpec, ThreadLeakSpec};

    fn leak_scenario(ebs: u64, n: u32) -> Scenario {
        Scenario::builder(format!("leak-{ebs}eb-N{n}"))
            .emulated_browsers(ebs)
            .memory_leak(MemLeakSpec::new(n))
            .run_to_crash()
            .build()
    }

    #[test]
    fn aggressive_leak_crashes_with_oom() {
        let trace = leak_scenario(100, 15).run(1);
        let crash = trace.crash.expect("N=15 at 100 EBs must crash");
        assert_eq!(crash.kind, CrashKind::OutOfMemory);
        assert!(crash.time_secs > 600.0, "crash at {} too early", crash.time_secs);
        assert!(crash.time_secs < 6.0 * 3600.0, "crash at {} too late", crash.time_secs);
        assert!(!trace.samples.is_empty());
    }

    #[test]
    fn no_injection_does_not_crash_within_two_hours() {
        let s = Scenario::builder("idle").emulated_browsers(100).duration_minutes(120).build();
        let trace = s.run(2);
        assert!(trace.crash.is_none());
        assert!((trace.duration_secs - 7200.0).abs() < 20.0);
        // ~480 checkpoints at 15 s.
        assert!((470..=482).contains(&trace.samples.len()), "{}", trace.samples.len());
    }

    #[test]
    fn same_seed_same_trace() {
        let s = leak_scenario(50, 30);
        let a = s.run(7);
        let b = s.run(7);
        assert_eq!(a, b, "simulation must be deterministic given a seed");
    }

    #[test]
    fn different_seeds_differ() {
        let s = leak_scenario(50, 30);
        let a = s.run(7);
        let b = s.run(8);
        assert_ne!(
            a.crash.map(|c| c.time_secs),
            b.crash.map(|c| c.time_secs),
            "different seeds should produce different crash times"
        );
    }

    #[test]
    fn heavier_workload_crashes_sooner() {
        // Leak injection is workload-dependent (search-servlet driven).
        let fast = leak_scenario(200, 30).run(3).crash.unwrap().time_secs;
        let slow = leak_scenario(50, 30).run(3).crash.unwrap().time_secs;
        assert!(
            fast * 2.0 < slow,
            "200 EBs ({fast}s) must crash much sooner than 50 EBs ({slow}s)"
        );
    }

    #[test]
    fn smaller_n_crashes_sooner() {
        let fast = leak_scenario(100, 15).run(4).crash.unwrap().time_secs;
        let slow = leak_scenario(100, 75).run(4).crash.unwrap().time_secs;
        assert!(fast * 2.5 < slow, "N=15 ({fast}s) must crash well before N=75 ({slow}s)");
    }

    #[test]
    fn thread_leak_crashes_by_thread_exhaustion() {
        let s = Scenario::builder("threads")
            .emulated_browsers(50)
            .thread_leak(ThreadLeakSpec::new(45, 60))
            .run_to_crash()
            .build();
        let trace = s.run(5);
        let crash = trace.crash.expect("aggressive thread leak must crash");
        assert!(
            matches!(crash.kind, CrashKind::ThreadExhaustion | CrashKind::SystemMemoryExhausted),
            "unexpected crash kind {:?}",
            crash.kind
        );
    }

    #[test]
    fn metrics_are_plausible_under_load() {
        let s = Scenario::builder("metrics").emulated_browsers(100).duration_minutes(20).build();
        let trace = s.run(6);
        let mid = &trace.samples[trace.samples.len() / 2];
        // ~14.3 rps expected at 100 EBs / 7 s think time.
        assert!((8.0..20.0).contains(&mid.throughput_rps), "rps {}", mid.throughput_rps);
        assert!(mid.response_time_ms > 10.0 && mid.response_time_ms < 2000.0);
        assert_eq!(mid.workload_ebs, 100.0);
        assert!(mid.num_threads >= 76.0);
        assert!(mid.tomcat_mem_mb > 100.0);
        assert!(mid.system_mem_used_mb > mid.tomcat_mem_mb);
        assert!(mid.old_max_mb >= 256.0);
        assert!(mid.heap_used_mb <= 1024.0);
    }

    #[test]
    fn os_view_is_monotone_under_pure_leak() {
        let trace = leak_scenario(100, 30).run(9);
        let mut prev = 0.0;
        for s in &trace.samples {
            assert!(
                s.tomcat_mem_mb >= prev - 1e-9,
                "OS-perspective memory must never shrink (t={})",
                s.time_secs
            );
            prev = s.tomcat_mem_mb;
        }
    }

    #[test]
    fn jvm_view_waves_but_os_view_flat_under_periodic_pattern() {
        let s = Scenario::builder("fig2-like")
            .emulated_browsers(100)
            .periodic_cycles_no_retention(PeriodicSpec::paper_exp43(), 3)
            .build();
        let trace = s.run(10);
        assert!(trace.crash.is_none(), "no-retention pattern must not crash");
        // Skip the first cycle (warm-up): afterwards the OS view is flat
        // while the JVM view keeps oscillating.
        let tail: Vec<_> = trace.samples.iter().filter(|s| s.time_secs > 3600.0).collect();
        let os_min = tail.iter().map(|s| s.tomcat_mem_mb).fold(f64::INFINITY, f64::min);
        let os_max = tail.iter().map(|s| s.tomcat_mem_mb).fold(0.0, f64::max);
        let jvm_min = tail.iter().map(|s| s.heap_used_mb).fold(f64::INFINITY, f64::min);
        let jvm_max = tail.iter().map(|s| s.heap_used_mb).fold(0.0, f64::max);
        assert!(
            os_max - os_min < 80.0,
            "OS view should be nearly flat, spread {}",
            os_max - os_min
        );
        assert!(
            jvm_max - jvm_min > 100.0,
            "JVM view should wave by >100 MB, spread {}",
            jvm_max - jvm_min
        );
    }

    #[test]
    fn retention_pattern_crashes_eventually() {
        let s = Scenario::builder("exp43-like")
            .emulated_browsers(100)
            .periodic_cycles(PeriodicSpec::paper_exp43(), 30)
            .run_to_crash()
            .build();
        let trace = s.run(11);
        let crash = trace.crash.expect("net retention must exhaust the heap");
        assert!(
            crash.time_secs > 3600.0,
            "crash at {}s: too fast for masked aging",
            crash.time_secs
        );
    }

    #[test]
    fn phase_changes_change_consumption_rate() {
        let s = Scenario::builder("phased")
            .emulated_browsers(100)
            .idle_phase_minutes(20)
            .final_leak_phase(MemLeakSpec::new(15), None)
            .build();
        let trace = s.run(12);
        // During the idle phase the old-gen usage must stay near its start;
        // afterwards it must climb.
        let early = &trace.samples[30]; // ~7.5 min
        let later_idx = trace.samples.iter().position(|s| s.time_secs > 1800.0).unwrap();
        let later = &trace.samples[later_idx];
        assert!(later.old_used_mb > early.old_used_mb + 50.0);
    }

    #[test]
    fn frozen_fork_matches_reality_when_rate_is_constant() {
        // For a constant-rate scenario, the frozen ground truth at time t
        // must be close to (real crash time - t).
        let scenario = leak_scenario(100, 30);
        let mut sim = Simulator::new(&scenario, 13);
        let mut checked = 0;
        let real_crash = scenario.run(13).crash.unwrap().time_secs;
        while let StepOutcome::Checkpoint(sample) = sim.step() {
            if sample.time_secs >= 1200.0 && checked < 3 {
                let frozen = sim.frozen_time_to_crash(10_800.0);
                let actual = real_crash - sample.time_secs;
                let err = (frozen - actual).abs();
                assert!(
                    err < actual.max(300.0) * 0.35 + 120.0,
                    "frozen {frozen} vs actual {actual} at t={}",
                    sample.time_secs
                );
                checked += 1;
            }
            if checked >= 3 {
                break;
            }
        }
        assert_eq!(checked, 3, "expected three ground-truth checks");
    }

    #[test]
    fn frozen_fork_of_idle_phase_reports_cap() {
        let s = Scenario::builder("idle-then-leak")
            .emulated_browsers(100)
            .idle_phase_minutes(30)
            .final_leak_phase(MemLeakSpec::new(30), None)
            .build();
        let mut sim = Simulator::new(&s, 14);
        // Step to ~5 minutes: still idle.
        let mut t = 0.0;
        while t < 300.0 {
            match sim.step() {
                StepOutcome::Checkpoint(sample) => t = sample.time_secs,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        let frozen = sim.frozen_time_to_crash(10_800.0);
        assert_eq!(frozen, 10_800.0, "an idle system never crashes: TTF = cap");
    }

    #[test]
    fn ttf_from_helper() {
        let trace = leak_scenario(100, 15).run(15);
        let crash_t = trace.crash.unwrap().time_secs;
        assert_eq!(trace.ttf_from(crash_t - 100.0), Some(100.0));
        assert_eq!(trace.ttf_from(crash_t + 50.0), Some(0.0));
        let idle = Scenario::builder("i").emulated_browsers(10).duration_minutes(5).build().run(1);
        assert_eq!(idle.ttf_from(0.0), None);
    }
}

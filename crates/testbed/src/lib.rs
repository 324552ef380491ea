//! Discrete-event simulator of the DSN'10 paper's experimental testbed.
//!
//! The original evaluation ran a physical three-tier deployment: a TPC-W
//! online bookstore (Java servlets) on Apache Tomcat 5.5 with a MySQL
//! backend, driven by TPC-W *emulated browsers*, with aging faults injected
//! through a modified search servlet (memory) and a thread injector
//! (Table 1 of the paper). None of that hardware or software stack is
//! available here, so this crate rebuilds it as a deterministic
//! discrete-event simulation that preserves the behaviours the evaluation
//! depends on:
//!
//! - [`jvm`] — a generational Java heap (Young / Old / Permanent) with minor
//!   and major collections and the incremental Old-zone resizing that
//!   produces the paper's Figure 1 staircase, plus a thread model where
//!   every Java thread also consumes heap (the coupling Experiment 4.4
//!   exploits);
//! - [`os`] — the operating-system view of memory: Linux does not reclaim
//!   freed RSS, so the OS-level curve is the *high-water mark* of the heap,
//!   which produces the Figure 2 divergence between OS and JVM perspectives;
//! - [`server`] — the Tomcat worker-pool / request-queue model and the
//!   MySQL connection pool;
//! - [`workload`] — TPC-W emulated browsers with exponential think times
//!   and the shopping mix;
//! - [`inject`] — the paper's fault injectors: memory leaks parameterised by
//!   `N` (every `U(0..N)` search-servlet requests leak 1 MB) and thread
//!   leaks parameterised by `M`, `T` (every `U(0..T)` seconds spawn
//!   `U(0..M)` never-dying threads);
//! - [`scenario`] — phase-structured experiment descriptions (the paper
//!   changes injection rates every 20–30 minutes);
//! - [`sim`] — the event loop over an exact-order time-wheel event queue,
//!   metric checkpoints every 15 s, crash detection, and the *frozen-rate
//!   fork* used to compute the paper's ground truth ("we fix the current
//!   injection rate and then simulate the system until a crash occurs").
//!
//! Everything is deterministic given a seed, and the simulator is `Clone`,
//! which is what makes the frozen-rate ground truth exact.
//!
//! # Example
//!
//! ```
//! use aging_testbed::{MemLeakSpec, Scenario};
//!
//! let scenario = Scenario::builder("quick")
//!     .emulated_browsers(100)
//!     .memory_leak(MemLeakSpec::new(30))
//!     .run_to_crash()
//!     .build();
//! let trace = scenario.run(7);
//! assert!(trace.crash.is_some(), "an N=30 leak must crash the server");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod inject;
pub mod jvm;
pub mod os;
mod queue;
pub mod scenario;
pub mod server;
pub mod sim;
pub mod tpcw;
pub mod workload;

pub use config::SimConfig;
pub use inject::{MemLeakSpec, PeriodicSpec, ThreadLeakSpec};
pub use scenario::{Phase, Scenario, ScenarioBuilder};
pub use sim::{CrashKind, MetricSample, RunTrace, Simulator, StepOutcome};
pub use tpcw::{Interaction, TpcwMix};

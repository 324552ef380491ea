//! Counterfactual forks off the shard's critical path.
//!
//! A proactive restart is labelled against the paper's frozen-rate fork
//! (Section 4.2: fix the current injection rate and simulate until a
//! crash). The restart drops the live simulator anyway, so the instance
//! moves it into a [`ForkJob`] and defers the epoch's labelling to a
//! *fold* (`Instance::fold`), which reads the job's time to crash and
//! applies the labels. A job runs in one of three places:
//!
//! - on the run's [`AuditLane`], one helper thread per run, when the
//!   engine starts one (`Fleet::run_bound` says when);
//! - otherwise in its shard's counterfactual phase, right after predict;
//! - or in the fold itself, when the fold comes first. A fold whose job is
//!   running elsewhere waits for it.
//!
//! Wherever it runs, a job records one `fleet_counterfactual_seconds`
//! observation. A job that panics on the lane is caught there and resumed
//! at its fold, on the shard's thread.

use aging_obs::HistogramHandle;
use aging_testbed::Simulator;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex};

/// The fork's progress.
#[derive(Debug)]
enum ForkState {
    /// Not started: the restarted instance's live simulator.
    Queued(Box<Simulator>),
    /// Claimed by the lane, a shard or a fold.
    Running,
    /// Run on the lane or in a shard's phase; the panic of a failed fork.
    Done(std::thread::Result<f64>),
    /// Read by its fold.
    Folded,
}

/// One restart's frozen-rate fork, shared by the instance that folds it
/// and whoever runs it.
#[derive(Debug)]
pub(crate) struct ForkJob {
    cap_secs: f64,
    state: Mutex<ForkState>,
    finished: Condvar,
    /// `fleet_counterfactual_seconds{shard}`.
    timer: HistogramHandle,
}

impl ForkJob {
    /// A queued fork of `sim` with a horizon of `cap_secs`, timed into
    /// `timer` wherever it runs.
    pub(crate) fn new(sim: Box<Simulator>, cap_secs: f64, timer: HistogramHandle) -> Arc<Self> {
        Arc::new(ForkJob {
            cap_secs,
            state: Mutex::new(ForkState::Queued(sim)),
            finished: Condvar::new(),
            timer,
        })
    }

    /// Takes the simulator of a job nobody has started.
    fn claim(&self) -> Option<Box<Simulator>> {
        let mut state = self.state.lock().expect("fork job poisoned");
        match std::mem::replace(&mut *state, ForkState::Running) {
            ForkState::Queued(sim) => Some(sim),
            other => {
                *state = other;
                None
            }
        }
    }

    fn simulate(&self, sim: Box<Simulator>) -> f64 {
        let _span = self.timer.span();
        sim.into_frozen_time_to_crash(self.cap_secs)
    }

    fn finish(&self, result: std::thread::Result<f64>) {
        *self.state.lock().expect("fork job poisoned") = ForkState::Done(result);
        self.finished.notify_all();
    }

    /// Whether the fork has run elsewhere and waits for its fold.
    pub(crate) fn finished(&self) -> bool {
        matches!(*self.state.lock().expect("fork job poisoned"), ForkState::Done(_))
    }

    /// Runs the fork unless it was claimed already, keeping a panic for
    /// the fold to resume.
    pub(crate) fn run(&self) {
        if let Some(sim) = self.claim() {
            self.finish(std::panic::catch_unwind(AssertUnwindSafe(|| self.simulate(sim))));
        }
    }

    /// The fork's time to crash, for the fold. Runs the fork here when
    /// nobody has started it, and waits, timed into `wait`, when it is
    /// running elsewhere. Resumes the panic of a fork that failed.
    pub(crate) fn join(&self, wait: &HistogramHandle) -> f64 {
        if let Some(sim) = self.claim() {
            let ttf = self.simulate(sim);
            *self.state.lock().expect("fork job poisoned") = ForkState::Folded;
            return ttf;
        }
        let mut state = self.state.lock().expect("fork job poisoned");
        if matches!(*state, ForkState::Running) {
            let _span = wait.span();
            while matches!(*state, ForkState::Running) {
                state = self.finished.wait(state).expect("fork job poisoned");
            }
        }
        match std::mem::replace(&mut *state, ForkState::Folded) {
            ForkState::Done(Ok(ttf)) => ttf,
            ForkState::Done(Err(payload)) => {
                drop(state);
                std::panic::resume_unwind(payload)
            }
            _ => unreachable!("a fork is folded once"),
        }
    }
}

/// A shard's fork timers, handed to each of its instances.
#[derive(Debug, Clone, Default)]
pub(crate) struct ForkInstruments {
    /// `fleet_counterfactual_seconds{shard}`: one observation per fork,
    /// wherever it ran.
    pub(crate) run: HistogramHandle,
    /// `fleet_counterfactual_wait_seconds{shard}`: one observation per fold
    /// that waited for its fork.
    pub(crate) wait: HistogramHandle,
}

/// Jobs waiting for the lane.
#[derive(Debug, Default)]
struct LaneQueue {
    jobs: VecDeque<Arc<ForkJob>>,
    closed: bool,
    /// Test builds: the claim signal of a lane that panics on its first
    /// job ([`AuditLane::panicking`]).
    #[cfg(test)]
    panic_seam: Option<std::sync::mpsc::Sender<()>>,
}

/// A run's audit lane: one helper thread that runs queued forks in
/// submission order while the shards go on.
#[derive(Debug, Default)]
pub(crate) struct AuditLane {
    queue: Mutex<LaneQueue>,
    ready: Condvar,
    /// Test builds: the receiving end of the panic seam's claim signal.
    #[cfg(test)]
    claimed: Mutex<Option<std::sync::mpsc::Receiver<()>>>,
}

impl AuditLane {
    /// Test builds: a lane whose first job panics once the lane has
    /// claimed it. The submission of the first job blocks until that
    /// claim, so the fork cannot be folded — and run inline — first.
    #[cfg(test)]
    pub(crate) fn panicking() -> Self {
        let (sender, receiver) = std::sync::mpsc::channel();
        let lane = AuditLane::default();
        lane.queue.lock().expect("audit lane poisoned").panic_seam = Some(sender);
        *lane.claimed.lock().expect("audit lane poisoned") = Some(receiver);
        lane
    }

    /// Queues a job for the lane.
    pub(crate) fn submit(&self, job: Arc<ForkJob>) {
        self.queue.lock().expect("audit lane poisoned").jobs.push_back(job);
        self.ready.notify_one();
        #[cfg(test)]
        if let Some(claimed) = self.claimed.lock().expect("audit lane poisoned").take() {
            claimed.recv().expect("the lane signals its claim");
        }
    }

    /// The lane thread: runs jobs until the lane is closed. Jobs still
    /// queued then were folded already, or belong to a run that is
    /// unwinding.
    pub(crate) fn work(&self) {
        loop {
            let job = {
                let mut queue = self.queue.lock().expect("audit lane poisoned");
                loop {
                    if queue.closed {
                        return;
                    }
                    if let Some(job) = queue.jobs.pop_front() {
                        #[cfg(test)]
                        if let Some(claimed) = queue.panic_seam.take() {
                            drop(queue);
                            let sim = job.claim();
                            claimed.send(()).expect("the submitter waits for the claim");
                            if sim.is_some() {
                                job.finish(std::panic::catch_unwind(|| -> f64 {
                                    panic!("synthetic fork panic on the audit lane")
                                }));
                            }
                            break None;
                        }
                        break Some(job);
                    }
                    queue = self.ready.wait(queue).expect("audit lane poisoned");
                }
            };
            if let Some(job) = job {
                job.run();
            }
        }
    }

    /// Stops the lane thread. Never panics, so [`CloseOnDrop`] may call it
    /// while the run unwinds: setting the flag leaves the queue valid even
    /// behind a poisoned lock.
    pub(crate) fn close(&self) {
        self.queue.lock().unwrap_or_else(std::sync::PoisonError::into_inner).closed = true;
        self.ready.notify_all();
    }
}

/// Closes a lane when dropped, so the lane thread exits even when the run
/// unwinds.
pub(crate) struct CloseOnDrop<'a>(pub(crate) &'a AuditLane);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

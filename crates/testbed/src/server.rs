//! The Tomcat application-server model: a bounded worker pool with a
//! bounded accept queue, plus the MySQL connection pool.
//!
//! The server is a pure state machine; the event loop in [`crate::sim`]
//! drives it. Service times grow with pool contention and absorb pending
//! garbage-collection pauses, which is how heap pressure surfaces as the
//! response-time degradation that often accompanies software aging
//! (Section 1 of the paper).
//!
//! # Precomputed service costs
//!
//! An interaction's CPU and DB costs, `base_service_ms × cpu_weight` and
//! `db_query_ms × db_weight`, depend only on the [`ServerConfig`], so
//! [`ServiceCosts`] computes all fourteen pairs once, with the same two
//! multiplications the per-request formula used, and
//! [`Tomcat::service_time_ms`] reads its pair from there. The products are
//! bit for bit those the formula computed, and the rest of the formula
//! (contention, jitter draw, pause) is evaluated unchanged, so service
//! times are too. The table lives in the simulator rather than in
//! [`Tomcat`], which is serialized and compared field by field.

use crate::config::ServerConfig;
use crate::tpcw::{Interaction, ALL_INTERACTIONS};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One in-flight TPC-W interaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// Index of the emulated browser that issued it.
    pub eb: u64,
    /// Arrival timestamp in simulation ms.
    pub arrival_ms: u64,
    /// The TPC-W interaction being performed.
    pub interaction: Interaction,
}

/// Outcome of offering a request to the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// A worker picked the request up immediately.
    Served,
    /// All workers busy; the request waits in the accept queue.
    Queued,
    /// Queue full: connection refused.
    Refused,
}

/// An interaction's service costs in ms before contention, jitter and GC
/// pauses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceCost {
    /// CPU time: `base_service_ms × cpu_weight`.
    pub cpu_ms: f64,
    /// DB round trips: `db_query_ms × db_weight`.
    pub db_ms: f64,
}

/// Every interaction's [`ServiceCost`] under one [`ServerConfig`], computed
/// once (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceCosts([ServiceCost; 14]);

impl ServiceCosts {
    /// Computes the fourteen cost pairs of `config`.
    pub fn new(config: &ServerConfig) -> Self {
        ServiceCosts(ALL_INTERACTIONS.map(|interaction| ServiceCost {
            cpu_ms: config.base_service_ms * interaction.cpu_weight(),
            db_ms: config.db_query_ms * interaction.db_weight(),
        }))
    }

    /// The costs of `interaction`.
    pub fn get(&self, interaction: Interaction) -> ServiceCost {
        self.0[interaction as usize]
    }
}

/// The Tomcat worker pool and accept queue.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tomcat {
    config: ServerConfig,
    active: u64,
    queue: VecDeque<Request>,
    refused_total: u64,
}

impl Tomcat {
    /// Creates an idle server.
    pub fn new(config: ServerConfig) -> Self {
        Tomcat { config, active: 0, queue: VecDeque::new(), refused_total: 0 }
    }

    /// Requests currently being serviced by workers.
    pub fn active(&self) -> u64 {
        self.active
    }

    /// Requests waiting in the accept queue.
    pub fn queued(&self) -> u64 {
        self.queue.len() as u64
    }

    /// Open HTTP connections (active + queued) — a Table-2 variable.
    pub fn http_connections(&self) -> u64 {
        self.active + self.queued()
    }

    /// Busy MySQL pool connections — a Table-2 variable. Every in-service
    /// interaction holds one connection, saturating at the pool size.
    pub fn mysql_connections(&self) -> u64 {
        self.active.min(self.config.mysql_pool)
    }

    /// UNIX-style load proxy: runnable work per worker.
    pub fn system_load(&self) -> f64 {
        (self.active + self.queued()) as f64 / self.config.worker_threads as f64
    }

    /// Threads the Tomcat process owns (pre-spawned pool + housekeeping),
    /// excluding injected leak threads.
    pub fn base_threads(&self) -> u64 {
        self.config.worker_threads + self.config.housekeeping_threads
    }

    /// Lifetime count of refused connections.
    pub fn refused_total(&self) -> u64 {
        self.refused_total
    }

    /// Offers a request.
    pub fn offer(&mut self, request: Request) -> Admission {
        if self.active < self.config.worker_threads {
            self.active += 1;
            Admission::Served
        } else if self.http_connections() < self.config.max_http_connections {
            self.queue.push_back(request);
            Admission::Queued
        } else {
            self.refused_total += 1;
            Admission::Refused
        }
    }

    /// Completes one in-service request; if the queue is non-empty the next
    /// request immediately enters service and is returned so the caller can
    /// schedule its completion.
    ///
    /// # Panics
    ///
    /// Panics if no request is in service.
    pub fn complete(&mut self) -> Option<Request> {
        assert!(self.active > 0, "complete() without an active request");
        match self.queue.pop_front() {
            Some(next) => Some(next), // worker moves straight to the next request
            None => {
                self.active -= 1;
                None
            }
        }
    }

    /// Samples the total service time for a request in ms: the request's
    /// CPU cost scaled by pool contention, plus its DB cost, with ±20 %
    /// multiplicative jitter, plus any stop-the-world GC pause the caller
    /// passes in. `cost` comes from the [`ServiceCosts`] of this server's
    /// configuration.
    pub fn service_time_ms<R: Rng>(
        &self,
        cost: ServiceCost,
        pending_gc_pause_ms: f64,
        rng: &mut R,
    ) -> f64 {
        let contention = 1.0 + self.active as f64 / self.config.worker_threads as f64;
        let jitter = rng.gen_range(0.8..1.2);
        (cost.cpu_ms * contention + cost.db_ms) * jitter + pending_gc_pause_ms
    }

    /// Transient Young-generation allocation per request, in MB.
    pub fn alloc_per_request_mb(&self) -> f64 {
        self.config.alloc_per_request_mb
    }

    /// Live session footprint for `ebs` emulated browsers, in MB.
    pub fn session_footprint_mb(&self, ebs: u64) -> f64 {
        ebs as f64 * self.config.session_mb_per_eb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn server() -> Tomcat {
        Tomcat::new(ServerConfig::default())
    }

    fn req(eb: u64) -> Request {
        Request { eb, arrival_ms: 0, interaction: Interaction::Home }
    }

    fn cost(interaction: Interaction) -> ServiceCost {
        ServiceCosts::new(&ServerConfig::default()).get(interaction)
    }

    /// The per-request formula the cost table replaced, verbatim: the
    /// oracle.
    fn formula_service_time_ms<R: Rng>(
        t: &Tomcat,
        interaction: Interaction,
        pending_gc_pause_ms: f64,
        rng: &mut R,
    ) -> f64 {
        let base = t.config.base_service_ms * interaction.cpu_weight();
        let db = t.config.db_query_ms * interaction.db_weight();
        let contention = 1.0 + t.active as f64 / t.config.worker_threads as f64;
        let jitter = rng.gen_range(0.8..1.2);
        (base * contention + db) * jitter + pending_gc_pause_ms
    }

    /// A generated server, a worker occupancy, a pending pause and a seed.
    fn case_strategy() -> impl Strategy<Value = (ServerConfig, u64, f64, u64)> {
        ((1u64..200, 1e-3..500.0f64, 1e-3..500.0f64), 0u64..400, 0.0..2000.0f64, 0u64..u64::MAX)
            .prop_map(|((worker_threads, base_service_ms, db_query_ms), active, pause, seed)| {
                let config = ServerConfig {
                    worker_threads,
                    max_http_connections: worker_threads + 400,
                    base_service_ms,
                    db_query_ms,
                    ..ServerConfig::default()
                };
                (config, active.min(worker_threads), pause, seed)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn cost_table_matches_the_per_request_formula_bit_for_bit(case in case_strategy()) {
            let (config, active, pause, seed) = case;
            let costs = ServiceCosts::new(&config);
            let mut t = Tomcat::new(config);
            for i in 0..active {
                t.offer(req(i));
            }
            for interaction in ALL_INTERACTIONS {
                let ServiceCost { cpu_ms, db_ms } = costs.get(interaction);
                prop_assert_eq!(
                    cpu_ms.to_bits(),
                    (config.base_service_ms * interaction.cpu_weight()).to_bits()
                );
                prop_assert_eq!(
                    db_ms.to_bits(),
                    (config.db_query_ms * interaction.db_weight()).to_bits()
                );
                let mut rng = StdRng::seed_from_u64(seed);
                let mut oracle_rng = rng.clone();
                let got = t.service_time_ms(costs.get(interaction), pause, &mut rng);
                let want = formula_service_time_ms(&t, interaction, pause, &mut oracle_rng);
                prop_assert_eq!(got.to_bits(), want.to_bits());
                prop_assert_eq!(rng, oracle_rng);
            }
        }
    }

    #[test]
    fn admits_until_workers_full_then_queues_then_refuses() {
        let cfg = ServerConfig { worker_threads: 2, max_http_connections: 3, ..Default::default() };
        let mut t = Tomcat::new(cfg);
        assert_eq!(t.offer(req(0)), Admission::Served);
        assert_eq!(t.offer(req(1)), Admission::Served);
        assert_eq!(t.offer(req(2)), Admission::Queued);
        assert_eq!(t.offer(req(3)), Admission::Refused);
        assert_eq!(t.active(), 2);
        assert_eq!(t.queued(), 1);
        assert_eq!(t.http_connections(), 3);
        assert_eq!(t.refused_total(), 1);
    }

    #[test]
    fn completion_promotes_queued_request() {
        let cfg = ServerConfig { worker_threads: 1, ..Default::default() };
        let mut t = Tomcat::new(cfg);
        t.offer(req(0));
        t.offer(req(1));
        let next = t.complete();
        assert_eq!(next, Some(req(1)));
        assert_eq!(t.active(), 1, "worker moved on to the queued request");
        assert_eq!(t.complete(), None);
        assert_eq!(t.active(), 0);
    }

    #[test]
    #[should_panic(expected = "without an active request")]
    fn complete_on_idle_panics() {
        server().complete();
    }

    #[test]
    fn mysql_connections_saturate_at_pool() {
        let cfg = ServerConfig { worker_threads: 100, mysql_pool: 10, ..Default::default() };
        let mut t = Tomcat::new(cfg);
        for i in 0..50 {
            t.offer(req(i));
        }
        assert_eq!(t.mysql_connections(), 10);
    }

    #[test]
    fn service_time_grows_with_contention() {
        let mut t = server();
        let mut rng = StdRng::seed_from_u64(1);
        let mut idle_avg = 0.0;
        for _ in 0..200 {
            idle_avg += t.service_time_ms(cost(Interaction::Home), 0.0, &mut rng);
        }
        idle_avg /= 200.0;
        for i in 0..60 {
            t.offer(req(i));
        }
        let mut busy_avg = 0.0;
        for _ in 0..200 {
            busy_avg += t.service_time_ms(cost(Interaction::Home), 0.0, &mut rng);
        }
        busy_avg /= 200.0;
        assert!(
            busy_avg > idle_avg * 1.3,
            "contention must slow requests: {idle_avg} vs {busy_avg}"
        );
    }

    #[test]
    fn search_is_heavier_and_gc_pause_is_absorbed() {
        let t = server();
        let mut rng = StdRng::seed_from_u64(2);
        let mut search = 0.0;
        let mut browse = 0.0;
        for _ in 0..300 {
            search += t.service_time_ms(cost(Interaction::SearchRequest), 0.0, &mut rng);
            browse += t.service_time_ms(cost(Interaction::Home), 0.0, &mut rng);
        }
        assert!(search > browse);
        let with_pause = t.service_time_ms(cost(Interaction::Home), 900.0, &mut rng);
        assert!(with_pause >= 900.0);
    }

    #[test]
    fn load_and_threads() {
        let mut t = server();
        assert_eq!(t.system_load(), 0.0);
        for i in 0..32 {
            t.offer(req(i));
        }
        assert!((t.system_load() - 0.5).abs() < 1e-9);
        assert_eq!(t.base_threads(), 76);
        assert!((t.session_footprint_mb(100) - 35.0).abs() < 1e-9);
        assert_eq!(t.alloc_per_request_mb(), 0.30);
    }
}

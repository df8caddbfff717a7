//! The four benchmark workloads and the simulation seeds a run pools.
//!
//! Every workload runs MARP on the paper's 1990s LAN (1 ms one-way,
//! `LinkKind::Lan1990s`) with open-loop exponential clients: a client
//! sends on its schedule whether or not earlier requests were answered,
//! so a stall shows up as queueing instead of as a lower offered load.

use marp_lab::{LinkKind, ProtocolKind, Scenario, TopologyKind};
use marp_net::FaultPlan;
use marp_sim::{NodeId, SimRng, SimTime};
use marp_workload::KeyDist;
use std::time::Duration;

/// The crash injected by `crash-n5`.
#[derive(Debug, Clone, Copy)]
pub struct Crash {
    /// Crashed server.
    pub node: NodeId,
    /// Failure-detection bound.
    pub detect: Duration,
    /// Client resend policy: `(timeout, max_attempts)`.
    pub retry: (Duration, u32),
}

/// One named benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Replica servers.
    pub n_servers: usize,
    /// Clients attached to each server.
    pub clients_per_server: usize,
    /// Mean exponential inter-arrival time of each client (ms).
    pub mean_interarrival_ms: f64,
    /// Requests each client issues in one simulation.
    pub requests_per_client: u64,
    /// Share of requests that are writes; the rest are fresh reads.
    pub write_fraction: f64,
    /// Key popularity.
    pub keys: KeyDist,
    /// Fault injected into every simulation, if any.
    pub crash: Option<Crash>,
    /// Simulations pooled into one benchmark run (one seed each).
    pub sims_per_run: usize,
}

/// Names accepted by [`Workload::by_name`], in the order they are listed.
pub const NAMES: [&str; 4] = ["hot-n9", "spread-n5", "reads-n5", "crash-n5"];

impl Workload {
    /// Look a workload up by its benchmark name.
    pub fn by_name(name: &str) -> Option<Workload> {
        let base = Workload {
            name: "",
            n_servers: 5,
            clients_per_server: 1,
            mean_interarrival_ms: 0.0,
            requests_per_client: 0,
            write_fraction: 1.0,
            keys: KeyDist::Single,
            crash: None,
            sims_per_run: 0,
        };
        let workload = match name {
            // One lock contended across nine Locking Lists at a load
            // held below saturation (120 writes/s in total).
            "hot-n9" => Workload {
                name: "hot-n9",
                n_servers: 9,
                mean_interarrival_ms: 75.0,
                requests_per_client: 20,
                sims_per_run: 250,
                ..base
            },
            // Per-key agents rarely meet: the fixed per-commit path
            // (1000 writes/s over 64 uniform keys).
            "spread-n5" => Workload {
                name: "spread-n5",
                clients_per_server: 2,
                mean_interarrival_ms: 10.0,
                requests_per_client: 50,
                keys: KeyDist::Uniform { keys: 64 },
                sims_per_run: 24,
                ..base
            },
            // 80% fresh reads served by read agents beside 20% writes,
            // 1000 ops/s over 64 Zipf(0.99) keys.
            "reads-n5" => Workload {
                name: "reads-n5",
                clients_per_server: 2,
                mean_interarrival_ms: 10.0,
                requests_per_client: 100,
                write_fraction: 0.2,
                keys: KeyDist::Zipf { keys: 64, s: 0.99 },
                sims_per_run: 48,
                ..base
            },
            // A server crash a third of the way through the arrivals,
            // down for a third of them, with requests still arriving:
            // the fault path (62.5 writes/s over 16 uniform keys).
            "crash-n5" => Workload {
                name: "crash-n5",
                mean_interarrival_ms: 80.0,
                requests_per_client: 60,
                keys: KeyDist::Uniform { keys: 16 },
                crash: Some(Crash {
                    node: 1,
                    detect: Duration::from_millis(200),
                    retry: (Duration::from_secs(2), 8),
                }),
                sims_per_run: 4,
                ..base
            },
            _ => return None,
        };
        Some(workload)
    }

    /// Client nodes in one simulation.
    pub fn n_clients(&self) -> usize {
        self.n_servers * self.clients_per_server
    }

    /// Expected virtual span of one client's arrivals.
    fn arrival_span(&self) -> Duration {
        Duration::from_secs_f64(self.mean_interarrival_ms * self.requests_per_client as f64 / 1e3)
    }

    /// The simulation seeds one benchmark run pools, derived from the
    /// workload seed alone: the same `--seed` always runs the same
    /// simulations.
    pub fn sim_seeds(&self, seed: u64) -> Vec<u64> {
        let mut rng = SimRng::derive(seed, self.name);
        (0..self.sims_per_run).map(|_| rng.next_u64()).collect()
    }

    /// The complete description of one simulation of this workload.
    pub fn scenario(&self, sim_seed: u64) -> Scenario {
        let span = self.arrival_span();
        let faults = self.crash.map(|crash| {
            FaultPlan::new(self.n_servers)
                .detect_delay(crash.detect)
                .crash(crash.node, SimTime::ZERO + span / 3, span / 3)
        });
        Scenario {
            protocol: ProtocolKind::marp(),
            n_servers: self.n_servers,
            clients_per_server: self.clients_per_server,
            mean_interarrival_ms: self.mean_interarrival_ms,
            requests_per_client: self.requests_per_client,
            write_fraction: self.write_fraction,
            keys: self.keys.clone(),
            fresh_reads: self.write_fraction < 1.0,
            bursty: false,
            adaptive_batching: false,
            lt_delta: true,
            topology: TopologyKind::Lan { latency_ms: 1.0 },
            link: LinkKind::Lan1990s,
            faults,
            client_retry: self.crash.map(|crash| crash.retry),
            regeneration: true,
            seed: sim_seed,
            // Long enough for every request, including those stalled by
            // the crash, to be answered.
            horizon: Some(span * 4 + Duration::from_secs(60)),
        }
    }
}

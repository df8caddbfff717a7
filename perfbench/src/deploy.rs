//! Assemble one MARP deployment from a [`Scenario`] and run it.
//!
//! This is `marp_lab::run_scenario` taken apart at its seams, built from
//! the same public constructors, so that set-up, simulation and the
//! post-run check can be timed separately and the processes and the
//! transport can be wrapped for the traced run. The benchmark's own
//! tests show that a deployment built here reproduces `run_scenario`
//! exactly.

use marp_core::{wrap_client_request, MarpConfig, MarpNode};
use marp_lab::{LinkKind, ProtocolKind, Scenario, TopologyKind};
use marp_metrics::{audit_keyed, PaperMetrics};
use marp_net::{LinkModel, RoutingTable, SimTransport, Topology};
use marp_replica::ClientProcess;
use marp_sim::{
    splitmix64, NodeId, Process, RunStats, SimRng, SimTime, Simulation, TraceEvent, TraceLevel,
    TraceLog, Transport,
};
use marp_workload::{ArrivalProcess, OpMix, WorkloadSource};
use std::collections::{BTreeMap, HashSet};
use std::time::Duration;

/// Wraps the processes and the transport of a deployment as it is built.
pub trait Instrument {
    /// Wrap one process; `server` tells a replica from a client.
    fn process(&mut self, process: Box<dyn Process>, server: bool) -> Box<dyn Process>;
    /// Wrap the transport.
    fn transport(&mut self, transport: Box<dyn Transport>) -> Box<dyn Transport>;
}

/// No instrumentation: the deployment `run_scenario` would build.
pub struct Plain;

impl Instrument for Plain {
    fn process(&mut self, process: Box<dyn Process>, _server: bool) -> Box<dyn Process> {
        process
    }
    fn transport(&mut self, transport: Box<dyn Transport>) -> Box<dyn Transport> {
        transport
    }
}

/// A built deployment, ready to run.
pub struct Deployment {
    /// The simulation, servers first, then clients.
    pub sim: Simulation,
    /// Replica servers (node ids `0..n_servers`).
    pub n_servers: usize,
    /// Client node ids.
    pub clients: Vec<NodeId>,
    /// Where the run stops.
    pub horizon: SimTime,
}

/// What one client saw, in virtual time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientRecord {
    /// Distinct requests issued.
    pub issued: u64,
    /// `(request id, latency ns)` of every acknowledged write, in
    /// completion order.
    pub writes: Vec<(u64, u64)>,
    /// Latency (ns) of every answered read, in completion order.
    pub reads: Vec<u64>,
    /// Requests still unanswered when the run stopped.
    pub outstanding: u64,
    /// Resends.
    pub retries: u64,
    /// Requests given up after the last resend.
    pub abandoned: u64,
    /// Requests the server refused.
    pub rejected: u64,
}

/// Everything a simulation produced that the benchmark reports, all of
/// it virtual: two runs of one scenario must produce equal outcomes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Kernel counters.
    pub stats: RunStats,
    /// One record per client, in client order.
    pub clients: Vec<ClientRecord>,
    /// Updates completed (`UpdateCompleted` records).
    pub completed: u64,
    /// Agent migrations.
    pub migrations: u64,
    /// Agents dispatched.
    pub agents: u64,
    /// Claims aborted by the validation round.
    pub aborted_claims: u64,
    /// Completed updates per number of server visits needed for the lock.
    pub visits: BTreeMap<u32, u64>,
    /// Consistency-audit violations (must be empty).
    pub audit_violations: Vec<String>,
    /// Acknowledged writes no replica applied (must be empty).
    pub lost_acked_writes: Vec<u64>,
}

impl Outcome {
    /// Acknowledged writes.
    pub fn commits(&self) -> u64 {
        self.clients.iter().map(|c| c.writes.len() as u64).sum()
    }

    /// Answered reads.
    pub fn reads(&self) -> u64 {
        self.clients.iter().map(|c| c.reads.len() as u64).sum()
    }

    /// Acknowledged writes plus answered reads.
    pub fn ops(&self) -> u64 {
        self.commits() + self.reads()
    }

    /// Requests issued.
    pub fn issued(&self) -> u64 {
        self.clients.iter().map(|c| c.issued).sum()
    }
}

/// Build the deployment `scenario` describes, passing every process and
/// the transport through `instrument`.
///
/// # Panics
/// If the scenario is not a MARP run on a LAN topology: those are the
/// only deployments the benchmark defines.
pub fn build(scenario: &Scenario, instrument: &mut dyn Instrument) -> Deployment {
    let ProtocolKind::Marp {
        gossip,
        itinerary,
        batch_max,
    } = scenario.protocol
    else {
        panic!("the benchmark runs MARP only");
    };
    let n = scenario.n_servers;
    let topo = topology(scenario);
    let link = match scenario.link {
        LinkKind::Ideal => LinkModel::ideal(),
        LinkKind::Lan1990s => LinkModel::lan_1990s(),
        LinkKind::Wan => LinkModel::wan(),
    };
    let mut transport = SimTransport::new(
        topo.clone(),
        link,
        SimRng::derive(scenario.seed, "link-jitter"),
    );
    if let Some(plan) = &scenario.faults {
        transport = transport.with_schedule(plan.net_schedule());
    }
    let mut sim = Simulation::new(
        instrument.transport(Box::new(transport)),
        TraceLevel::Protocol,
    );

    let mut cfg = MarpConfig::new(n).scaled_to_latency(topo.max_latency());
    cfg.gossip = gossip;
    cfg.itinerary = itinerary;
    cfg.batch.max_batch = batch_max;
    cfg.adaptive_batching = scenario.adaptive_batching;
    cfg.lt_delta = scenario.lt_delta;
    cfg.regeneration = scenario.regeneration;
    for me in 0..n as NodeId {
        let node = MarpNode::new(me, cfg, RoutingTable::from_topology(me, &topo));
        sim.add_process(instrument.process(Box::new(node), true));
    }

    let clients = (0..n * scenario.clients_per_server)
        .map(|k| {
            let server = (k % n) as NodeId;
            let source = client_source(scenario, k);
            let mut client = ClientProcess::new(server, Box::new(source), wrap_client_request);
            if let Some((timeout, max_attempts)) = scenario.client_retry {
                client = client.with_retry(timeout, max_attempts);
            }
            sim.add_process(instrument.process(Box::new(client), false))
        })
        .collect();

    if let Some(plan) = &scenario.faults {
        plan.schedule_controls(&mut sim);
    }
    let horizon = scenario
        .horizon
        .expect("benchmark scenarios state their horizon");
    Deployment {
        sim,
        n_servers: n,
        clients,
        horizon: SimTime::ZERO + horizon,
    }
}

/// The request stream of client `k`, exactly as the client draws it.
/// The benchmark draws it a second time to learn each request's send
/// time.
pub fn client_source(scenario: &Scenario, k: usize) -> WorkloadSource {
    assert!(!scenario.bursty, "the benchmark uses exponential arrivals");
    let arrival = ArrivalProcess::Exponential {
        mean_ms: scenario.mean_interarrival_ms,
    };
    let mix = OpMix::new(scenario.write_fraction, scenario.keys.clone())
        .with_fresh_reads(scenario.fresh_reads);
    WorkloadSource::new(
        &arrival,
        &mix,
        scenario.requests_per_client,
        splitmix64(scenario.seed ^ (k as u64 + 0x1234)),
    )
}

/// Servers on a uniform LAN, each client 0.1 ms from its server.
fn topology(scenario: &Scenario) -> Topology {
    let TopologyKind::Lan { latency_ms } = scenario.topology else {
        panic!("the benchmark runs on a LAN");
    };
    let n = scenario.n_servers;
    let total = n + n * scenario.clients_per_server;
    let servers = Topology::uniform_lan(n, Duration::from_micros((latency_ms * 1e3) as u64));
    let near = Duration::from_micros(100);
    let server_of = |node: usize| if node < n { node } else { (node - n) % n };
    let mut latencies = Vec::with_capacity(total * total);
    for a in 0..total {
        for b in 0..total {
            let latency = if a == b {
                Duration::ZERO
            } else {
                let mut base = servers.latency(server_of(a) as NodeId, server_of(b) as NodeId);
                if a >= n {
                    base += near;
                }
                if b >= n {
                    base += near;
                }
                if base.is_zero() {
                    near
                } else {
                    base
                }
            };
            latencies.push(latency);
        }
    }
    Topology::from_matrix(total, latencies)
}

impl Deployment {
    /// The post-run check: harvest the clients, audit the trace, derive
    /// the paper's metrics and look for acknowledged writes no replica
    /// applied. Hands back the trace for further analysis.
    pub fn check(self) -> (Outcome, TraceLog) {
        let stats = self.sim.stats();
        let clients = self
            .clients
            .iter()
            .map(|&node| {
                let client = self
                    .sim
                    .process::<ClientProcess>(node)
                    .expect("client process");
                let s = &client.stats;
                ClientRecord {
                    issued: s.issued,
                    writes: s
                        .acked_writes
                        .iter()
                        .zip(&s.write_latencies)
                        .map(|(&id, d)| (id, nanos(*d)))
                        .collect(),
                    reads: s.read_latencies.iter().map(|d| nanos(*d)).collect(),
                    outstanding: client.outstanding() as u64,
                    retries: s.retries,
                    abandoned: s.abandoned,
                    rejected: s.rejected,
                }
            })
            .collect::<Vec<_>>();
        let n = self.n_servers;
        let trace = self.sim.into_trace();
        let audit = audit_keyed(&trace, n);
        let paper = PaperMetrics::from_trace(&trace);
        let applied: HashSet<u64> = trace
            .records()
            .iter()
            .filter_map(|rec| match rec.event {
                TraceEvent::CommitApplied { request, .. } => Some(request),
                _ => None,
            })
            .collect();
        let lost_acked_writes = clients
            .iter()
            .flat_map(|c: &ClientRecord| c.writes.iter().map(|&(id, _)| id))
            .filter(|id| !applied.contains(id))
            .collect();
        let outcome = Outcome {
            stats,
            clients,
            completed: paper.completed,
            migrations: paper.migrations,
            agents: paper.agents,
            aborted_claims: paper.aborted_claims,
            visits: paper.visits,
            audit_violations: audit
                .violations
                .iter()
                .map(|v| format!("{}: {}", v.rule, v.detail))
                .collect(),
            lost_acked_writes,
        };
        (outcome, trace)
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).expect("latency fits in u64 nanoseconds")
}

//! Running one simulation, untraced or traced.

use crate::calibrate::thread_cpu_time;
use crate::deploy::{build, Deployment, Outcome, Plain};
use crate::trace::{self, span, Name, Recording, Tracer};
use marp_core::MarpNode;
use marp_lab::Scenario;
use marp_obs::CriticalPathReport;
use marp_sim::{NodeId, SimTime, TraceEvent};
use std::time::{Duration, Instant};

/// An untraced simulation and where its time went.
pub struct PlainRun {
    /// What it produced.
    pub outcome: Outcome,
    /// Wall time building the deployment.
    pub setup: Duration,
    /// Wall time of `run_until` plus the post-run check.
    pub host_wall: Duration,
    /// On-CPU time of this thread over the same interval: the wall time
    /// less any time the thread waited for a CPU.
    pub host_cpu: Duration,
}

/// Build, run and check one simulation with nothing in between.
pub fn run_plain(scenario: &Scenario) -> PlainRun {
    let t0 = Instant::now();
    let mut deployment = build(scenario, &mut Plain);
    let (t1, c1) = (Instant::now(), thread_cpu_time());
    deployment.sim.run_until(deployment.horizon);
    let (outcome, trace) = deployment.check();
    let (t2, c2) = (Instant::now(), thread_cpu_time());
    drop(trace);
    PlainRun {
        outcome,
        setup: t1 - t0,
        host_wall: t2 - t1,
        host_cpu: c2 - c1,
    }
}

/// The largest state sizes seen on any replica between slices.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gauges {
    /// Updated List entries.
    pub ul_len: usize,
    /// Deepest Locking List.
    pub ll_depth: usize,
    /// Agent entries across the gossip board's snapshots.
    pub board_entries: usize,
}

impl Gauges {
    fn read(&mut self, deployment: &Deployment) {
        for server in 0..deployment.n_servers as NodeId {
            let node = deployment
                .sim
                .process::<MarpNode>(server)
                .expect("replica process");
            let state = node.state();
            self.ul_len = self.ul_len.max(state.core.ul.len());
            let deepest = state
                .core
                .ll
                .keys()
                .filter_map(|key| state.core.ll.list(key).map(|list| list.len()))
                .max()
                .unwrap_or(0);
            self.ll_depth = self.ll_depth.max(deepest);
            let board: usize = state
                .board
                .keys()
                .filter_map(|key| state.board.contents(key))
                .flat_map(|table| table.iter().map(|(_, snapshot)| snapshot.queue.len()))
                .sum();
            self.board_entries = self.board_entries.max(board);
        }
    }

    /// Keep the larger of each gauge.
    pub fn max(&mut self, other: &Gauges) {
        self.ul_len = self.ul_len.max(other.ul_len);
        self.ll_depth = self.ll_depth.max(other.ll_depth);
        self.board_entries = self.board_entries.max(other.board_entries);
    }
}

/// Counts the benchmark reads off the trace after the check.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceCounts {
    /// Records the trace log kept.
    pub records: u64,
    /// Agents regenerated after a presumed loss.
    pub regenerated: u64,
    /// Commits a replica suppressed as duplicates.
    pub suppressed: u64,
    /// Critical-path phase sums over committed writes, ms:
    /// queueing, network, lock wait, quorum wait.
    pub queueing_ms: f64,
    /// Network phase sum (ms).
    pub network_ms: f64,
    /// Lock-wait phase sum (ms).
    pub lock_wait_ms: f64,
    /// Quorum-wait phase sum (ms).
    pub quorum_wait_ms: f64,
    /// Writes the critical path decomposed.
    pub paths: u64,
}

impl TraceCounts {
    /// Add another simulation's counts.
    pub fn add(&mut self, other: &TraceCounts) {
        self.records += other.records;
        self.regenerated += other.regenerated;
        self.suppressed += other.suppressed;
        self.queueing_ms += other.queueing_ms;
        self.network_ms += other.network_ms;
        self.lock_wait_ms += other.lock_wait_ms;
        self.quorum_wait_ms += other.quorum_wait_ms;
        self.paths += other.paths;
    }
}

/// A traced simulation.
pub struct TracedRun {
    /// What it produced (must equal the untraced outcome).
    pub outcome: Outcome,
    /// Spans and byte split.
    pub recording: Recording,
    /// State gauges.
    pub gauges: Gauges,
    /// Counts read off the trace.
    pub counts: TraceCounts,
    /// Wall time of the whole traced simulation, set-up to analysis.
    pub wall: Duration,
}

/// Virtual time between gauge readings in the traced run.
const SLICE: Duration = Duration::from_millis(100);

/// Build, run and check one simulation with every process and the
/// transport wrapped, running in virtual-time slices so the state
/// gauges can be read between them.
pub fn run_traced(scenario: &Scenario) -> TracedRun {
    trace::begin();
    let t0 = Instant::now();
    let mut deployment = span(Name::Setup, 0, || {
        build(
            scenario,
            &mut Tracer {
                n_servers: scenario.n_servers,
            },
        )
    });
    let mut gauges = Gauges::default();
    let mut at = SimTime::ZERO;
    while at < deployment.horizon {
        at = (at + SLICE).min(deployment.horizon);
        span(Name::Run, 0, || deployment.sim.run_until(at));
        span(Name::Gauge, 0, || gauges.read(&deployment));
    }
    let (outcome, trace) = span(Name::Check, 0, || deployment.check());
    let counts = span(Name::Analyze, 0, || {
        let custom = |name: &str| {
            trace.count(|e| matches!(e, TraceEvent::Custom { kind, .. } if *kind == name)) as u64
        };
        let paths = CriticalPathReport::from_trace(&trace);
        let (_, queueing_ms, network_ms, lock_wait_ms, quorum_wait_ms) = paths.totals();
        let counts = TraceCounts {
            records: trace.records().len() as u64,
            regenerated: custom("agent-regenerated"),
            suppressed: custom("commit-suppressed"),
            queueing_ms,
            network_ms,
            lock_wait_ms,
            quorum_wait_ms,
            paths: paths.paths.len() as u64,
        };
        drop(trace);
        counts
    });
    let wall = t0.elapsed();
    TracedRun {
        outcome,
        recording: trace::end(),
        gauges,
        counts,
        wall,
    }
}

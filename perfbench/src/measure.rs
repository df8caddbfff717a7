//! Virtual-time metrics of a pool of simulations, and the correctness
//! gate every run must pass before it reports a number.

use crate::deploy::{client_source, Outcome};
use marp_lab::Scenario;
use marp_replica::RequestSource;

/// Client-observed, virtual-time results of a pool. A request that was
/// never answered counts as an infinitely late sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Virtual {
    /// Write latency percentiles (ms).
    pub commit_p50_ms: f64,
    /// 99th percentile write latency (ms).
    pub commit_p99_ms: f64,
    /// Latency percentiles over every op, reads and writes (ms).
    pub op_p50_ms: f64,
    /// 99th percentile op latency (ms).
    pub op_p99_ms: f64,
    /// Read latency percentiles (ms); `None` without reads.
    pub read_p50_ms: Option<f64>,
    /// 99th percentile read latency (ms).
    pub read_p99_ms: Option<f64>,
    /// Wire bytes sent per op.
    pub bytes_per_op: f64,
    /// Messages sent per op.
    pub msgs_per_op: f64,
    /// Longest stretch with a write outstanding and none acknowledged,
    /// averaged over the pool's simulations (ms).
    pub unavail_ms: f64,
    /// Requests issued.
    pub attempted: u64,
    /// Requests never answered.
    pub failed: u64,
    /// Acknowledged writes.
    pub commits: u64,
    /// Acknowledged writes plus answered reads.
    pub ops: u64,
}

/// One scheduled request: when the client sent it and whether it was a
/// write.
struct Sent {
    at_ns: u64,
    write: bool,
}

/// Each client's requests in send order, drawn again from the same
/// source the client used: open-loop clients send exactly on schedule.
fn schedule(scenario: &Scenario, k: usize) -> Vec<Sent> {
    let mut source = client_source(scenario, k);
    let mut at_ns = 0u64;
    let mut sent = Vec::new();
    while let Some((gap, op)) = source.next_request() {
        at_ns += u64::try_from(gap.as_nanos()).expect("gap fits in u64 nanoseconds");
        sent.push(Sent {
            at_ns,
            write: op.is_write(),
        });
    }
    sent
}

/// Nearest-rank quantile of sorted samples.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// The longest interval during which at least one write is outstanding
/// and no write is acknowledged to any client. `writes` holds each
/// write's `(sent, acknowledged)` time; an unanswered write stays
/// outstanding until `end`.
fn longest_unavailable(mut writes: Vec<(u64, Option<u64>)>, end: u64) -> u64 {
    writes.sort_unstable();
    let mut acks: Vec<u64> = writes.iter().filter_map(|&(_, ack)| ack).collect();
    acks.sort_unstable();
    let mut longest = 0;
    let mut next_ack = 0;
    let mut i = 0;
    while i < writes.len() {
        // One busy period: writes overlapping in time.
        let start = writes[i].0;
        let mut busy_until = writes[i].1.unwrap_or(end);
        i += 1;
        while i < writes.len() && writes[i].0 < busy_until {
            busy_until = busy_until.max(writes[i].1.unwrap_or(end));
            i += 1;
        }
        while next_ack < acks.len() && acks[next_ack] < start {
            next_ack += 1;
        }
        let mut from = start;
        while next_ack < acks.len() && acks[next_ack] <= busy_until {
            longest = longest.max(acks[next_ack] - from);
            from = acks[next_ack];
            next_ack += 1;
        }
        longest = longest.max(busy_until - from);
    }
    longest
}

/// The correctness gate: the audit is clean, no acknowledged write was
/// lost, and every request issued is either answered or counted as
/// failed. Returns the first violation.
pub fn gate(scenario: &Scenario, outcome: &Outcome) -> Result<(), String> {
    let sim = scenario.seed;
    if let Some(v) = outcome.audit_violations.first() {
        return Err(format!("simulation {sim:#x}: consistency audit: {v}"));
    }
    if let Some(id) = outcome.lost_acked_writes.first() {
        return Err(format!(
            "simulation {sim:#x}: acknowledged write {id} was never applied"
        ));
    }
    for (k, client) in outcome.clients.iter().enumerate() {
        let plan = schedule(scenario, k);
        let answered = (client.writes.len() + client.reads.len()) as u64;
        if client.issued != plan.len() as u64 {
            return Err(format!(
                "simulation {sim:#x}: client {k} issued {} of {} scheduled requests",
                client.issued,
                plan.len()
            ));
        }
        if answered + client.outstanding + client.abandoned + client.rejected != client.issued {
            return Err(format!(
                "simulation {sim:#x}: client {k} lost track of requests: {answered} answered, \
                 {} outstanding, {} abandoned, {} rejected of {} issued",
                client.outstanding, client.abandoned, client.rejected, client.issued
            ));
        }
        for &(id, _) in &client.writes {
            let seq = (id & u64::from(u32::MAX)) as usize;
            if !plan.get(seq).is_some_and(|s| s.write) {
                return Err(format!(
                    "simulation {sim:#x}: client {k} acknowledged {id}, which is not one of its writes"
                ));
            }
        }
    }
    Ok(())
}

/// Pool the virtual results of several simulations.
pub fn pool(runs: &[(Scenario, &Outcome)]) -> Virtual {
    let mut writes = Vec::new();
    let mut reads = Vec::new();
    let (mut bytes, mut msgs, mut unavail_ns) = (0u64, 0u64, 0u64);
    for (scenario, outcome) in runs {
        bytes += outcome.stats.bytes_sent;
        msgs += outcome.stats.messages_sent;
        let end = outcome.stats.finished_at.as_nanos();
        let mut spans = Vec::new();
        for (k, client) in outcome.clients.iter().enumerate() {
            let plan = schedule(scenario, k);
            let mut acked = vec![None; plan.len()];
            for &(id, latency) in &client.writes {
                acked[(id & u64::from(u32::MAX)) as usize] = Some(latency);
            }
            for (sent, latency) in plan.iter().zip(&acked) {
                if sent.write {
                    writes.push(latency.map_or(f64::INFINITY, |ns| ns as f64 / 1e6));
                    spans.push((sent.at_ns, latency.map(|ns| sent.at_ns + ns)));
                }
            }
            let planned_reads = plan.iter().filter(|s| !s.write).count();
            reads.extend(client.reads.iter().map(|&ns| ns as f64 / 1e6));
            reads.extend((client.reads.len()..planned_reads).map(|_| f64::INFINITY));
        }
        unavail_ns += longest_unavailable(spans, end);
    }
    let ops_all = sorted(writes.iter().chain(&reads).copied().collect());
    let writes = sorted(writes);
    let reads = sorted(reads);
    let commits: u64 = runs.iter().map(|(_, o)| o.commits()).sum();
    let ops: u64 = runs.iter().map(|(_, o)| o.ops()).sum();
    let attempted: u64 = runs.iter().map(|(_, o)| o.issued()).sum();
    Virtual {
        commit_p50_ms: quantile(&writes, 0.5),
        commit_p99_ms: quantile(&writes, 0.99),
        op_p50_ms: quantile(&ops_all, 0.5),
        op_p99_ms: quantile(&ops_all, 0.99),
        read_p50_ms: (!reads.is_empty()).then(|| quantile(&reads, 0.5)),
        read_p99_ms: (!reads.is_empty()).then(|| quantile(&reads, 0.99)),
        bytes_per_op: bytes as f64 / ops as f64,
        msgs_per_op: msgs as f64 / ops as f64,
        unavail_ms: unavail_ns as f64 / 1e6 / runs.len() as f64,
        attempted,
        failed: attempted - ops,
        commits,
        ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unavailability_is_the_longest_ack_free_stretch() {
        // Two overlapping writes, then one alone.
        let writes = vec![(0, Some(10)), (5, Some(30)), (40, Some(45))];
        assert_eq!(longest_unavailable(writes, 100), 20);
        // An unanswered write stays outstanding to the end.
        let writes = vec![(0, Some(10)), (20, None)];
        assert_eq!(longest_unavailable(writes, 100), 80);
        // Idle time with nothing outstanding does not count.
        let writes = vec![(0, Some(3)), (50, Some(52))];
        assert_eq!(longest_unavailable(writes, 100), 3);
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }
}

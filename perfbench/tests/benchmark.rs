//! The benchmark's own checks: its assembled deployments are the ones
//! `marp_lab::run_scenario` builds, tracing does not perturb them, the
//! byte split closes, and a seed fixes every virtual-time result.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use marp_lab::run_scenario;
use marp_perfbench::deploy::{client_source, Outcome};
use marp_perfbench::measure::{gate, pool};
use marp_perfbench::run::{run_plain, run_traced};
use marp_perfbench::workload::{Workload, NAMES};
use marp_replica::RequestSource;
use std::time::Duration;

/// A workload cut down to a few requests per client and two simulations.
fn small(name: &str) -> Workload {
    let mut workload = Workload::by_name(name).expect("listed workload");
    workload.requests_per_client = 6;
    workload.sims_per_run = 2;
    workload
}

fn ms(ns: u64) -> f64 {
    Duration::from_nanos(ns).as_secs_f64() * 1e3
}

#[test]
fn assembled_run_matches_run_scenario() {
    for name in NAMES {
        let workload = small(name);
        for seed in workload.sim_seeds(1) {
            let scenario = workload.scenario(seed);
            let expected = run_scenario(&scenario);
            let got = run_plain(&scenario).outcome;
            assert_eq!(got.stats, expected.stats, "{name}: RunStats differ");
            let writes: Vec<f64> = got
                .clients
                .iter()
                .flat_map(|c| c.writes.iter().map(|&(_, ns)| ms(ns)))
                .collect();
            let reads: Vec<f64> = got
                .clients
                .iter()
                .flat_map(|c| c.reads.iter().map(|&ns| ms(ns)))
                .collect();
            assert_eq!(writes, expected.client_write_ms.values(), "{name}: writes");
            assert_eq!(reads, expected.client_read_ms.values(), "{name}: reads");
            assert_eq!(got.issued(), expected.issued, "{name}: issued");
            assert_eq!(got.commits(), expected.acked_writes, "{name}: acked");
            assert_eq!(got.completed, expected.metrics.completed, "{name}");
            assert_eq!(got.lost_acked_writes, expected.lost_acked_writes, "{name}");
            let retries: u64 = got.clients.iter().map(|c| c.retries).sum();
            let abandoned: u64 = got.clients.iter().map(|c| c.abandoned).sum();
            assert_eq!(retries, expected.retries, "{name}: retries");
            assert_eq!(abandoned, expected.abandoned, "{name}: abandoned");
            assert_eq!(
                got.audit_violations.is_empty(),
                expected.audit.ok(),
                "{name}: audit"
            );
        }
    }
}

#[test]
fn traced_run_matches_untraced_and_its_byte_split_closes() {
    for name in NAMES {
        let workload = small(name);
        for seed in workload.sim_seeds(2) {
            let scenario = workload.scenario(seed);
            let plain = run_plain(&scenario).outcome;
            let traced = run_traced(&scenario);
            assert!(
                traced.recording.error.is_none(),
                "{name}: {:?}",
                traced.recording.error
            );
            assert_eq!(traced.outcome, plain, "{name}: tracing changed the run");
            traced
                .recording
                .split
                .closes(&plain.stats)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            if workload.crash.is_some() {
                assert!(
                    plain.stats.messages_dropped > 0,
                    "{name}: the crash dropped nothing"
                );
            }
            let times = traced.recording.self_times();
            let attributed = times.total_ns() as f64 / traced.wall.as_nanos() as f64;
            assert!(
                attributed > 0.9,
                "{name}: only {attributed:.3} of the wall time attributed"
            );
        }
    }
}

#[test]
fn a_seed_fixes_every_virtual_time_result() {
    let workload = small("reads-n5");
    let run = |seed| {
        let scenarios: Vec<_> = workload
            .sim_seeds(seed)
            .into_iter()
            .map(|s| workload.scenario(s))
            .collect();
        let outcomes: Vec<Outcome> = scenarios.iter().map(|s| run_plain(s).outcome).collect();
        let pooled: Vec<_> = scenarios.iter().cloned().zip(&outcomes).collect();
        pool(&pooled)
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8), "a new seed must run new simulations");
}

#[test]
fn the_gate_catches_lost_writes_and_lost_requests() {
    let workload = small("spread-n5");
    let scenario = workload.scenario(workload.sim_seeds(3)[0]);
    let outcome = run_plain(&scenario).outcome;
    gate(&scenario, &outcome).expect("a healthy run passes the gate");

    let mut lost = outcome.clone();
    lost.lost_acked_writes.push(lost.clients[0].writes[0].0);
    assert!(gate(&scenario, &lost).is_err());

    let mut uncounted = outcome.clone();
    uncounted.clients[0].writes.pop();
    assert!(gate(&scenario, &uncounted).is_err());

    let mut audit = outcome;
    audit.audit_violations.push("order: injected".into());
    assert!(gate(&scenario, &audit).is_err());
}

#[test]
fn every_pool_gives_p99_ten_samples_beyond_it() {
    for name in NAMES {
        let workload = Workload::by_name(name).expect("listed workload");
        let writes: usize = workload
            .sim_seeds(1)
            .into_iter()
            .map(|seed| {
                let scenario = workload.scenario(seed);
                (0..workload.n_clients())
                    .map(|k| {
                        let mut source = client_source(&scenario, k);
                        std::iter::from_fn(|| source.next_request())
                            .filter(|(_, op)| op.is_write())
                            .count()
                    })
                    .sum::<usize>()
            })
            .sum();
        assert!(writes >= 1000, "{name}: only {writes} writes per run");
    }
}

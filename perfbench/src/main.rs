//! `marp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--spans <file>]`
//!
//! Runs one workload's pool of simulations, checks every one of them,
//! prints each metric by name with its unit, and ends with one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones from the traced run, whose spans go to `--spans`.

use marp_lab::Scenario;
use marp_perfbench::calibrate::{reference_ms, REFERENCE_MS};
use marp_perfbench::deploy::Outcome;
use marp_perfbench::measure::{gate, pool, Virtual};
use marp_perfbench::run::{run_plain, run_traced, Gauges, TraceCounts};
use marp_perfbench::split::{ByteSplit, PARTS};
use marp_perfbench::trace::{Name, SelfTimes};
use marp_perfbench::workload::{Workload, NAMES};
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or(format!(
                    "unknown workload {value}; expected one of {}",
                    NAMES.join(", ")
                ))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 86_400.0)
                        .ok_or(format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        spans,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident set size of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Time one untraced pass over the pool took.
struct PassTime {
    /// Set-up wall time, at the reference speed (s).
    setup_s: f64,
    /// Simulation plus check, CPU time at the reference speed (s).
    host_s: f64,
    /// Simulation plus check, wall time (s).
    host_wall: Duration,
    /// Median time of the reference task during the pass (ms).
    reference_ms: f64,
}

/// How often the reference task runs between a pass's simulations.
const REFERENCE_EVERY: Duration = Duration::from_secs(1);

/// Run the pool once untraced. The first pass is checked by the gate;
/// every later pass must reproduce it exactly.
///
/// The reference task runs before the first simulation, after the last,
/// and whenever a second has passed; the simulations between two of its
/// runs are scaled by the mean of those two, which follows the machine's
/// speed as it drifts within a long pass.
fn plain_pass(scenarios: &[Scenario], first: &mut Vec<Outcome>) -> Result<PassTime, String> {
    let mut time = PassTime {
        setup_s: 0.0,
        host_s: 0.0,
        host_wall: Duration::ZERO,
        reference_ms: 0.0,
    };
    let mut reference = vec![reference_ms()];
    let (mut setup, mut host) = (Duration::ZERO, Duration::ZERO);
    let mut since_reference = Duration::ZERO;
    let mut outcomes = Vec::with_capacity(scenarios.len());
    for (i, scenario) in scenarios.iter().enumerate() {
        let run = run_plain(scenario);
        setup += run.setup;
        host += run.host_cpu;
        time.host_wall += run.host_wall;
        outcomes.push(run.outcome);
        since_reference += run.setup + run.host_wall;
        if since_reference >= REFERENCE_EVERY || i + 1 == scenarios.len() {
            let before = reference[reference.len() - 1];
            let after = reference_ms();
            reference.push(after);
            let scale = REFERENCE_MS / ((before + after) / 2.0);
            time.setup_s += setup.as_secs_f64() * scale;
            time.host_s += host.as_secs_f64() * scale;
            (setup, host, since_reference) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        }
    }
    time.reference_ms = median(reference);
    if first.is_empty() {
        for (scenario, outcome) in scenarios.iter().zip(&outcomes) {
            gate(scenario, outcome)?;
        }
        *first = outcomes;
    } else if *first != outcomes {
        return Err("a repeated run of the same seeds produced a different outcome".into());
    }
    Ok(time)
}

fn end_to_end(v: &Virtual, passes: &[PassTime]) -> Result<Vec<Metric>, String> {
    let ops = v.ops as f64;
    let host_us = median(passes.iter().map(|p| p.host_s * 1e6 / ops).collect());
    let setup_s = median(passes.iter().map(|p| p.setup_s).collect());
    Ok(vec![
        metric("commit_p50_ms", v.commit_p50_ms, "ms"),
        metric("commit_p99_ms", v.commit_p99_ms, "ms"),
        metric("op_p50_ms", v.op_p50_ms, "ms"),
        metric("op_p99_ms", v.op_p99_ms, "ms"),
        metric("bytes_per_op", v.bytes_per_op, "B"),
        metric("msgs_per_op", v.msgs_per_op, "count"),
        metric("host_us_per_op", host_us, "us"),
        metric("unavail_ms", v.unavail_ms, "ms"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss_mb()?, "MB"),
    ])
}

/// Everything the traced passes add up.
#[derive(Default)]
struct Traced {
    times: SelfTimes,
    split: ByteSplit,
    gauges: Gauges,
    counts: TraceCounts,
    wall: Duration,
    host: Duration,
    passes: u32,
}

/// Run the pool once traced. Its outcomes must equal the untraced ones
/// and its byte split must close on every simulation.
fn traced_pass(
    scenarios: &[Scenario],
    reference: &[Outcome],
    traced: &mut Traced,
    spans: &mut Option<std::io::BufWriter<std::fs::File>>,
) -> Result<(), String> {
    let first = traced.passes == 0;
    for (i, (scenario, expected)) in scenarios.iter().zip(reference).enumerate() {
        let run = run_traced(scenario);
        if run.outcome != *expected {
            return Err(format!(
                "simulation {:#x}: the traced run differs from the untraced run",
                scenario.seed
            ));
        }
        if let Some(error) = &run.recording.error {
            return Err(format!("simulation {:#x}: {error}", scenario.seed));
        }
        run.recording
            .split
            .closes(&run.outcome.stats)
            .map_err(|e| format!("simulation {:#x}: {e}", scenario.seed))?;
        let times = run.recording.self_times();
        traced.host += Duration::from_nanos(
            times.self_ns[Name::Check as usize]
                + run
                    .recording
                    .spans
                    .iter()
                    .filter(|s| s.name == Name::Run)
                    .map(|s| s.end_ns - s.start_ns)
                    .sum::<u64>(),
        );
        traced.times.add(&times);
        traced.wall += run.wall;
        if first {
            traced.split.add(&run.recording.split);
            traced.gauges.max(&run.gauges);
            traced.counts.add(&run.counts);
            // The pool's first simulation stands for the rest: every
            // simulation's spans would run to gigabytes.
            if let (0, Some(out)) = (i, spans.as_mut()) {
                run.recording
                    .write(out)
                    .map_err(|e| format!("cannot write spans: {e}"))?;
            }
        }
    }
    traced.passes += 1;
    Ok(())
}

fn per_layer(
    workload: &Workload,
    v: &Virtual,
    outcomes: &[Outcome],
    plain: &[PassTime],
    t: &Traced,
) -> Vec<Metric> {
    let commits = v.commits as f64;
    let passes = f64::from(t.passes);
    // Self time per commit, averaged over the traced passes.
    let us = |name: Name| t.times.us(name) / passes / commits;
    let per_commit = |count: u64| count as f64 / commits;
    let sum = |f: fn(&Outcome) -> u64| outcomes.iter().map(f).sum::<u64>();
    let stats_sum = |f: fn(&marp_sim::RunStats) -> u64| outcomes.iter().map(|o| f(&o.stats)).sum();
    let completed = sum(|o| o.completed) as f64;
    let majority = (workload.n_servers as u32 + 2) / 2;
    let at_majority: u64 = outcomes
        .iter()
        .map(|o| o.visits.get(&majority).copied().unwrap_or(0))
        .sum();
    let mut m = vec![
        metric(
            "sim.events_per_commit",
            per_commit(stats_sum(|s| s.events)),
            "count",
        ),
        metric("sim.dispatch_us_per_commit", us(Name::Run), "us"),
        metric(
            "sim.timers_per_commit",
            per_commit(stats_sum(|s| s.timers_fired)),
            "count",
        ),
        metric(
            "sim.trace_records_per_commit",
            per_commit(t.counts.records),
            "count",
        ),
        metric("sim.trace_us_per_commit", us(Name::Trace), "us"),
        metric("sim.send_us_per_commit", us(Name::Send), "us"),
        metric("sim.timer_us_per_commit", us(Name::Timer), "us"),
        metric("net.route_us_per_commit", us(Name::Route), "us"),
        metric(
            "net.dropped_per_commit",
            per_commit(stats_sum(|s| s.messages_dropped)),
            "count",
        ),
        metric(
            "net.transit_ms",
            t.counts.network_ms / t.counts.paths as f64,
            "ms",
        ),
    ];
    for (part, bytes) in PARTS.iter().zip(t.split.parts) {
        m.push(metric(
            &format!("wire.bytes_per_commit.{part}"),
            per_commit(bytes),
            "B",
        ));
    }
    let per_span = |name: Name| {
        t.times.self_ns[name as usize] as f64 / t.times.count[name as usize].max(1) as f64
    };
    m.push(metric(
        "wire.decode_ns_per_msg",
        per_span(Name::Decode),
        "ns",
    ));
    m.push(metric(
        "wire.encode_ns_per_msg",
        per_span(Name::Encode),
        "ns",
    ));
    let handlers = [
        ("client", Name::CoreClient),
        ("agent", Name::CoreAgent),
        ("update", Name::CoreUpdate),
        ("commit", Name::CoreCommit),
        ("sync", Name::CoreSync),
        ("timer", Name::CoreTimer),
    ];
    let total: f64 = handlers.iter().map(|&(_, name)| us(name)).sum();
    m.push(metric("core.handler_us_per_commit", total, "us"));
    for (label, name) in handlers {
        m.push(metric(
            &format!("core.handler_us_per_commit.{label}"),
            us(name),
            "us",
        ));
    }
    m.extend([
        metric(
            "core.ll_info_per_commit",
            per_commit(t.split.ll_infos),
            "count",
        ),
        metric(
            "core.lock_wait_ms",
            t.counts.lock_wait_ms / t.counts.paths as f64,
            "ms",
        ),
        metric(
            "core.board_entries_max",
            t.gauges.board_entries as f64,
            "count",
        ),
        metric(
            "agent.migrations_per_commit",
            per_commit(sum(|o| o.migrations)),
            "count",
        ),
        metric(
            "agent.migrated_bytes_per_commit",
            per_commit(stats_sum(|s| s.agent_bytes_migrated)),
            "B",
        ),
        metric(
            "agent.agents_per_commit",
            per_commit(sum(|o| o.agents)),
            "count",
        ),
        metric(
            "agent.claim_success",
            completed / (completed + sum(|o| o.aborted_claims) as f64),
            "ratio",
        ),
        metric(
            "agent.prk_majority",
            at_majority as f64 / completed,
            "ratio",
        ),
        metric(
            "agent.regenerated_per_commit",
            per_commit(t.counts.regenerated),
            "count",
        ),
        metric(
            "replica.batch_wait_ms",
            t.counts.queueing_ms / t.counts.paths as f64,
            "ms",
        ),
        metric("replica.ul_len_max", t.gauges.ul_len as f64, "count"),
        metric("replica.ll_depth_max", t.gauges.ll_depth as f64, "count"),
        metric(
            "replica.retries_per_commit",
            per_commit(
                outcomes
                    .iter()
                    .flat_map(|o| &o.clients)
                    .map(|c| c.retries)
                    .sum(),
            ),
            "count",
        ),
        metric(
            "replica.suppressed_per_commit",
            per_commit(t.counts.suppressed),
            "count",
        ),
        metric("replica.client_us_per_commit", us(Name::Client), "us"),
        metric("replica.read_p50_ms", v.read_p50_ms.unwrap_or(0.0), "ms"),
        metric("replica.read_p99_ms", v.read_p99_ms.unwrap_or(0.0), "ms"),
        metric(
            "quorum.ack_wait_ms",
            t.counts.quorum_wait_ms / t.counts.paths as f64,
            "ms",
        ),
        metric("metrics.check_us_per_commit", us(Name::Check), "us"),
    ]);
    let plain_host = median(plain.iter().map(|p| p.host_wall.as_secs_f64()).collect());
    let traced_host = t.host.as_secs_f64() / passes;
    m.push(metric(
        "bench.trace_overhead_pct",
        (traced_host / plain_host - 1.0) * 100.0,
        "%",
    ));
    m.push(metric(
        "bench.reference_ms",
        median(plain.iter().map(|p| p.reference_ms).collect()),
        "ms",
    ));
    m.push(metric(
        "bench.attributed_frac",
        t.times.total_ns() as f64 / t.wall.as_nanos() as f64,
        "ratio",
    ));
    m
}

/// A number as JSON, with Python's spelling for the values JSON lacks
/// (a percentile over unanswered requests is infinite).
fn json_number(x: f64) -> String {
    if x.is_nan() {
        "NaN".to_string()
    } else if x.is_infinite() {
        "Infinity".to_string()
    } else {
        format!("{x}")
    }
}

/// The result line. Only a run that passed every check prints one.
fn print_result(attempted: u64, failed: u64, metrics: &[Metric]) {
    let mut line = format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    line.push_str("}}");
    println!("{line}");
}

fn run(args: &Args) -> Result<(), String> {
    let workload = &args.workload;
    let scenarios: Vec<Scenario> = workload
        .sim_seeds(args.seed)
        .into_iter()
        .map(|seed| workload.scenario(seed))
        .collect();
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut outcomes = Vec::new();
    let mut plain = vec![plain_pass(&scenarios, &mut outcomes)?];
    // Start another pass only while one more still fits in the budget.
    let fits = |pass: Duration| started.elapsed() + pass <= budget;
    let pooled: Vec<(Scenario, &Outcome)> = scenarios.iter().cloned().zip(&outcomes).collect();
    let v = pool(&pooled);
    let metrics = if args.trace {
        let mut spans = match &args.spans {
            Some(path) => Some(std::io::BufWriter::new(
                std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?,
            )),
            None => None,
        };
        let mut traced = Traced::default();
        loop {
            let pass = Instant::now();
            traced_pass(&scenarios, &outcomes, &mut traced, &mut spans)?;
            if !fits(pass.elapsed() * 2) {
                break;
            }
            plain.push(plain_pass(&scenarios, &mut outcomes)?);
        }
        if let Some(mut out) = spans {
            out.flush()
                .map_err(|e| format!("cannot write spans: {e}"))?;
        }
        per_layer(workload, &v, &outcomes, &plain, &traced)
    } else {
        let mut pass = started.elapsed();
        while fits(pass) {
            let t = Instant::now();
            plain.push(plain_pass(&scenarios, &mut outcomes)?);
            pass = t.elapsed();
        }
        end_to_end(&v, &plain)?
    };
    println!(
        "workload {} seed {}: {} simulations, {} passes, {} requests, {} failed, {} commits",
        workload.name,
        args.seed,
        scenarios.len(),
        plain.len(),
        v.attempted,
        v.failed,
        v.commits
    );
    for m in &metrics {
        println!("  {:<40} {:>14.4} {}", m.name, m.value, m.unit);
    }
    print_result(v.attempted, v.failed, &metrics);
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("marp-perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("marp-perfbench: run failed: {error}");
            ExitCode::FAILURE
        }
    }
}

//! One benchmark of the replicated trust-manager request path:
//! `FrontDoor` → `ClusterRouter` → `TmsServer` → `Palaemon` → kvdb WAL →
//! replication → follower apply, on a fixed 2-shard × 3-replica
//! deployment.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tag_sync --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics (tracing off); `--trace 1`
//! traces the paced phase and prints the per-layer metrics instead. The
//! last line of standard output is one JSON object; `BENCHMARK.json` at
//! the repository root records the design.

mod calibrate;
mod deploy;
mod host;
mod stats;
mod workload;

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use palaemon::cluster::ReplicationStats;
use palaemon::telemetry::Stage;

use deploy::{Cluster, Counts, Kind, Layer};
use host::Ticks;
use stats::{least_stolen, median, percentile, self_time_ns, sliced_percentile, steal_corrected};
use workload::{tenant_specs, Generator, Recording, Workload, PACED_SLICES};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Unrecorded paced traffic before the measured phases.
const WARMUP: Duration = Duration::from_secs(1);
/// Share of `--seconds` spent in the paced phase; the rest is saturated.
const PACED_SHARE: f64 = 0.5;
/// Length of one saturated slice; `saturated_rps` is the slice median.
const SLICE: Duration = Duration::from_millis(500);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds < 2 {
        return Err("--seconds must be at least 2".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// (count, sum ns) of every request stage, read at one instant.
fn stage_sums(cluster: &Cluster) -> [(u64, f64); 5] {
    Stage::ALL.map(|stage| {
        let s = cluster.router.telemetry().stage_histogram(stage).summary();
        (s.count, s.mean_ns * s.count as f64)
    })
}

/// Mean of `stage` in µs between two [`stage_sums`] readings.
fn stage_mean_us(before: &[(u64, f64); 5], after: &[(u64, f64); 5], stage: Stage) -> f64 {
    let (c0, s0) = before[stage as usize];
    let (c1, s1) = after[stage as usize];
    match c1 - c0 {
        0 => 0.0,
        n => (s1 - s0) / n as f64 / 1e3,
    }
}

fn replication(cluster: &Cluster) -> ReplicationStats {
    let mut total = ReplicationStats::default();
    for shard in cluster.router.stats().shards {
        let r = shard.replication;
        total.reads_primary += r.reads_primary;
        total.reads_follower += r.reads_follower;
        total.attests_primary += r.attests_primary;
        total.attests_follower += r.attests_follower;
        total.freshness_rejections += r.freshness_rejections;
        total.incremental_bytes += r.incremental_bytes;
        total.snapshot_bytes += r.snapshot_bytes;
        total.snapshot_resyncs += r.snapshot_resyncs;
        total.sequence_rejections += r.sequence_rejections;
    }
    total
}

/// The post-drain consistency gate; returns one line per violation.
fn consistency(cluster: &Cluster) -> Vec<String> {
    let mut failures = Vec::new();
    for id in cluster.router.shard_ids() {
        let status = cluster.router.replica_status(id).expect("listed shard");
        for r in &status.replicas {
            if !r.in_quorum || r.quarantined {
                failures.push(format!("{id} replica {} is out of quorum", r.replica));
            }
        }
    }
    for tenant in &cluster.tenants {
        let shard = cluster
            .router
            .shard_for_policy(&tenant.name)
            .expect("tenant routes");
        let digests: Vec<_> = cluster
            .router
            .replica_engines(shard)
            .iter()
            .map(|e| e.policy_digest(&tenant.name))
            .collect();
        if digests.windows(2).any(|w| w[0] != w[1]) {
            failures.push(format!("replicas of {} diverge", tenant.name));
        }
    }
    let actions = cluster.monitor.totals().actions();
    if actions != 0 {
        failures.push(format!("the monitor took {actions} repair actions"));
    }
    failures
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn us(ns: Option<u64>) -> Option<f64> {
    ns.map(|n| n as f64 / 1e3)
}

/// The spans of one traced phase: mean call time and mean self time per
/// request label, and the dump written to `out/`.
fn span_figures(rec: &Recording, workload: Workload) -> HashMap<&'static str, (f64, f64, u64)> {
    let mut by_request: HashMap<u64, Vec<deploy::Span>> = HashMap::new();
    for (id, span) in &rec.spans {
        by_request.entry(*id).or_default().push(*span);
    }
    let mut sums: HashMap<&'static str, (f64, f64, u64)> = HashMap::new();
    for spans in by_request.values() {
        let children: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| !matches!(s.layer, Layer::Door(_)))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        for s in spans {
            if let Layer::Door(kind) = s.layer {
                let e = sums.entry(kind.label()).or_default();
                e.0 += (s.end_ns - s.start_ns) as f64;
                e.1 += self_time_ns((s.start_ns, s.end_ns), &children) as f64;
                e.2 += 1;
            }
        }
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let dump: String = rec
        .spans
        .iter()
        .map(|(id, s)| format!("{id}\t{:?}\t{}\t{}\n", s.layer, s.start_ns, s.end_ns))
        .collect();
    let path = format!("{dir}/spans-{}.tsv", workload.name());
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, dump)) {
        eprintln!("perfbench: could not write {path}: {e}");
    }
    sums
}

fn run(args: &Args) -> Result<(Metrics, stats::Outcomes), String> {
    let specs = tenant_specs(args.seed);
    let wide = args.workload.wide();
    let mut setup_times = Vec::new();
    let mut cluster = None;
    for _ in 0..SETUPS {
        if let Some(previous) = cluster.take() {
            Cluster::shutdown(previous);
        }
        let start = Instant::now();
        cluster = Some(deploy::build(&specs, wide));
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let cluster = cluster.expect("at least one set-up");
    let rate = args.workload.paced_steps_per_sec();
    let paced_len = Duration::from_secs_f64(args.seconds as f64 * PACED_SHARE);
    let slices = ((Duration::from_secs(args.seconds) - paced_len).as_secs_f64()
        / SLICE.as_secs_f64())
    .round()
    .max(2.0) as usize;

    let mut generator = Generator::new(&cluster, args.workload, args.seed);
    generator.paced(rate, WARMUP, false);

    cluster.set_tracing(args.trace);
    let ticks0 = Ticks::now();
    let counts0 = Counts::now();
    let stages0 = stage_sums(&cluster);
    let repl0 = replication(&cluster);
    let rec = generator
        .paced(rate, paced_len, true)
        .expect("a recorded phase returns its samples");
    let counts = Counts::now().since(&counts0);
    // Read after the paced phase, whose work the seed fixes: a faster
    // saturated phase must not read as a bigger footprint.
    let rss_mb = peak_rss_mb();
    let stages1 = stage_sums(&cluster);
    let repl1 = replication(&cluster);

    // Traced runs alternate untraced and traced slices, so the tracing
    // overhead is measured under the same drift.
    let trace = args.trace;
    let mut ticks = Vec::new();
    let rps = generator.saturated(slices, SLICE, |k| {
        if trace {
            cluster.set_tracing(k % 2 == 1);
        }
        ticks.push(Ticks::now());
    });
    cluster.set_tracing(false);
    let steal = ticks.last().expect("the phase ends").steal_since(&ticks0);
    let rps: Vec<f64> = rps
        .iter()
        .zip(ticks.windows(2))
        .map(|(&rate, t)| steal_corrected(rate, t[1].steal_since(&t[0])))
        .collect();

    let mut outcomes = generator.outcomes;
    let sent = generator.sent();
    drop(generator);
    let mut violations = consistency(&cluster);
    let monitor = cluster.monitor.totals();
    let monitor_ticks = cluster.monitor.ticks();
    let stored_mb =
        cluster.stores.iter().map(deploy::stored_bytes).sum::<u64>() as f64 / (1 << 20) as f64;
    let calibration = trace.then(|| calibrate::run(&cluster.platform, &specs[0], wide));
    let door = Cluster::shutdown(cluster);
    if door.submitted != door.completed + door.rejected || door.completed != sent {
        violations.push(format!(
            "front door accounted {} submitted, {} completed, {} rejected for {sent} sent",
            door.submitted, door.completed, door.rejected
        ));
    }
    outcomes.refused += door.rejected;
    outcomes.wrong += violations.len() as u64;
    for v in &violations {
        eprintln!("perfbench: consistency: {v}");
    }

    // The latencies come from the paced slices the hypervisor stole least
    // from: more than half of them, all when nothing was stolen.
    let slice_steal = rec.slice_steal();
    let keep = least_stolen(&slice_steal, PACED_SLICES / 2 + 1);
    eprintln!(
        "perfbench: steal per paced slice (%): {}; {} of {} slices kept",
        slice_steal
            .iter()
            .map(|s| format!("{:.1}", s * 100.0))
            .collect::<Vec<_>>()
            .join(" "),
        keep.iter().filter(|&&k| k).count(),
        keep.len()
    );
    let kept = |slices: &[Vec<u64>]| -> Vec<Vec<u64>> {
        slices
            .iter()
            .zip(&keep)
            .filter(|(_, &k)| k)
            .map(|(s, _)| s.clone())
            .collect()
    };
    let classes = [
        ("provision", kept(&rec.provision_ns)),
        ("read", kept(&rec.read_ns)),
        ("write", kept(&rec.write_ns)),
    ];
    let mut m = Metrics(Vec::new());
    if !trace {
        for (class, slices) in &classes {
            let value = us(sliced_percentile(slices, 0.5)).ok_or(format!(
                "{class} p50: a slice of {:?} samples leaves fewer than 10 beyond it",
                slices.iter().map(Vec::len).collect::<Vec<_>>()
            ))?;
            m.add(format!("{class}_p50_us"), value, "us");
        }
        m.add("saturated_rps", median(&rps), "1/s");
        m.add("setup_s", median(&setup_times), "s");
        m.add("peak_rss_mb", rss_mb, "MB");
        return Ok((m, outcomes));
    }

    let spans = span_figures(&rec, args.workload);
    let mean = |s: Stage| stage_mean_us(&stages0, &stages1, s);
    let mutations = rec.mutations.max(1) as f64;
    let reads = (repl1.reads_primary + repl1.reads_follower)
        .saturating_sub(repl0.reads_primary + repl0.reads_follower);
    let attests = (repl1.attests_primary + repl1.attests_follower)
        .saturating_sub(repl0.attests_primary + repl0.attests_follower);

    m.add("frontdoor.queue_wait_mean_us", mean(Stage::QueueWait), "us");
    m.add("frontdoor.queue_peak", door.queue_peak as f64, "count");
    m.add("frontdoor.rejected", door.rejected as f64, "count");
    for kind in [
        Kind::Attest,
        Kind::ReadTag,
        Kind::Push,
        Kind::Update,
        Kind::Close,
    ] {
        let (total, own, n) = spans.get(kind.label()).copied().unwrap_or_default();
        let n = n.max(1) as f64;
        m.add(
            format!("cluster.handle_us.{}", kind.label()),
            total / n / 1e3,
            "us",
        );
        m.add(
            format!("cluster.handle_self_us.{}", kind.label()),
            own / n / 1e3,
            "us",
        );
    }
    let push_us = spans
        .get("push")
        .map_or(0.0, |&(t, _, n)| t / n.max(1) as f64 / 1e3);
    let push_stages = mean(Stage::EngineApply)
        + mean(Stage::CounterCommit)
        + mean(Stage::ForwardEnqueue)
        + mean(Stage::QuorumAck);
    m.add("cluster.quorum_ack_mean_us", mean(Stage::QuorumAck), "us");
    m.add(
        "cluster.forward_enqueue_mean_us",
        mean(Stage::ForwardEnqueue),
        "us",
    );
    m.add(
        "cluster.push_stage_coverage",
        if push_us > 0.0 {
            push_stages / push_us
        } else {
            0.0
        },
        "ratio",
    );
    let delta_bytes = (repl1.incremental_bytes + repl1.snapshot_bytes)
        - (repl0.incremental_bytes + repl0.snapshot_bytes);
    m.add(
        "cluster.delta_bytes_per_write",
        delta_bytes as f64 / mutations,
        "B",
    );
    m.add(
        "cluster.follower_read_share",
        (repl1.reads_follower - repl0.reads_follower) as f64 / reads.max(1) as f64,
        "ratio",
    );
    m.add(
        "cluster.freshness_rejections_per_read",
        (repl1.freshness_rejections - repl0.freshness_rejections) as f64 / reads.max(1) as f64,
        "ratio",
    );
    m.add(
        "cluster.follower_attest_share",
        (repl1.attests_follower - repl0.attests_follower) as f64 / attests.max(1) as f64,
        "ratio",
    );
    m.add(
        "cluster.snapshot_resyncs",
        repl1.snapshot_resyncs as f64,
        "count",
    );
    m.add(
        "cluster.sequence_rejections",
        repl1.sequence_rejections as f64,
        "count",
    );
    m.add("monitor.ticks", monitor_ticks as f64, "count");
    m.add("monitor.actions", monitor.actions() as f64, "count");
    m.add("tms.engine_apply_mean_us", mean(Stage::EngineApply), "us");
    m.add("counter.commit_mean_us", mean(Stage::CounterCommit), "us");
    m.add(
        "counter.increments_per_write",
        counts.increments as f64 / mutations,
        "ratio",
    );
    m.add(
        "counter.increment_busy_ms",
        counts.increment_ns as f64 / 1e6,
        "ms",
    );
    m.add(
        "kvdb.primary_syncs_per_write",
        counts.primary.syncs as f64 / mutations,
        "ratio",
    );
    m.add(
        "kvdb.follower_syncs_per_write",
        counts.follower.syncs as f64 / mutations,
        "ratio",
    );
    m.add(
        "kvdb.syncs_per_request",
        (counts.primary.syncs + counts.follower.syncs) as f64 / rec.requests.max(1) as f64,
        "ratio",
    );
    m.add(
        "kvdb.sync_busy_ms",
        (counts.primary.sync_ns + counts.follower.sync_ns) as f64 / 1e6,
        "ms",
    );
    m.add(
        "kvdb.put_bytes_per_user_byte",
        (counts.primary.put_bytes + counts.follower.put_bytes) as f64
            / rec.user_bytes.max(1) as f64,
        "ratio",
    );
    m.add("kvdb.stored_mb", stored_mb, "MB");
    for (name, value) in calibration.expect("traced runs calibrate") {
        m.add(name, value, "us");
    }
    let untraced: Vec<f64> = rps.iter().step_by(2).copied().collect();
    let traced: Vec<f64> = rps.iter().skip(1).step_by(2).copied().collect();
    m.add(
        "telemetry.overhead_pct",
        (1.0 - median(&traced) / median(&untraced)) * 100.0,
        "%",
    );
    let mut late = rec.late_ns.clone();
    late.sort_unstable();
    m.add(
        "bench.gen_late_p99_us",
        us(percentile(&late, 0.99)).unwrap_or(0.0),
        "us",
    );
    for (class, slices) in &classes {
        let mut samples = slices.concat();
        samples.sort_unstable();
        m.add(
            format!("bench.samples.{class}"),
            samples.len() as f64,
            "count",
        );
        // The tails are diagnostics, 0 when fewer than 10 samples lie
        // beyond them: they follow the host's CPU steal too closely to
        // gate on.
        m.add(
            format!("bench.{class}_p95_us"),
            us(sliced_percentile(slices, 0.95)).unwrap_or(0.0),
            "us",
        );
        m.add(
            format!("bench.{class}_p99_us"),
            us(percentile(&samples, 0.99)).unwrap_or(0.0),
            "us",
        );
    }
    m.add("bench.spans", rec.spans.len() as f64, "count");
    m.add("host.steal_pct", steal * 100.0, "%");
    m.add(
        "bench.paced_slices_kept",
        keep.iter().filter(|&&k| k).count() as f64,
        "count",
    );
    m.add("failed_frac", outcomes.failed_frac(), "ratio");
    Ok((m, outcomes))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <startup|tag_sync|tenant_mix> --seed <n> \
                 --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = host::precise_timers() {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    match run(&args) {
        Ok((metrics, outcomes)) => {
            for (name, value, unit) in &metrics.0 {
                eprintln!("{name:>40} {value:>14.3} {unit}");
            }
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                outcomes.failed() == 0,
                outcomes.attempted,
                outcomes.failed(),
                metrics.json()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

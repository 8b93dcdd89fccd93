//! The timed simulator run: the program exactly as a user drives it
//! (`GossipCluster` at one engine thread), with no tracing.

use std::time::Instant;

use agb_perf::alloc::allocation_count;
use agb_types::{DurationMs, TimeMs};
use agb_workload::GossipCluster;

use crate::sys::{
    log_scaling, median, median_slice, peak_rss_kb, process_cpu_secs, JsonObject, Slice, SpeedProbe,
};
use crate::workloads::SimSpec;

/// Virtual time at the end of round `k` (round timers fire at
/// multiples of the period).
pub fn round_end(period: DurationMs, k: u64) -> TimeMs {
    TimeMs::ZERO + period * k
}

/// Counts two same-seed runs must agree on exactly.
pub fn write_sim_counts(
    out: &mut JsonObject,
    checksum: u64,
    sends: u64,
    deliveries: u64,
    admitted: u64,
    app_deliveries: u64,
) {
    out.str("checksum", &format!("{checksum:#018x}"))
        .int("sends", sends)
        .int("deliveries", deliveries)
        .int("admitted", admitted)
        .int("app_deliveries", app_deliveries);
}

/// Runs `spec` for about `seconds` of measured wall time and returns the
/// result object: end-to-end metrics, deterministic counts, and the
/// per-layer figures that need no tracing.
pub fn timed(spec: &SimSpec, seed: u64, seconds: f64) -> JsonObject {
    let started = Instant::now();
    let mut cluster = GossipCluster::build(spec.config(seed));
    let mut setup = vec![started.elapsed().as_secs_f64()];
    let n = spec.n_nodes as u64;
    let period = cluster.config().round_period();
    let warmup = spec.warmup_rounds;
    let measured = spec.measure_rounds(seconds);

    cluster.run_until(round_end(period, warmup));
    cluster.reset_peak_queue_depth();
    let before_stats = cluster.sim_stats();
    let before_events = cluster.events_processed();
    let before_delivered = cluster.metrics().delivered().total();
    let before_admitted = cluster.metrics().admitted().total();
    let before_allocs = allocation_count();
    let mut slices = Vec::with_capacity(measured as usize);
    let mut probe = SpeedProbe::new();
    for k in warmup + 1..=warmup + measured {
        let events = cluster.events_processed();
        let delivered = cluster.metrics().delivered().total();
        let cpu = process_cpu_secs();
        let t = Instant::now();
        cluster.run_until(round_end(period, k));
        slices.push(Slice {
            wall: t.elapsed().as_secs_f64(),
            cpu: process_cpu_secs() - cpu,
            work: cluster.events_processed() - events,
            deliveries: cluster.metrics().delivered().total() - delivered,
            // After the slice's own readings above.
            scale: probe.scale(),
        });
    }
    let allocs = allocation_count() - before_allocs;
    let stats = cluster.sim_stats();
    let events = cluster.events_processed() - before_events;
    let app_deliveries = cluster.metrics().delivered().total() - before_delivered;
    let admitted = cluster.metrics().admitted().total() - before_admitted;
    let peak_queue = cluster.peak_queue_depth();
    let estimate_bytes = cluster.mem_table().bytes_per_node();

    let metrics = cluster.metrics();
    let sample = spec.sample(&metrics, seconds);
    let rss_kb = peak_rss_kb();
    let mut counts = JsonObject::default();
    write_sim_counts(
        &mut counts,
        stats.checksum,
        stats.sends,
        stats.deliveries,
        metrics.admitted().total(),
        metrics.delivered().total(),
    );
    sample.write_counts(&mut counts, spec.atomic_floor);
    drop(metrics);
    drop(cluster);
    // More builds for a steadier set-up time, after the peak RSS above
    // was read, so that the peak belongs to the one measured cluster.
    for _ in 1..spec.setup_reps {
        let config = spec.config(seed);
        let started = Instant::now();
        let built = GossipCluster::build(config);
        setup.push(started.elapsed().as_secs_f64());
        drop(built);
    }
    let node_rounds = (measured * n) as f64;
    let medians = median_slice(&slices);
    log_scaling(spec.name, &slices);

    let mut m = JsonObject::default();
    m.metric("setup_s", median(&setup), "s")
        .metric("peak_rss_mb", rss_kb as f64 / 1024.0, "MB")
        .metric(
            "node_rounds_per_s",
            node_rounds / events as f64 * medians.work_per_cpu_s,
            "1/s",
        )
        .metric("cpu_us_per_delivery", medians.cpu_per_delivery * 1e6, "us");
    sample.write(
        &mut m,
        admitted as f64 / (period.as_secs_f64() * measured as f64),
    );
    m.metric(
        "frames_per_delivery",
        (stats.deliveries - before_stats.deliveries) as f64 / app_deliveries.max(1) as f64,
        "count",
    );

    let mut layers = JsonObject::default();
    layers
        .metric(
            "sim.events_per_node_round",
            events as f64 / node_rounds,
            "count",
        )
        .metric("sim.peak_queue_depth", peak_queue as f64, "count")
        .metric("alloc.per_node_round", allocs as f64 / node_rounds, "count")
        .metric(
            "mem.estimate_kb_per_node",
            estimate_bytes as f64 / 1024.0,
            "KB",
        )
        .metric("mem.rss_kb_per_node", rss_kb as f64 / n as f64, "KB");

    let mut out = JsonObject::default();
    out.str("workload", spec.name)
        .int("seed", seed)
        .obj("metrics", &m)
        .obj("layers", &layers)
        .obj("counts", &counts);
    out
}

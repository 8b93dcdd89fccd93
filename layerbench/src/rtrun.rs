//! The UDP runtime workload. Both modes record the runtime's telemetry
//! counters (relaxed atomics; the only source of its round, frame and
//! byte counts); the traced mode also turns on runtime profiling, whose
//! loop and egress histograms cost extra clock reads.

use std::time::{Duration, Instant};

use agb_profile::ProfileConfig;
use agb_runtime::RuntimeCluster;
use agb_telemetry::{names, Snapshot, TelemetryConfig};

use crate::sys::{median, median_slice, peak_rss_kb, process_cpu_secs, JsonObject, Slice};
use crate::workloads::{DeliverySample, RtSpec};

/// Runtime counters listed as unmeasured: no runtime path increments
/// the duplicate counter, and the recovery counter is not known to count
/// every recovery, so neither reading stands for its layer's work.
const UNMEASURED: [&str; 2] = [names::DUPLICATES, names::RECOVERY_EVENTS];

fn snapshot(cluster: &RuntimeCluster) -> Snapshot {
    let mut merged = Snapshot::default();
    for registry in cluster.telemetry_registries() {
        merged.merge(&registry.snapshot());
    }
    merged
}

/// Runs the runtime workload for `seconds` of measured wall time.
pub fn run(spec: &RtSpec, seed: u64, seconds: f64, traced: bool) -> JsonObject {
    let mut config = spec.config(seed);
    config.telemetry = TelemetryConfig::recording();
    if traced {
        config.profile = ProfileConfig::enabled();
    }
    let start = |setup: &mut Vec<f64>| {
        let started = Instant::now();
        let c = RuntimeCluster::start(config.clone()).expect("bind UDP sockets on loopback");
        setup.push(started.elapsed().as_secs_f64());
        c
    };
    let mut setup = Vec::with_capacity(spec.setup_reps);
    let cluster = start(&mut setup);
    std::thread::sleep(spec.warmup);

    // One-second slices; each reads every node's counters at its edges.
    let before = snapshot(&cluster);
    let from = cluster.elapsed();
    let mut slices = Vec::new();
    let mut edge = before.clone();
    let mut left = seconds;
    while left > 0.0 {
        let cpu = process_cpu_secs();
        let started = Instant::now();
        std::thread::sleep(Duration::from_secs_f64(left.min(1.0)));
        let cpu = process_cpu_secs() - cpu;
        let wall = started.elapsed().as_secs_f64();
        let next = snapshot(&cluster);
        let delta = |name: &str| next.counter_sum(name) - edge.counter_sum(name);
        slices.push(Slice {
            wall,
            cpu,
            work: delta(names::ROUNDS),
            deliveries: delta(names::DELIVERIES),
            // Unscaled: neither the simulator's speed probe nor a UDP
            // loopback probe run on this thread tracked the node
            // threads' cost; scaling by either widened the spread.
            scale: 1.0,
        });
        edge = next;
        left -= 1.0;
    }
    let to = cluster.elapsed();
    let after = edge;
    let wall: f64 = slices.iter().map(|s| s.wall).sum();
    std::thread::sleep(spec.drain);
    let end = snapshot(&cluster);
    let metrics = cluster.stop();
    let rss_kb = peak_rss_kb();
    // More starts for a steadier set-up time, after the peak RSS above
    // was read, so that the peak belongs to the one measured cluster.
    for _ in 1..spec.setup_reps {
        start(&mut setup).stop();
    }

    let delta = |name: &str| after.counter_sum(name) - before.counter_sum(name);
    let deliveries = delta(names::DELIVERIES);
    assert!(deliveries > 0, "no delivery inside the window");
    let rounds = delta(names::ROUNDS);
    let medians = median_slice(&slices);
    let rounds_per_s = medians.work_per_wall_s;
    let sample = DeliverySample::collect(&metrics, from, to);

    let mut m = JsonObject::default();
    m.metric("setup_s", median(&setup), "s")
        .metric("peak_rss_mb", rss_kb as f64 / 1024.0, "MB")
        .metric("node_rounds_per_s", rounds_per_s, "1/s")
        .metric("cpu_us_per_delivery", medians.cpu_per_delivery * 1e6, "us");
    sample.write(&mut m, sample.messages as f64 / wall);
    m.metric(
        "frames_per_delivery",
        delta(names::MESSAGES_RECEIVED) as f64 / deliveries as f64,
        "count",
    );

    let frames_sent = delta(names::MESSAGES_SENT);
    // Recovery's own frames: grafts and the retransmissions they pull.
    let sent_of_kind = |snap: &Snapshot, kind: &str| -> u64 {
        (0..spec.n_nodes)
            .map(|i| {
                let node = i.to_string();
                let labels = [("node", node.as_str()), ("kind", kind)];
                snap.counter(names::MESSAGES_SENT, &labels).unwrap_or(0)
            })
            .sum()
    };
    let control: u64 = ["graft", "retransmit"]
        .iter()
        .map(|kind| sent_of_kind(&after, kind) - sent_of_kind(&before, kind))
        .sum();
    let publishes = delta(names::PUBLISHES);
    let refused = delta(names::OFFERS_REFUSED);
    let hist_ms = |name: &str, q: f64| {
        end.histogram_merged(name)
            .and_then(|h| h.quantile(q))
            .map_or(0.0, |s| s * 1e3)
    };
    let mut layers = JsonObject::default();
    layers
        .metric(
            "mem.rss_kb_per_node",
            rss_kb as f64 / spec.n_nodes as f64,
            "KB",
        )
        .metric(
            "core.drops_per_round",
            delta(names::DROPS) as f64 / rounds.max(1) as f64,
            "count",
        )
        .metric(
            "recovery.control_frames_per_delivery",
            control as f64 / deliveries as f64,
            "count",
        )
        .metric(
            "codec.bytes_per_frame",
            delta(names::BYTES_SENT) as f64 / frames_sent.max(1) as f64,
            "B",
        )
        .metric(
            "runtime.bytes_sent_per_delivery",
            delta(names::BYTES_SENT) as f64 / deliveries as f64,
            "B",
        )
        .metric(
            "runtime.frames_sent_per_delivery",
            frames_sent as f64 / deliveries as f64,
            "count",
        )
        .metric("runtime.sheds", delta(names::SHEDS) as f64, "count")
        .metric(
            "runtime.send_retries",
            delta(names::SEND_RETRIES) as f64,
            "count",
        )
        .metric(
            "runtime.decode_errors",
            delta(names::DECODE_ERRORS) as f64,
            "count",
        )
        .metric(
            "runtime.offers_refused_frac",
            refused as f64 / (refused + publishes).max(1) as f64,
            "frac",
        )
        .metric(
            "runtime.loop_iter_ms.p50",
            hist_ms(names::LOOP_ITERATION_SECONDS, 0.5),
            "ms",
        )
        .metric(
            "runtime.egress_dwell_ms.p99",
            hist_ms(names::EGRESS_DWELL_SECONDS, 0.99),
            "ms",
        )
        .metric("trace.node_rounds_per_s", rounds_per_s, "1/s");

    let mut counts = JsonObject::default();
    sample.write_counts(&mut counts, spec.atomic_floor);
    let mut unmeasured = JsonObject::default();
    for name in UNMEASURED {
        unmeasured.int(name, end.counter_sum(name));
    }

    let mut out = JsonObject::default();
    out.str("workload", spec.name)
        .int("seed", seed)
        .obj("metrics", &m)
        .obj("layers", &layers)
        .obj("counts", &counts)
        .obj("unmeasured", &unmeasured);
    out
}

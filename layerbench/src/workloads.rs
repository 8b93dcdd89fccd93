//! The three workloads and the delivery sample every run reports on.

use agb_core::GossipConfig;
use agb_metrics::MetricsCollector;
use agb_perf::harness::ScenarioSpec;
use agb_recovery::RecoveryConfig;
use agb_runtime::{RuntimeClusterConfig, TransportKind};
use agb_types::{DurationMs, TimeMs};
use agb_workload::ClusterConfig;

use crate::sys::{quantile, JsonObject};

/// A simulator workload: the perf harness's adaptive-lpbcast scenario
/// (fanout 4, 64-byte payloads, 10 senders offering 50 msg/s, gossip
/// period 1 s) at one group size, network loss and recovery setting.
#[derive(Debug, Clone)]
pub struct SimSpec {
    /// Workload name on the command line.
    pub name: &'static str,
    /// Group size.
    pub n_nodes: usize,
    /// Independent per-message network loss.
    pub loss: f64,
    /// Wrap every node in the recovery layer with its default config.
    pub recovery: bool,
    /// Rounds run before the measured window, until the per-round
    /// protocol time has levelled off (buffers full, rate adapted).
    pub warmup_rounds: u64,
    /// Measured rounds per requested second on a 2-CPU x86-64 host at
    /// one engine thread; fixes the window length in rounds so that
    /// same-seed runs are identical.
    pub rounds_per_second: f64,
    /// Rounds a message needs to finish spreading (age cap 10 plus
    /// latency): the delivery sample takes the messages admitted in the
    /// window except its last `settle_rounds`.
    pub settle_rounds: u64,
    /// Cluster builds timed for `setup_s` (the last one is run).
    pub setup_reps: usize,
    /// Smallest acceptable `atomic_frac`.
    pub atomic_floor: f64,
}

impl SimSpec {
    /// The cluster this workload runs, pinned to one engine thread.
    pub fn config(&self, seed: u64) -> ClusterConfig {
        let scenario = ScenarioSpec {
            name: self.name.to_string(),
            n_nodes: self.n_nodes,
            recovery: self.recovery,
            warmup_rounds: self.warmup_rounds,
            measure_rounds: 0,
        };
        let mut c = scenario.cluster_config(seed);
        c.network.loss = self.loss;
        c.threads = 1;
        c
    }

    /// Measured rounds for a run of `seconds`.
    pub fn measure_rounds(&self, seconds: f64) -> u64 {
        ((seconds * self.rounds_per_second).round() as u64).max(self.settle_rounds + 2)
    }

    /// The delivery sample of a run of `seconds` that has reached the
    /// end of its window.
    pub fn sample(&self, metrics: &MetricsCollector, seconds: f64) -> DeliverySample {
        let period = self.config(0).round_period();
        let from = TimeMs::ZERO + period * self.warmup_rounds;
        let last = self.warmup_rounds + self.measure_rounds(seconds) - self.settle_rounds;
        DeliverySample::collect(metrics, from, TimeMs::ZERO + period * last)
    }
}

/// The UDP runtime workload: 16 node threads on loopback, gossip period
/// 20 ms, 4 paced senders whose blocking backlog closes the loop.
#[derive(Debug, Clone)]
pub struct RtSpec {
    /// Workload name on the command line.
    pub name: &'static str,
    /// Node threads.
    pub n_nodes: usize,
    /// Aggregate offered rate, msgs/s.
    pub offered_rate: f64,
    /// Senders (nodes `0..n_senders`).
    pub n_senders: usize,
    /// Wall time before the window (adaptation settles).
    pub warmup: std::time::Duration,
    /// Wall time after the window so window messages finish spreading.
    pub drain: std::time::Duration,
    /// Cluster starts timed for `setup_s` (the last one is run).
    pub setup_reps: usize,
    /// Smallest acceptable `atomic_frac`.
    pub atomic_floor: f64,
}

impl RtSpec {
    /// The runtime cluster configuration.
    pub fn config(&self, seed: u64) -> RuntimeClusterConfig {
        let mut c = RuntimeClusterConfig::quick(self.n_nodes, seed);
        c.adaptive = true;
        c.gossip = GossipConfig::default();
        c.gossip.fanout = 4;
        c.gossip.gossip_period = DurationMs::from_millis(20);
        // Adaptation on the same round scale as the simulator (a min-buff
        // sample period of six rounds), starting from the offered rate.
        c.adaptation.min_buff.sample_period = DurationMs::from_millis(120);
        c.adaptation.initial_rate = 250.0;
        c.n_senders = self.n_senders;
        c.offered_rate = self.offered_rate;
        c.payload_size = 64;
        c.transport = TransportKind::Udp;
        c.metrics_bin = DurationMs::from_millis(100);
        c.recovery = Some(RecoveryConfig::default());
        c
    }
}

/// One of the benchmark's workloads.
#[derive(Debug, Clone)]
pub enum Workload {
    /// Deterministic simulator run.
    Sim(SimSpec),
    /// Wall-clock UDP runtime run.
    Rt(RtSpec),
}

/// The smoke-test size of a simulator workload: a few hundred nodes and
/// a short warm-up, same protocol and network.
fn tiny_sim(spec: SimSpec, n_nodes: usize) -> SimSpec {
    SimSpec {
        n_nodes,
        warmup_rounds: 3,
        rounds_per_second: 2.0,
        setup_reps: 3,
        atomic_floor: 0.5,
        ..spec
    }
}

/// Looks a workload up by name; `tiny` shrinks it for the smoke test.
pub fn workload(name: &str, tiny: bool) -> Option<Workload> {
    let sim_10k = SimSpec {
        name: "sim-10k",
        n_nodes: 10_000,
        loss: 0.0,
        recovery: false,
        warmup_rounds: 24,
        rounds_per_second: 1.2,
        settle_rounds: 11,
        setup_reps: 25,
        atomic_floor: 0.9,
    };
    let sim_lossy = SimSpec {
        name: "sim-lossy",
        n_nodes: 2_000,
        loss: 0.05,
        recovery: true,
        warmup_rounds: 22,
        rounds_per_second: 4.2,
        setup_reps: 101,
        ..sim_10k.clone()
    };
    let w = match name {
        "sim-10k" if tiny => Workload::Sim(tiny_sim(sim_10k, 300)),
        "sim-10k" => Workload::Sim(sim_10k),
        "sim-lossy" if tiny => Workload::Sim(tiny_sim(sim_lossy, 200)),
        "sim-lossy" => Workload::Sim(sim_lossy),
        "rt-udp" => Workload::Rt(RtSpec {
            name: "rt-udp",
            n_nodes: if tiny { 4 } else { 16 },
            offered_rate: 750.0,
            n_senders: 4,
            warmup: std::time::Duration::from_millis(if tiny { 300 } else { 3_000 }),
            drain: std::time::Duration::from_millis(if tiny { 300 } else { 1_000 }),
            setup_reps: if tiny { 3 } else { 61 },
            atomic_floor: if tiny { 0.5 } else { 0.95 },
        }),
        _ => return None,
    };
    Some(w)
}

/// Reliability and latency of the messages admitted inside the window.
#[derive(Debug, Clone)]
pub struct DeliverySample {
    /// Messages admitted at their origin inside the window.
    pub messages: u64,
    /// Deliveries those messages should have made (`messages × n`).
    pub expected: u64,
    /// Deliveries they made.
    pub delivered: u64,
    /// Messages delivered to more than 95% of the group.
    pub atomic: u64,
    /// Admission → last delivery of every atomic message (delivered to
    /// more than 95% of the group), ms, sorted.
    pub complete_ms: Vec<f64>,
}

impl DeliverySample {
    /// Collects the sample over messages admitted in `[from, to)`.
    pub fn collect(metrics: &MetricsCollector, from: TimeMs, to: TimeMs) -> Self {
        let n = metrics.n_nodes();
        let mut sample = DeliverySample {
            messages: 0,
            expected: 0,
            delivered: 0,
            atomic: 0,
            complete_ms: Vec::new(),
        };
        for (_, rec) in metrics.deliveries().iter() {
            let Some(at) = rec.admitted_at else { continue };
            if at < from || at >= to {
                continue;
            }
            let receivers = rec.receiver_count();
            sample.messages += 1;
            sample.expected += n as u64;
            sample.delivered += receivers as u64;
            if receivers as f64 > 0.95 * n as f64 {
                sample.atomic += 1;
                let last = rec
                    .last_delivery
                    .expect("a delivered message has a last delivery");
                sample.complete_ms.push(last.since(at).as_millis() as f64);
            }
        }
        sample.complete_ms.sort_by(f64::total_cmp);
        sample
    }

    /// Writes the reliability and latency metrics next to the window's
    /// admission rate.
    pub fn write(&self, out: &mut JsonObject, admitted_per_s: f64) {
        assert!(self.messages > 0, "no message was admitted in the window");
        assert!(
            !self.complete_ms.is_empty(),
            "no window message reached 95% of the group"
        );
        let c = &self.complete_ms;
        let mean = c.iter().sum::<f64>() / c.len() as f64;
        out.metric("admitted_per_s", admitted_per_s, "1/s")
            .metric(
                "atomic_frac",
                self.atomic as f64 / self.messages as f64,
                "frac",
            )
            .metric(
                "avg_receiver_frac",
                self.delivered as f64 / self.expected as f64,
                "frac",
            )
            .metric("complete_ms.mean", mean, "ms")
            .metric("complete_ms.p95", quantile(c, 0.95), "ms")
            .metric("complete_ms.p99", quantile(c, 0.99), "ms")
            .metric("messages", c.len() as f64, "count");
    }

    /// The operation counts of the result line: one expected delivery is
    /// one operation.
    pub fn write_counts(&self, out: &mut JsonObject, atomic_floor: f64) {
        out.int("attempted", self.expected)
            .int("failed", self.expected - self.delivered)
            .int("window_messages", self.messages)
            .int("window_atomic", self.atomic)
            .num("atomic_floor", atomic_floor);
    }
}

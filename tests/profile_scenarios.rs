//! Acceptance scenarios for the profiling plane (`agb-profile`): the
//! profiler is a pure observer (engine fingerprints are identical with
//! profiling on and off, at K = 1 and K = 4), memory attribution is
//! deterministic at every thread count, and the per-node resident
//! footprint of a 10k-node run stays bounded.

use adaptive_gossip::experiments::profile::profile_cluster;
use adaptive_gossip::profile::{MemUsage, Phase, ProfileConfig};
use adaptive_gossip::recovery::RecoveryConfig;
use adaptive_gossip::sim::NetStats;
use adaptive_gossip::types::TimeMs;
use adaptive_gossip::workload::{Algorithm, ClusterConfig, GossipCluster};
use proptest::prelude::*;

fn cluster_config(seed: u64, threads: usize, loss: f64, recovery: bool) -> ClusterConfig {
    let mut c = if loss > 0.0 {
        ClusterConfig::lossy(20, seed, loss)
    } else {
        ClusterConfig::new(20, seed)
    };
    c.algorithm = Algorithm::Adaptive;
    c.gossip.fanout = 3;
    c.gossip.max_events = 20;
    c.n_senders = 3;
    c.offered_rate = 6.0;
    c.threads = threads;
    if recovery {
        c.recovery = Some(RecoveryConfig::default());
    }
    c
}

/// Everything observable about the engine side of a run.
type Fingerprint = (NetStats, usize, u64, u64, u64, u64);

fn fingerprint(cluster: &GossipCluster) -> Fingerprint {
    let stats = cluster.sim_stats();
    let m = cluster.metrics();
    (
        stats,
        cluster.peak_queue_depth(),
        cluster.events_processed(),
        m.admitted().total(),
        m.delivered().total(),
        m.recovery().recovered(),
    )
}

fn run_cluster(
    seed: u64,
    threads: usize,
    loss: f64,
    recovery: bool,
    profiled: bool,
) -> (Fingerprint, GossipCluster) {
    let mut config = cluster_config(seed, threads, loss, recovery);
    if profiled {
        config.profile = ProfileConfig::enabled();
    }
    let mut cluster = GossipCluster::build(config);
    // Tiny threshold: with 20 nodes the worker path must actually run.
    cluster.set_parallel_threshold(2);
    cluster.run_until(TimeMs::from_secs(12));
    (fingerprint(&cluster), cluster)
}

/// The memory table flattened for equality assertions.
fn mem_rows(cluster: &GossipCluster) -> Vec<(String, MemUsage)> {
    cluster.mem_table().rows().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// For random seeds, with and without loss and recovery: enabling
    /// the profiler never changes engine results, at K = 1 or K = 4 —
    /// and the memory attribution is identical across those thread
    /// counts (it feeds the committed `PROFILE.json` digest).
    #[test]
    fn profiling_is_a_pure_observer_at_every_thread_count(
        seed in any::<u64>(),
        loss in 0.0f64..0.2,
        recovery in any::<bool>(),
    ) {
        let (oracle, plain) = run_cluster(seed, 1, loss, recovery, false);
        prop_assert!(plain.profiler_snapshot().is_none(), "unprofiled run must have no profiler");
        prop_assert!(oracle.0.deliveries > 0, "run too quiet to be a meaningful oracle");
        let mut tables = Vec::new();
        for k in [1usize, 4] {
            let (unprofiled, _) = run_cluster(seed, k, loss, recovery, false);
            prop_assert_eq!(&unprofiled, &oracle, "unprofiled K={} diverged", k);
            let (profiled, cluster) = run_cluster(seed, k, loss, recovery, true);
            prop_assert_eq!(&profiled, &oracle, "profiled K={} changed engine results", k);
            let snapshot = cluster.profiler_snapshot().expect("profiling enabled");
            prop_assert!(
                snapshot.phase(Phase::ShardExec).total_ns > 0,
                "profiler saw no handler execution"
            );
            tables.push(mem_rows(&cluster));
        }
        prop_assert_eq!(&tables[0], &tables[1], "memory attribution must not depend on K");
    }
}

/// The memory-regression gate: a quick 10k-node adaptive + recovery run
/// (the `repro profile` n10000 leg) keeps its estimated resident
/// footprint under a fixed per-node cap. The estimate is deterministic,
/// so this either always passes or always fails for a given code state —
/// a subsystem that starts hoarding events or ids moves the number and
/// trips the cap.
#[test]
fn n10000_per_node_resident_bytes_stay_bounded() {
    // At most 1.25x the committed n10000 row of PROFILE.json (30,507
    // bytes per node): a view or id history that grows back toward its
    // old size trips it, and so does a node-count-scaling blowup.
    const PER_NODE_CAP_BYTES: u64 = 37 * 1024;

    let mut cluster = GossipCluster::build(profile_cluster(10_000, true, 42));
    cluster.run_until(TimeMs::from_secs(8));
    let mem = cluster.mem_table();
    let per_node = mem.bytes_per_node();
    assert!(per_node > 0, "nothing attributed");
    assert!(
        per_node <= PER_NODE_CAP_BYTES,
        "per-node resident estimate grew to {per_node} bytes (cap {PER_NODE_CAP_BYTES}); \
         subsystems: {:?}",
        mem.rows()
    );
    // The big resident structures are all represented.
    let labels: Vec<_> = mem.rows().iter().map(|(l, _)| l.as_str()).collect();
    for expected in [
        "engine_event_queue",
        "event_buffer",
        "event_ids",
        "membership_view",
        "retransmission_cache",
    ] {
        assert!(
            labels.contains(&expected),
            "missing subsystem {expected}: {labels:?}"
        );
    }
}

/// Two identical profiled runs agree on checksum and memory table —
/// the property the committed `PROFILE.json` reference and the CI
/// profile-smoke job rely on.
#[test]
fn profile_attribution_is_reproducible() {
    let run = || {
        let mut cluster = GossipCluster::build(profile_cluster(1_000, true, 42));
        cluster.run_until(TimeMs::from_secs(8));
        (cluster.sim_stats().checksum, mem_rows(&cluster))
    };
    assert_eq!(run(), run());
}

/// Guard against the N² term coming back: a full-membership cluster of
/// 100,000 nodes holds each node's view in O(1) bytes. A list-backed
/// view costs 4·n bytes per node, 40 GB for this cluster, so with one
/// this test could not even build its cluster.
#[test]
fn full_membership_views_are_o1_per_node_at_n100000() {
    const N: u64 = 100_000;
    let cluster = GossipCluster::build(profile_cluster(N as usize, false, 42));
    let mem = cluster.mem_table();
    let (_, view) = mem
        .rows()
        .iter()
        .find(|(label, _)| label == "membership_view")
        .expect("membership_view row");
    assert!(
        view.bytes <= 16 * N,
        "membership views hold {} bytes per node",
        view.bytes / N
    );
}

//! In-memory span recorder for the traced run.
//!
//! Every adapter wraps a call into a layer with [`span`]. A span knows
//! its layer, its operation, its start and end, its parent (the span
//! open around it) and the round it ran in. Spans are not kept one by
//! one: on close each is folded into per-operation totals and per-round
//! per-layer self times, which [`write_rounds`] writes out at the end.
//! A span's self time is its duration minus the time its child spans
//! cover; allocations from the counting allocator are split the same
//! way. The engine runs at one thread, so one thread-local recorder sees
//! every span.

use std::cell::RefCell;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use agb_perf::alloc::allocation_count;

/// The layers spans are attributed to, named after the crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `agb-sim`: the engine's own work (queue, network model, routing).
    Sim,
    /// `agb-workload`: the node glue (sender pacing, sends, event drain).
    Workload,
    /// The outer `FrameProtocol`: `agb-recovery` when it is configured.
    Recovery,
    /// `agb-core`: the adaptive lpbcast state machine.
    Core,
    /// `agb-membership`: the peer sampler.
    Membership,
    /// `agb-metrics`: the collector the engine hook feeds.
    Metrics,
}

/// Layer names, indexed by `Layer as usize`.
pub const LAYER_NAMES: [&str; 6] = [
    "sim",
    "workload",
    "recovery",
    "core",
    "membership",
    "metrics",
];

/// Operations spans are kept apart by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// One engine round (`run_until` to the next round boundary).
    Round,
    /// A node handler: start, timer or message.
    Handler,
    /// `offer`.
    Offer,
    /// `on_round`.
    OnRound,
    /// `on_receive`.
    OnReceive,
    /// `drain_events_into`.
    Drain,
    /// `PeerSampler::sample`.
    Sample,
    /// Any other membership call (digest, observe, round tick).
    Other,
    /// `MetricsCollector::on_events`.
    OnEvents,
}

const N_LAYERS: usize = 6;
const N_OPS: usize = 9;

/// Totals of one (layer, operation) pair inside the measured window.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpStats {
    /// Spans closed.
    pub calls: u64,
    /// Self nanoseconds.
    pub self_ns: u64,
    /// Self allocations.
    pub self_allocs: u64,
}

struct Open {
    layer: Layer,
    op: Op,
    start: Instant,
    allocs: u64,
    child_ns: u64,
    child_allocs: u64,
}

struct Recorder {
    stack: Vec<Open>,
    window: bool,
    round: usize,
    ops: [[OpStats; N_OPS]; N_LAYERS],
    /// Self nanoseconds per round (index 0 is set-up) and layer.
    rounds: Vec<[u64; N_LAYERS]>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = const {
        RefCell::new(Recorder {
            stack: Vec::new(),
            window: false,
            round: 0,
            ops: [[OpStats { calls: 0, self_ns: 0, self_allocs: 0 }; N_OPS]; N_LAYERS],
            rounds: Vec::new(),
        })
    };
}

/// Runs `f` inside a span of `layer`/`op`.
pub fn span<R>(layer: Layer, op: Op, f: impl FnOnce() -> R) -> R {
    let allocs = allocation_count();
    let start = Instant::now();
    RECORDER.with_borrow_mut(|r| {
        r.stack.push(Open {
            layer,
            op,
            start,
            allocs,
            child_ns: 0,
            child_allocs: 0,
        })
    });
    let result = f();
    let end = Instant::now();
    let allocs = allocation_count();
    RECORDER.with_borrow_mut(|r| {
        let open = r.stack.pop().expect("span stack underflow");
        debug_assert!(open.layer == layer && open.op == op);
        let total_ns = end.duration_since(open.start).as_nanos() as u64;
        let total_allocs = allocs - open.allocs;
        if let Some(parent) = r.stack.last_mut() {
            parent.child_ns += total_ns;
            parent.child_allocs += total_allocs;
        }
        let self_ns = total_ns.saturating_sub(open.child_ns);
        let round = r.round;
        if r.rounds.len() <= round {
            r.rounds.resize(round + 1, [0; N_LAYERS]);
        }
        r.rounds[round][layer as usize] += self_ns;
        if r.window {
            let s = &mut r.ops[layer as usize][op as usize];
            s.calls += 1;
            s.self_ns += self_ns;
            s.self_allocs += total_allocs.saturating_sub(open.child_allocs);
        }
    });
    result
}

/// Sets the round later spans belong to.
pub fn set_round(round: u64) {
    RECORDER.with_borrow_mut(|r| r.round = round as usize);
}

/// Opens or closes the measured window: only spans closed inside it
/// count toward the per-operation totals.
pub fn set_window(open: bool) {
    RECORDER.with_borrow_mut(|r| r.window = open);
}

/// Whether the measured window is open.
pub fn in_window() -> bool {
    RECORDER.with_borrow(|r| r.window)
}

/// Window totals of one (layer, operation) pair.
pub fn op(layer: Layer, op: Op) -> OpStats {
    RECORDER.with_borrow(|r| r.ops[layer as usize][op as usize])
}

/// Window totals of a layer over all its operations.
pub fn layer(layer: Layer) -> OpStats {
    RECORDER.with_borrow(|r| {
        r.ops[layer as usize]
            .iter()
            .fold(OpStats::default(), |acc, s| OpStats {
                calls: acc.calls + s.calls,
                self_ns: acc.self_ns + s.self_ns,
                self_allocs: acc.self_allocs + s.self_allocs,
            })
    })
}

/// Writes per-round self milliseconds by layer as a TSV table.
pub fn write_rounds(path: &Path) -> std::io::Result<()> {
    let mut text = format!(
        "round\t{}\n",
        LAYER_NAMES.map(|l| format!("{l}_ms")).join("\t")
    );
    RECORDER.with_borrow(|r| {
        for (k, row) in r.rounds.iter().enumerate() {
            let cells: Vec<String> = row
                .iter()
                .map(|ns| format!("{:.3}", *ns as f64 / 1e6))
                .collect();
            text.push_str(&format!("{k}\t{}\n", cells.join("\t")));
        }
    });
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::fs::File::create(path)?;
    file.write_all(text.as_bytes())?;
    file.sync_all()
}

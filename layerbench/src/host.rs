//! The traced simulator run: a replay host that builds every node the
//! way `ClusterConfig::make_protocol` does and wraps each layer in a
//! timing adapter.
//!
//! * [`TimedMembership`] sits between the core and its `FullView`;
//! * [`TimedCore`] is the inner `GossipProtocol` handed to
//!   `boxed_frame_protocol` (and so to `RecoverableNode::new`);
//! * [`TimedFrame`] wraps the outer `FrameProtocol`;
//! * the engine hook times `MetricsCollector::on_events`.
//!
//! [`HostNode`] replays `ClusterNode` for this configuration (full
//! membership, synchronized rounds, no probes, no detector) on
//! `SimulationBuilder` at one thread, with the same timer ids, seeds and
//! call order, so the replay reproduces the timed run's engine checksum
//! and counts.

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use agb_core::{
    AdaptiveNode, FrameProtocol, GossipFrame, GossipMessage, GossipProtocol, OfferOutcome,
    ProtocolEvent,
};
use agb_membership::{FullView, GossipMembership, MembershipDigest, PeerSampler};
use agb_metrics::MetricsCollector;
use agb_profile::MemUsage;
use agb_recovery::boxed_frame_protocol;
use agb_runtime::wire;
use agb_sim::{SimCtx, SimNode, Simulation, SimulationBuilder, TimerId};
use agb_types::{DetRng, DurationMs, NodeId, Payload, SeedSequence, TimeMs};
use agb_workload::{SenderModel, SenderProcess};

use crate::simrun::{round_end, write_sim_counts};
use crate::spans::{self, span, Layer, Op};
use crate::sys::{median_slice, process_cpu_secs, JsonObject, Slice, SpeedProbe};
use crate::workloads::SimSpec;

/// Counts taken at the adapter boundaries inside the window.
#[derive(Default)]
struct Counts {
    node_rounds: Cell<u64>,
    event_copies: Cell<u64>,
    deliveries: Cell<u64>,
    drops: Cell<u64>,
    requested_ids: Cell<u64>,
    recovered: Cell<u64>,
    served: Cell<u64>,
    missed: Cell<u64>,
    control_frames: Cell<u64>,
    frames_out: Cell<u64>,
}

/// Every this many outgoing frames one is kept for the codec leg.
const CAPTURE_EVERY: u64 = 53;
/// Most frames kept for the codec leg.
const CAPTURE_MAX: usize = 4_000;

thread_local! {
    static COUNTS: Counts = Counts::default();
    static CAPTURED: RefCell<Vec<GossipFrame>> = const { RefCell::new(Vec::new()) };
}

fn bump(field: impl Fn(&Counts) -> &Cell<u64>, by: u64) {
    COUNTS.with(|c| {
        let cell = field(c);
        cell.set(cell.get() + by);
    });
}

fn count(field: impl Fn(&Counts) -> &Cell<u64>) -> u64 {
    COUNTS.with(|c| field(c).get())
}

/// `FullView` behind a timing adapter.
pub struct TimedMembership<S>(S);

impl<S: PeerSampler> PeerSampler for TimedMembership<S> {
    fn sample(&self, rng: &mut DetRng, fanout: usize, exclude: NodeId) -> Vec<NodeId> {
        span(Layer::Membership, Op::Sample, || {
            self.0.sample(rng, fanout, exclude)
        })
    }

    fn contains(&self, node: NodeId) -> bool {
        self.0.contains(node)
    }

    fn view_size(&self) -> usize {
        self.0.view_size()
    }

    fn view(&self) -> Vec<NodeId> {
        self.0.view()
    }
}

impl<S: GossipMembership> GossipMembership for TimedMembership<S> {
    fn make_digest(&self, rng: &mut DetRng) -> MembershipDigest {
        span(Layer::Membership, Op::Other, || self.0.make_digest(rng))
    }

    fn observe_gossip(&mut self, sender: NodeId, digest: &MembershipDigest, rng: &mut DetRng) {
        span(Layer::Membership, Op::Other, || {
            self.0.observe_gossip(sender, digest, rng)
        })
    }

    fn evict(&mut self, node: NodeId, rng: &mut DetRng) {
        self.0.evict(node, rng);
    }

    fn on_round(&mut self) {
        span(Layer::Membership, Op::Other, || self.0.on_round())
    }

    fn make_leave_digest(&self) -> MembershipDigest {
        self.0.make_leave_digest()
    }
}

/// The core protocol behind a timing adapter; every method forwards.
pub struct TimedCore<P>(P);

impl<P: GossipProtocol> GossipProtocol for TimedCore<P> {
    fn node_id(&self) -> NodeId {
        self.0.node_id()
    }

    fn offer(&mut self, payload: Payload, now: TimeMs) -> OfferOutcome {
        span(Layer::Core, Op::Offer, || self.0.offer(payload, now))
    }

    fn on_round(&mut self, now: TimeMs) -> Vec<(NodeId, GossipMessage)> {
        span(Layer::Core, Op::OnRound, || self.0.on_round(now))
    }

    fn on_receive(&mut self, from: NodeId, msg: GossipMessage, now: TimeMs) {
        if spans::in_window() {
            bump(|c| &c.event_copies, msg.events.len() as u64);
        }
        span(Layer::Core, Op::OnReceive, || {
            self.0.on_receive(from, msg, now)
        })
    }

    fn drain_events(&mut self) -> Vec<ProtocolEvent> {
        span(Layer::Core, Op::Drain, || self.0.drain_events())
    }

    fn drain_events_into(&mut self, out: &mut Vec<ProtocolEvent>) {
        span(Layer::Core, Op::Drain, || self.0.drain_events_into(out))
    }

    fn set_buffer_capacity(&mut self, capacity: usize, now: TimeMs) {
        self.0.set_buffer_capacity(capacity, now);
    }

    fn buffer_capacity(&self) -> usize {
        self.0.buffer_capacity()
    }

    fn buffer_len(&self) -> usize {
        self.0.buffer_len()
    }

    fn allowed_rate(&self) -> Option<f64> {
        self.0.allowed_rate()
    }

    fn pending_len(&self) -> usize {
        self.0.pending_len()
    }

    fn gossip_period(&self) -> DurationMs {
        self.0.gossip_period()
    }

    fn avg_age(&self) -> Option<f64> {
        self.0.avg_age()
    }

    fn avg_tokens(&self) -> Option<f64> {
        self.0.avg_tokens()
    }

    fn min_buff_estimate(&self) -> Option<u32> {
        self.0.min_buff_estimate()
    }

    fn membership_view(&self) -> Vec<NodeId> {
        self.0.membership_view()
    }

    fn leave(&mut self, now: TimeMs) -> Vec<(NodeId, GossipMessage)> {
        self.0.leave(now)
    }

    fn evict_peer(&mut self, node: NodeId) {
        self.0.evict_peer(node);
    }

    fn mem_breakdown(&self) -> Vec<(&'static str, MemUsage)> {
        self.0.mem_breakdown()
    }
}

/// The outer frame protocol behind a timing adapter. It also counts the
/// frames the node sends and keeps a sample of them for the codec leg.
pub struct TimedFrame(Box<dyn FrameProtocol + Send>);

impl TimedFrame {
    fn outgoing(frames: &[(NodeId, GossipFrame)]) {
        if !spans::in_window() || frames.is_empty() {
            return;
        }
        let before = count(|c| &c.frames_out);
        let control = frames
            .iter()
            .filter(|(_, f)| !matches!(f, GossipFrame::Gossip { .. }))
            .count();
        bump(|c| &c.frames_out, frames.len() as u64);
        bump(|c| &c.control_frames, control as u64);
        CAPTURED.with_borrow_mut(|kept| {
            for (i, (_, frame)) in frames.iter().enumerate() {
                if (before + i as u64).is_multiple_of(CAPTURE_EVERY) && kept.len() < CAPTURE_MAX {
                    kept.push(frame.clone());
                }
            }
        });
    }

    fn observe(events: &[ProtocolEvent]) {
        if !spans::in_window() {
            return;
        }
        for e in events {
            match e {
                ProtocolEvent::Delivered { .. } => bump(|c| &c.deliveries, 1),
                ProtocolEvent::Dropped { .. } => bump(|c| &c.drops, 1),
                ProtocolEvent::RecoveryRequested { ids, .. } => {
                    bump(|c| &c.requested_ids, *ids as u64)
                }
                ProtocolEvent::RecoveryServed { events, missed, .. } => {
                    bump(|c| &c.served, *events as u64);
                    bump(|c| &c.missed, *missed as u64);
                }
                ProtocolEvent::Recovered { .. } => bump(|c| &c.recovered, 1),
                _ => {}
            }
        }
    }
}

impl FrameProtocol for TimedFrame {
    fn node_id(&self) -> NodeId {
        self.0.node_id()
    }

    fn offer(&mut self, payload: Payload, now: TimeMs) -> OfferOutcome {
        span(Layer::Recovery, Op::Offer, || self.0.offer(payload, now))
    }

    fn on_round(&mut self, now: TimeMs) -> Vec<(NodeId, GossipFrame)> {
        let out = span(Layer::Recovery, Op::OnRound, || self.0.on_round(now));
        Self::outgoing(&out);
        out
    }

    fn on_receive(
        &mut self,
        from: NodeId,
        frame: GossipFrame,
        now: TimeMs,
    ) -> Vec<(NodeId, GossipFrame)> {
        let out = span(Layer::Recovery, Op::OnReceive, || {
            self.0.on_receive(from, frame, now)
        });
        Self::outgoing(&out);
        out
    }

    fn drain_events(&mut self) -> Vec<ProtocolEvent> {
        let events = span(Layer::Recovery, Op::Drain, || self.0.drain_events());
        Self::observe(&events);
        events
    }

    fn drain_events_into(&mut self, out: &mut Vec<ProtocolEvent>) {
        let start = out.len();
        span(Layer::Recovery, Op::Drain, || self.0.drain_events_into(out));
        Self::observe(&out[start..]);
    }

    fn set_buffer_capacity(&mut self, capacity: usize, now: TimeMs) {
        self.0.set_buffer_capacity(capacity, now);
    }

    fn buffer_capacity(&self) -> usize {
        self.0.buffer_capacity()
    }

    fn buffer_len(&self) -> usize {
        self.0.buffer_len()
    }

    fn allowed_rate(&self) -> Option<f64> {
        self.0.allowed_rate()
    }

    fn pending_len(&self) -> usize {
        self.0.pending_len()
    }

    fn gossip_period(&self) -> DurationMs {
        self.0.gossip_period()
    }

    fn avg_age(&self) -> Option<f64> {
        self.0.avg_age()
    }

    fn avg_tokens(&self) -> Option<f64> {
        self.0.avg_tokens()
    }

    fn min_buff_estimate(&self) -> Option<u32> {
        self.0.min_buff_estimate()
    }

    fn membership_view(&self) -> Vec<NodeId> {
        self.0.membership_view()
    }

    fn leave(&mut self, now: TimeMs) -> Vec<(NodeId, GossipFrame)> {
        self.0.leave(now)
    }

    fn evict_peer(&mut self, node: NodeId) {
        self.0.evict_peer(node);
    }

    fn mem_breakdown(&self) -> Vec<(&'static str, MemUsage)> {
        self.0.mem_breakdown()
    }
}

const ROUND: TimerId = TimerId(1);
const ARRIVAL: TimerId = TimerId(2);

/// One replayed host: `ClusterNode` without probes or a detector.
pub struct HostNode {
    protocol: TimedFrame,
    sender: Option<SenderProcess>,
    payload: Payload,
    period: DurationMs,
    pending_events: Vec<ProtocolEvent>,
}

impl HostNode {
    fn drain(&mut self) {
        self.protocol.drain_events_into(&mut self.pending_events);
    }

    fn flush(&mut self, collector: &mut MetricsCollector) {
        if self.pending_events.is_empty() {
            return;
        }
        let node = self.protocol.node_id();
        span(Layer::Metrics, Op::OnEvents, || {
            collector.on_events(node, &self.pending_events)
        });
        self.pending_events.clear();
    }

    fn arm_arrival(&self, ctx: &mut SimCtx<'_, GossipFrame>) {
        if let Some(sender) = &self.sender {
            ctx.set_timer(ARRIVAL, sender.next_at().since(ctx.now()));
        }
    }
}

impl SimNode for HostNode {
    type Msg = GossipFrame;

    fn on_start(&mut self, ctx: &mut SimCtx<'_, GossipFrame>) {
        span(Layer::Workload, Op::Handler, || {
            ctx.set_periodic_timer(ROUND, self.period, self.period);
            self.arm_arrival(ctx);
        })
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut SimCtx<'_, GossipFrame>) {
        span(Layer::Workload, Op::Handler, || match timer {
            ROUND => {
                if spans::in_window() {
                    bump(|c| &c.node_rounds, 1);
                }
                for (to, frame) in self.protocol.on_round(ctx.now()) {
                    ctx.send(to, frame);
                }
                self.arm_arrival(ctx);
                self.drain();
            }
            ARRIVAL => {
                let now = ctx.now();
                if let Some(sender) = &mut self.sender {
                    let offers = sender.poll(now, self.protocol.pending_len());
                    for _ in 0..offers {
                        self.protocol.offer(self.payload.clone(), now);
                    }
                    ctx.set_timer(ARRIVAL, sender.next_at().since(now));
                }
                self.drain();
            }
            _ => {}
        })
    }

    fn on_message(&mut self, from: NodeId, frame: GossipFrame, ctx: &mut SimCtx<'_, GossipFrame>) {
        span(Layer::Workload, Op::Handler, || {
            for (to, reply) in self.protocol.on_receive(from, frame, ctx.now()) {
                ctx.send(to, reply);
            }
            self.drain();
        })
    }
}

/// Builds the traced simulation for `spec` and its shared collector.
fn build(spec: &SimSpec, seed: u64) -> (Simulation<HostNode>, Rc<RefCell<MetricsCollector>>) {
    let config = spec.config(seed);
    let seeds = SeedSequence::new(config.seed);
    let metrics = Rc::new(RefCell::new(MetricsCollector::new(
        config.n_nodes,
        config.metrics_bin,
    )));
    let payload = Payload::from(vec![0u8; config.payload_size]);
    let per_sender_rate = config.offered_rate / config.n_senders as f64;
    let period = config.round_period();
    let nodes = (0..config.n_nodes)
        .map(|i| {
            let id = NodeId::new(i as u32);
            let rng: DetRng = seeds.rng_for("protocol", i as u64);
            let core = AdaptiveNode::new(
                id,
                config.gossip.clone(),
                config.adaptation.clone(),
                TimedMembership(FullView::new(config.n_nodes)),
                rng,
            );
            let protocol = TimedFrame(boxed_frame_protocol(
                TimedCore(core),
                config.recovery.clone(),
            ));
            let sender = (i < config.n_senders).then(|| {
                metrics
                    .borrow_mut()
                    .set_initial_rate(id, config.adaptation.initial_rate);
                SenderProcess::new(
                    SenderModel::Constant {
                        rate: per_sender_rate,
                    },
                    TimeMs::ZERO,
                    seeds.rng_for("sender", i as u64),
                )
                .with_max_backlog(config.max_backlog)
            });
            HostNode {
                protocol,
                sender,
                payload: payload.clone(),
                period,
                pending_events: Vec::new(),
            }
        })
        .collect();
    let mut sim = SimulationBuilder::new(seeds.seed_for("sim", 0))
        .network(config.network.clone())
        .threads(1)
        .build(nodes);
    let hook_metrics = Rc::clone(&metrics);
    sim.set_post_event_hook(Box::new(move |node: &mut HostNode| {
        node.flush(&mut hook_metrics.borrow_mut());
    }));
    (sim, metrics)
}

/// Times the wire codec on the captured frames after checking that each
/// one round-trips. Returns (encode ns/frame, decode ns/frame, bytes/frame).
fn codec_leg(frames: &[GossipFrame]) -> (f64, f64, f64) {
    assert!(!frames.is_empty(), "no frames captured for the codec leg");
    let mut encoder = wire::FrameEncoder::default();
    let encoded: Vec<_> = frames.iter().map(|f| encoder.encode(f)).collect();
    for (frame, bytes) in frames.iter().zip(&encoded) {
        let back = wire::decode_frame(bytes).expect("a captured frame decodes");
        assert!(&back == frame, "a captured frame did not round-trip");
    }
    let bytes: usize = encoded.iter().map(|b| b.len()).sum();
    // Whole passes over the sample until 0.3 s has gone by, per side.
    let time = |mut pass: Box<dyn FnMut()>| {
        let started = Instant::now();
        let mut passes = 0u64;
        while passes < 3 || started.elapsed().as_secs_f64() < 0.3 {
            pass();
            passes += 1;
        }
        started.elapsed().as_nanos() as f64 / (passes * frames.len() as u64) as f64
    };
    let encode_ns = time(Box::new(|| {
        for f in frames {
            black_box(encoder.encode(black_box(f)));
        }
    }));
    let decode_ns = time(Box::new(|| {
        for b in &encoded {
            black_box(wire::decode_frame(black_box(b)).expect("decodes"));
        }
    }));
    (encode_ns, decode_ns, bytes as f64 / frames.len() as f64)
}

/// Runs the traced replay of `spec` and returns its result object.
pub fn traced(spec: &SimSpec, seed: u64, seconds: f64, out_dir: Option<&Path>) -> JsonObject {
    let (mut sim, metrics) = build(spec, seed);
    let n = spec.n_nodes as u64;
    let period = spec.config(seed).round_period();
    let warmup = spec.warmup_rounds;
    let measured = spec.measure_rounds(seconds);
    let run_round = |sim: &mut Simulation<HostNode>, k: u64| {
        spans::set_round(k);
        span(Layer::Sim, Op::Round, || {
            sim.run_until(round_end(period, k))
        });
    };
    for k in 1..=warmup {
        run_round(&mut sim, k);
    }
    sim.reset_peak_pending_events();
    let before_events = sim.events_processed();
    spans::set_window(true);
    let mut slices = Vec::with_capacity(measured as usize);
    let mut probe = SpeedProbe::new();
    for k in warmup + 1..=warmup + measured {
        let events = sim.events_processed();
        let delivered = metrics.borrow().delivered().total();
        let cpu = process_cpu_secs();
        let started = Instant::now();
        run_round(&mut sim, k);
        slices.push(Slice {
            wall: started.elapsed().as_secs_f64(),
            cpu: process_cpu_secs() - cpu,
            work: sim.events_processed() - events,
            deliveries: metrics.borrow().delivered().total() - delivered,
            // After the slice's own readings above.
            scale: probe.scale(),
        });
    }
    spans::set_window(false);
    let events = sim.events_processed() - before_events;
    let peak_queue = sim.peak_pending_events();
    let mut view_bytes = 0u64;
    for node in sim.nodes() {
        for (label, usage) in node.protocol.mem_breakdown() {
            if label == "membership_view" {
                view_bytes += usage.bytes;
            }
        }
    }
    if let Some(dir) = out_dir {
        let path = dir.join(format!("rounds-{}-seed{seed}.tsv", spec.name));
        spans::write_rounds(&path).expect("write the per-round span table");
    }

    let node_rounds = count(|c| &c.node_rounds);
    assert_eq!(
        node_rounds,
        measured * n,
        "every node runs every window round"
    );
    let nr = node_rounds as f64;
    let events_per_s = median_slice(&slices).work_per_cpu_s;
    let per_call_us = |layer, o| {
        let s = spans::op(layer, o);
        s.self_ns as f64 / s.calls.max(1) as f64 / 1e3
    };
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let sample_ops = spans::op(Layer::Membership, Op::Sample);
    let membership = spans::layer(Layer::Membership);
    let core = spans::layer(Layer::Core);
    let recovery = spans::layer(Layer::Recovery);
    let deliveries = count(|c| &c.deliveries);
    let (encode_ns, decode_ns, frame_bytes) = CAPTURED.with_borrow(|f| codec_leg(f));

    let mut layers = JsonObject::default();
    layers
        .metric(
            "sim.self_ms_per_round",
            spans::layer(Layer::Sim).self_ns as f64 / measured as f64 / 1e6,
            "ms",
        )
        .metric("sim.events_per_node_round", events as f64 / nr, "count")
        .metric("sim.peak_queue_depth", peak_queue as f64, "count")
        .metric(
            "workload.self_us_per_node_round",
            spans::layer(Layer::Workload).self_ns as f64 / nr / 1e3,
            "us",
        )
        .metric(
            "membership.sample_us",
            per_call_us(Layer::Membership, Op::Sample),
            "us",
        )
        .metric(
            "membership.samples_per_node_round",
            sample_ops.calls as f64 / nr,
            "count",
        )
        .metric(
            "membership.allocs_per_node_round",
            membership.self_allocs as f64 / nr,
            "count",
        )
        .metric(
            "membership.view_kb_per_node",
            view_bytes as f64 / n as f64 / 1024.0,
            "KB",
        )
        .metric(
            "core.on_round_us",
            per_call_us(Layer::Core, Op::OnRound),
            "us",
        )
        .metric(
            "core.on_receive_us",
            per_call_us(Layer::Core, Op::OnReceive),
            "us",
        )
        .metric("core.offer_us", per_call_us(Layer::Core, Op::Offer), "us")
        .metric("core.drain_us", per_call_us(Layer::Core, Op::Drain), "us")
        .metric(
            "core.allocs_per_node_round",
            core.self_allocs as f64 / nr,
            "count",
        )
        .metric(
            "core.useful_frac",
            ratio(deliveries, count(|c| &c.event_copies)),
            "frac",
        )
        .metric(
            "core.drops_per_round",
            count(|c| &c.drops) as f64 / nr,
            "count",
        )
        .metric(
            "recovery.self_us_per_node_round",
            recovery.self_ns as f64 / nr / 1e3,
            "us",
        )
        .metric(
            "recovery.allocs_per_node_round",
            recovery.self_allocs as f64 / nr,
            "count",
        )
        .metric(
            "recovery.useful_frac",
            ratio(count(|c| &c.recovered), count(|c| &c.requested_ids)),
            "frac",
        )
        .metric(
            "recovery.cache_miss_frac",
            ratio(
                count(|c| &c.missed),
                count(|c| &c.served) + count(|c| &c.missed),
            ),
            "frac",
        )
        .metric(
            "recovery.control_frames_per_delivery",
            ratio(count(|c| &c.control_frames), deliveries),
            "count",
        )
        .metric(
            "metrics.on_events_us_per_round",
            spans::layer(Layer::Metrics).self_ns as f64 / measured as f64 / 1e3,
            "us",
        )
        .metric("codec.encode_ns_per_frame", encode_ns, "ns")
        .metric("codec.decode_ns_per_frame", decode_ns, "ns")
        .metric("codec.bytes_per_frame", frame_bytes, "B")
        .metric(
            "trace.node_rounds_per_s",
            nr / events as f64 * events_per_s,
            "1/s",
        );

    let stats = sim.stats();
    let metrics = metrics.borrow();
    let sample = spec.sample(&metrics, seconds);
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

    let mut out = JsonObject::default();
    out.str("workload", spec.name)
        .int("seed", seed)
        .obj("layers", &layers)
        .obj("counts", &counts);
    out
}

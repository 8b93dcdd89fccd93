//! Property-based tests of the protocol building blocks.

use std::collections::HashSet;

use agb_core::{
    BuffAd, Event, EventBuffer, EventIdBuffer, KSmallestSet, MinBuffConfig, MinBuffEstimator,
    PurgeReason, TokenBucket,
};
use agb_types::{DurationMs, EventId, NodeId, Payload, TimeMs};
use proptest::prelude::*;

fn ev(origin: u32, seq: u64, age: u32) -> Event {
    Event::with_age(EventId::new(NodeId::new(origin), seq), age, Payload::new())
}

proptest! {
    /// The buffer never exceeds its capacity, no matter the insert stream.
    #[test]
    fn buffer_never_exceeds_capacity(
        capacity in 1usize..40,
        inserts in proptest::collection::vec((0u32..4, 0u64..200, 0u32..12), 0..200),
    ) {
        let mut buf = EventBuffer::new(capacity);
        for (origin, seq, age) in inserts {
            buf.insert(ev(origin, seq, age));
            prop_assert!(buf.len() <= capacity);
        }
    }

    /// Overflow eviction always removes a maximal-age event.
    #[test]
    fn buffer_evicts_a_maximal_age_event(
        capacity in 1usize..20,
        inserts in proptest::collection::vec((0u64..500, 0u32..12), 1..100),
    ) {
        let mut buf = EventBuffer::new(capacity);
        for (seq, age) in inserts {
            let ages_before: Vec<u32> = buf.iter().map(Event::age).collect();
            let max_before = ages_before.iter().copied().max().unwrap_or(0);
            let incoming = ev(0, seq, age);
            let was_new = !buf.contains(incoming.id());
            let purged = buf.insert(incoming);
            if was_new {
                for p in &purged {
                    prop_assert_eq!(p.reason, PurgeReason::Overflow);
                    prop_assert!(p.age >= max_before.min(p.age));
                    prop_assert!(p.age == max_before || p.age == age.max(max_before));
                }
            }
        }
    }

    /// `would_evict` predicts exactly what `set_capacity` then does.
    #[test]
    fn would_evict_predicts_shrink(
        capacity in 2usize..30,
        shrink_to in 0usize..30,
        inserts in proptest::collection::vec((0u64..100, 0u32..10), 0..60),
    ) {
        let mut buf = EventBuffer::new(capacity);
        for (seq, age) in inserts {
            buf.insert(ev(0, seq, age));
        }
        let predicted: Vec<EventId> = buf
            .would_evict(shrink_to, &agb_types::FastHashSet::default())
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        let actual: Vec<EventId> = buf
            .set_capacity(shrink_to)
            .into_iter()
            .map(|p| p.id)
            .collect();
        prop_assert_eq!(predicted, actual);
    }

    /// Duplicate suppression remembers at most `capacity` ids, FIFO.
    #[test]
    fn id_buffer_bounded_and_exact(
        capacity in 1usize..50,
        ids in proptest::collection::vec(0u64..100, 0..200),
    ) {
        let mut buf = EventIdBuffer::new(capacity);
        let mut model: Vec<u64> = Vec::new(); // insertion-ordered, unique
        for seq in ids {
            let id = EventId::new(NodeId::new(0), seq);
            let was_new = buf.insert(id);
            let model_new = !model.contains(&seq);
            prop_assert_eq!(was_new, model_new);
            if model_new {
                model.push(seq);
                if model.len() > capacity {
                    model.remove(0);
                }
            }
            prop_assert!(buf.len() <= capacity);
        }
        for &seq in &model {
            prop_assert!(buf.contains(EventId::new(NodeId::new(0), seq)));
        }
    }

    /// Tokens never go negative and never exceed the bucket size; total
    /// acquisitions never exceed initial + accrued tokens.
    #[test]
    fn token_bucket_conservation(
        rate in 0.0f64..100.0,
        max in 1.0f64..32.0,
        steps in proptest::collection::vec(0u64..500, 1..100),
    ) {
        let mut bucket = TokenBucket::new(rate, max, TimeMs::ZERO);
        let mut now = 0u64;
        let mut acquired = 0u64;
        for step in steps {
            now += step;
            if bucket.try_acquire(TimeMs::from_millis(now)) {
                acquired += 1;
            }
            let tokens = bucket.tokens_unrefreshed();
            prop_assert!(tokens >= 0.0, "negative tokens {tokens}");
            prop_assert!(tokens <= max + 1e-9, "over-full {tokens} > {max}");
        }
        let accrued = max + rate * now as f64 / 1000.0;
        prop_assert!(
            (acquired as f64) <= accrued + 1e-6,
            "acquired {acquired} > accrued {accrued}"
        );
    }

    /// The k-smallest set is sorted, bounded, and node-deduplicated.
    #[test]
    fn k_smallest_invariants(
        track in 1usize..6,
        ads in proptest::collection::vec((0u32..10, 1u32..200), 0..100),
    ) {
        let mut set = KSmallestSet::new(track);
        for (node, capacity) in &ads {
            set.merge(BuffAd { node: NodeId::new(*node), capacity: *capacity });
        }
        let entries = set.entries();
        prop_assert!(entries.len() <= track);
        for w in entries.windows(2) {
            prop_assert!((w[0].capacity, w[0].node) <= (w[1].capacity, w[1].node));
        }
        let nodes: HashSet<NodeId> = entries.iter().map(|e| e.node).collect();
        prop_assert_eq!(nodes.len(), entries.len(), "duplicate node in set");
        // The smallest entry equals the global per-node minimum.
        if let Some(first) = entries.first() {
            let global_min = ads
                .iter()
                .map(|&(_, c)| c)
                .min()
                .expect("entries nonempty implies ads nonempty");
            prop_assert_eq!(first.capacity, global_min);
        }
    }

    /// The windowed estimate never exceeds own capacity and never drops
    /// below the smallest value ever ingested.
    #[test]
    fn minbuff_estimate_bounds(
        own in 10u32..100,
        events in proptest::collection::vec((0u64..6, 0u32..8, 1u32..150), 0..80),
    ) {
        let config = MinBuffConfig {
            sample_period: DurationMs::from_secs(5),
            window: 3,
            track: 1,
            floor: None,
        };
        let mut est = MinBuffEstimator::new(NodeId::new(0), own, config);
        let mut smallest_seen = own;
        for (period, node, capacity) in events {
            est.on_receive(period, &[BuffAd {
                node: NodeId::new(node + 1),
                capacity,
            }]);
            smallest_seen = smallest_seen.min(capacity);
            let e = est.estimate();
            prop_assert!(e <= own, "estimate {e} above own {own}");
            prop_assert!(e >= smallest_seen, "estimate {e} below floor {smallest_seen}");
        }
    }

    /// Ages only move up under merges and increments.
    #[test]
    fn event_age_is_monotone(
        start in 0u32..100,
        ops in proptest::collection::vec(proptest::option::of(0u32..150), 0..50),
    ) {
        let mut e = ev(0, 0, start);
        let mut last = e.age();
        for op in ops {
            match op {
                Some(other) => e.merge_age(other),
                None => e.increment_age(),
            }
            prop_assert!(e.age() >= last);
            last = e.age();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The compact id history behaves exactly like a FIFO-bounded set
    /// (the `Vec` model above) for 1–8 origins, whatever the seq shape:
    /// dense runs with out-of-order jitter, wide gaps past a dense
    /// window's reach, arbitrary `u64` seqs, and re-insertion of ids
    /// after their eviction. Capacity 0 remembers nothing.
    #[test]
    fn id_buffer_matches_fifo_model_across_origins(
        capacity in 0usize..96,
        origins in 1u32..9,
        ops in proptest::collection::vec((0u32..8, 0u8..4, any::<u64>()), 0..400),
    ) {
        let mut buf = EventIdBuffer::new(capacity);
        let mut model: Vec<EventId> = Vec::new(); // insertion-ordered, unique
        let mut evicted: Vec<EventId> = Vec::new();
        let mut next = [0u64; 8];
        for (origin, shape, raw) in ops {
            let origin = origin % origins;
            let head = &mut next[origin as usize];
            let seq = match shape {
                0 | 1 => {
                    *head += 1;
                    head.saturating_sub(raw % 6)
                }
                2 => {
                    *head += raw % 400;
                    *head
                }
                _ => raw,
            };
            let id = match shape {
                0 if !evicted.is_empty() => evicted[(raw % evicted.len() as u64) as usize],
                _ => EventId::new(NodeId::new(origin), seq),
            };
            let was_new = buf.insert(id);
            let model_new = capacity == 0 || !model.contains(&id);
            prop_assert_eq!(was_new, model_new);
            if capacity > 0 && model_new {
                model.push(id);
                if model.len() > capacity {
                    evicted.push(model.remove(0));
                }
            }
            prop_assert_eq!(buf.len(), model.len());
            prop_assert_eq!(buf.contains(id), capacity > 0);
        }
        for &id in &model {
            prop_assert!(buf.contains(id));
        }
        for &id in &evicted {
            prop_assert_eq!(buf.contains(id), model.contains(&id));
        }
    }
}

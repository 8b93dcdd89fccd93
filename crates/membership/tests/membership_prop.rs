//! Property-based tests of the membership services.

use agb_membership::{
    FullView, GossipMembership, MembershipDigest, PartialView, PartialViewConfig, PeerSampler,
    Unsubscription,
};
use agb_types::{DetRng, NodeId};
use proptest::prelude::*;
use rand::seq::index;
use rand::{RngCore, SeedableRng};

/// The list-backed full view's sampler, kept as the oracle for the
/// size-only `FullView`: it held every member in a `Vec`, located the
/// caller by position and sampled indices with that slot spliced out.
fn list_view_sample(
    members: &[NodeId],
    rng: &mut DetRng,
    fanout: usize,
    exclude: NodeId,
) -> Vec<NodeId> {
    let n = members.len();
    let excl = members.iter().position(|&m| m == exclude);
    let candidates = n - usize::from(excl.is_some());
    if candidates == 0 || fanout == 0 {
        return Vec::new();
    }
    let amount = fanout.min(candidates);
    let pick = |i: usize| match excl {
        Some(p) if i >= p => members[i + 1],
        _ => members[i],
    };
    index::sample(rng, candidates, amount)
        .iter()
        .map(pick)
        .collect()
}

proptest! {
    /// Full-view samples are distinct, never the caller, and of the
    /// requested size (when enough candidates exist).
    #[test]
    fn full_view_sample_contract(
        n in 1usize..64,
        fanout in 0usize..16,
        caller in 0u32..64,
        seed in any::<u64>(),
    ) {
        let view = FullView::new(n);
        let mut rng = DetRng::seed_from_u64(seed);
        let caller = NodeId::new(caller % n.max(1) as u32);
        let sample = view.sample(&mut rng, fanout, caller);
        let expect = fanout.min(n.saturating_sub(1));
        prop_assert_eq!(sample.len(), expect);
        prop_assert!(!sample.contains(&caller));
        let mut dedup = sample.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), expect);
    }

    /// Partial views never exceed their bounds and never contain self,
    /// under arbitrary interleavings of subscriptions, unsubscriptions,
    /// evictions, round aging and digest merges (randomized
    /// join/leave/eviction sequences).
    #[test]
    fn partial_view_invariants(
        seed in any::<u64>(),
        max_view in 1usize..16,
        ops in proptest::collection::vec((0u8..5, 0u32..32, 1u32..11), 0..120),
    ) {
        let me = NodeId::new(99);
        let config = PartialViewConfig {
            max_view,
            max_subs: 8,
            max_unsubs: 8,
            digest_subs: 3,
            digest_unsubs: 3,
            unsub_ttl: 10,
        };
        let mut rng = DetRng::seed_from_u64(seed);
        let mut view = PartialView::new(me, config);
        for (op, node, ttl) in ops {
            let node = NodeId::new(node);
            match op {
                0 => view.observe_subscription(node, &mut rng),
                1 => view.observe_unsubscription(node, &mut rng),
                2 => GossipMembership::evict(&mut view, node, &mut rng),
                3 => view.on_round(),
                _ => view.observe_gossip(
                    node,
                    &MembershipDigest {
                        subs: vec![node, me],
                        unsubs: vec![Unsubscription { node: NodeId::new(node.as_u32() / 2), ttl }],
                    },
                    &mut rng,
                ),
            }
            prop_assert!(view.view_size() <= max_view);
            prop_assert!(!view.contains(me), "view must never contain self");
            prop_assert!(view.subs().len() <= 8);
            prop_assert!(view.unsubs().len() <= 8);
            // Unsub rumors never outlive their TTL budget and never name
            // self.
            for u in view.unsubs() {
                prop_assert!(u.ttl >= 1 && u.ttl <= 10);
                prop_assert!(u.node != me);
            }
            // subs/unsubs are disjoint.
            for s in view.subs() {
                prop_assert!(!view.has_unsub(*s));
            }
            // Nothing unsubscribed can linger in the view.
            for u in view.unsubs() {
                prop_assert!(!view.contains(u.node));
            }
        }
    }

    /// A stable joiner that keeps gossiping is eventually included: no
    /// randomized prefix of join/leave/evict churn can lock it out
    /// forever, because direct liveness evidence clears stale rumors and
    /// unsub TTLs expire.
    #[test]
    fn stable_joiner_is_eventually_included(
        seed in any::<u64>(),
        churn in proptest::collection::vec((0u8..3, 0u32..16), 0..60),
    ) {
        let me = NodeId::new(99);
        let joiner = NodeId::new(7);
        let config = PartialViewConfig {
            max_view: 12,
            max_subs: 8,
            max_unsubs: 8,
            digest_subs: 3,
            digest_unsubs: 3,
            unsub_ttl: 10,
        };
        let mut rng = DetRng::seed_from_u64(seed);
        let mut view = PartialView::new(me, config);
        // Arbitrary churn, including evictions of the joiner itself.
        for (op, node) in churn {
            let node = NodeId::new(node);
            match op {
                0 => view.observe_subscription(node, &mut rng),
                1 => view.observe_unsubscription(node, &mut rng),
                _ => GossipMembership::evict(&mut view, node, &mut rng),
            }
        }
        // The joiner then gossips to us for enough rounds to outlive every
        // rumor; each round we also age buffers as the protocol does.
        let digest = MembershipDigest { subs: vec![joiner], unsubs: vec![] };
        for _ in 0..11 {
            view.on_round();
            view.observe_gossip(joiner, &digest, &mut rng);
        }
        prop_assert!(
            view.contains(joiner),
            "stable joiner locked out: view {:?}, unsubs {:?}",
            view.view(),
            view.unsubs()
        );
        prop_assert!(!view.has_unsub(joiner));
    }

    /// Unsubscription rumors die: after `unsub_ttl` rounds with no fresh
    /// evidence, the buffer is empty regardless of the churn prefix.
    #[test]
    fn unsub_rumors_expire_within_ttl(
        seed in any::<u64>(),
        departures in proptest::collection::vec(0u32..32, 1..16),
    ) {
        let config = PartialViewConfig { unsub_ttl: 6, ..PartialViewConfig::default() };
        let mut rng = DetRng::seed_from_u64(seed);
        let mut view = PartialView::new(NodeId::new(99), config);
        for d in departures {
            view.observe_unsubscription(NodeId::new(d), &mut rng);
        }
        for _ in 0..6 {
            view.on_round();
        }
        prop_assert!(view.unsubs().is_empty(), "rumors survived their TTL");
    }

    /// Digests are bounded and always re-advertise the owner.
    #[test]
    fn digest_contract(
        seed in any::<u64>(),
        subs in proptest::collection::vec(0u32..64, 0..20),
    ) {
        let me = NodeId::new(1_000);
        let config = PartialViewConfig::default();
        let mut rng = DetRng::seed_from_u64(seed);
        let mut view = PartialView::new(me, config);
        for s in subs {
            view.observe_subscription(NodeId::new(s), &mut rng);
        }
        let digest = PartialView::make_digest(&view, &mut rng);
        prop_assert!(digest.subs.len() <= config.digest_subs);
        prop_assert!(digest.unsubs.len() <= config.digest_unsubs);
        prop_assert!(digest.subs.contains(&me));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `FullView` draws exactly what the list-backed view drew, from the
    /// same RNG, leaving the RNG in the same state: callers inside and
    /// outside the group, fanouts from 0 past the group size, groups of
    /// 0 to 300.
    #[test]
    fn full_view_draws_match_the_list_backed_oracle(
        n in 0usize..300,
        fanout in 0usize..320,
        exclude in 0u32..400,
        seed in any::<u64>(),
        rounds in 1usize..6,
    ) {
        let members: Vec<NodeId> = (0..n as u32).map(NodeId::new).collect();
        let view = FullView::new(n);
        let exclude = NodeId::new(exclude);
        let mut ours = DetRng::seed_from_u64(seed);
        let mut oracle = DetRng::seed_from_u64(seed);
        for _ in 0..rounds {
            prop_assert_eq!(
                view.sample(&mut ours, fanout, exclude),
                list_view_sample(&members, &mut oracle, fanout, exclude)
            );
        }
        prop_assert_eq!(ours.next_u64(), oracle.next_u64());
        prop_assert_eq!(view.contains(exclude), members.contains(&exclude));
        prop_assert_eq!(view.view(), members);
    }
}

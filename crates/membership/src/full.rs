//! Static full-membership view.

use agb_types::{DetRng, NodeId};
use rand::seq::index;

use crate::sampler::PeerSampler;

/// Full knowledge of a fixed group `{n0, …, n_{size-1}}`.
///
/// This is the membership model of the paper's evaluation: 60 processes known
/// to each other, no churn. Sampling is uniform without replacement.
///
/// # Example
///
/// ```
/// use agb_membership::{FullView, PeerSampler};
/// use agb_types::{DetRng, NodeId};
/// use rand::SeedableRng;
///
/// let view = FullView::new(5);
/// assert_eq!(view.view_size(), 5);
/// let mut rng = DetRng::seed_from_u64(9);
/// // Asking for more peers than exist returns everyone but the caller.
/// let peers = view.sample(&mut rng, 10, NodeId::new(2));
/// assert_eq!(peers.len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FullView {
    /// Members are exactly `n0 … n_{size-1}`, so the view is its size:
    /// no per-member storage, O(1) membership tests.
    size: usize,
}

impl FullView {
    /// Creates a view over nodes `0..size`.
    pub fn new(size: usize) -> Self {
        FullView { size }
    }
}

impl agb_profile::MemReport for FullView {
    fn mem_usage(&self) -> agb_profile::MemUsage {
        // Just the size: there are no per-member entries.
        agb_profile::MemUsage::new(std::mem::size_of::<Self>() as u64, 0)
    }
}

impl PeerSampler for FullView {
    fn sample(&self, rng: &mut DetRng, fanout: usize, exclude: NodeId) -> Vec<NodeId> {
        // Sampling is per-node, per-round: materialising an N-element
        // candidate list here made every simulated round O(N²) in the
        // group size. Instead, sample indices from the (virtual) list
        // with the excluded slot spliced out.
        let n = self.size;
        let excl = self.contains(exclude).then_some(exclude.index());
        let candidates = n - usize::from(excl.is_some());
        if candidates == 0 || fanout == 0 {
            return Vec::new();
        }
        let amount = fanout.min(candidates);
        let pick = |i: usize| match excl {
            Some(p) if i >= p => NodeId::new((i + 1) as u32),
            _ => NodeId::new(i as u32),
        };
        index::sample(rng, candidates, amount)
            .iter()
            .map(pick)
            .collect()
    }

    fn contains(&self, node: NodeId) -> bool {
        node.index() < self.size
    }

    fn view_size(&self) -> usize {
        self.size
    }

    fn view(&self) -> Vec<NodeId> {
        (0..self.size as u32).map(NodeId::new).collect()
    }

    fn view_mem(&self) -> agb_profile::MemUsage {
        agb_profile::MemReport::mem_usage(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::HashMap;

    #[test]
    fn sample_excludes_self_and_has_no_duplicates() {
        let view = FullView::new(20);
        let mut rng = DetRng::seed_from_u64(3);
        for _ in 0..200 {
            let s = view.sample(&mut rng, 4, NodeId::new(7));
            assert_eq!(s.len(), 4);
            assert!(!s.contains(&NodeId::new(7)));
            let mut dedup = s.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), 4);
        }
    }

    #[test]
    fn sample_is_roughly_uniform() {
        let view = FullView::new(10);
        let mut rng = DetRng::seed_from_u64(11);
        let mut counts: HashMap<NodeId, u32> = HashMap::new();
        let trials = 30_000;
        for _ in 0..trials {
            for p in view.sample(&mut rng, 3, NodeId::new(0)) {
                *counts.entry(p).or_default() += 1;
            }
        }
        // 9 candidates, 3 draws each trial => expected trials/3 per node.
        let expected = trials as f64 / 3.0;
        for (&node, &c) in &counts {
            assert_ne!(node, NodeId::new(0));
            let dev = (f64::from(c) - expected).abs() / expected;
            assert!(dev < 0.05, "node {node} count {c} deviates {dev}");
        }
        assert_eq!(counts.len(), 9);
    }

    #[test]
    fn degenerate_views() {
        let empty = FullView::new(0);
        let mut rng = DetRng::seed_from_u64(0);
        assert!(empty.sample(&mut rng, 4, NodeId::new(0)).is_empty());
        let single = FullView::new(1);
        assert!(single.sample(&mut rng, 4, NodeId::new(0)).is_empty());
        let pair = FullView::new(2);
        assert_eq!(
            pair.sample(&mut rng, 4, NodeId::new(0)),
            vec![NodeId::new(1)]
        );
        assert!(pair.sample(&mut rng, 0, NodeId::new(0)).is_empty());
    }

    #[test]
    fn contains_and_view() {
        let view = FullView::new(3);
        assert!(view.contains(NodeId::new(2)));
        assert!(!view.contains(NodeId::new(3)));
        assert_eq!(
            view.view(),
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]
        );
        assert_eq!(view.view_mem().entries, 0);
    }
}

//! The bounded duplicate-suppression digest (`eventIds` in Figure 1).

use std::collections::hash_map::Entry;
use std::collections::VecDeque;

use agb_types::{EventId, FastHashMap, FastHashSet, NodeId};

/// FIFO-bounded set of already-seen event identifiers.
///
/// Figure 1 garbage-collects `eventIds` by removing the *oldest* elements
/// when the bound is exceeded; ids are much cheaper than events, so this
/// buffer is typically far larger than the event buffer. Evicting an id too
/// early can cause a circulating copy to be re-delivered — the paper accepts
/// this, and so do we (the metrics layer counts deliveries once per node).
///
/// Membership is stored compactly: each origin's sequence numbers arrive
/// nearly in order, so they are kept as one bit per seq in a dense
/// per-origin window. Ids a window cannot cover within its density
/// budget, and origins beyond the window limit, go to a small sparse set
/// instead, so memory stays O(capacity) for any id stream. The FIFO order
/// queue keeps eviction exact.
///
/// # Example
///
/// ```
/// use agb_core::EventIdBuffer;
/// use agb_types::{EventId, NodeId};
///
/// let mut ids = EventIdBuffer::new(2);
/// let id = |s| EventId::new(NodeId::new(0), s);
/// assert!(ids.insert(id(0)));
/// assert!(!ids.insert(id(0))); // duplicate
/// ids.insert(id(1));
/// ids.insert(id(2)); // evicts id(0)
/// assert!(!ids.contains(id(0)));
/// assert!(ids.contains(id(2)));
/// ```
#[derive(Debug, Clone)]
pub struct EventIdBuffer {
    capacity: usize,
    order: VecDeque<EventId>,
    windows: FastHashMap<NodeId, SeqWindow>,
    sparse: FastHashSet<EventId>,
}

/// Words a window may span once it holds `ids` ids: its first word plus
/// one per two ids, so a window never costs more than half a word per id
/// beyond the first.
fn word_budget(ids: usize) -> usize {
    1 + ids / 2
}

/// Windows a buffer of `capacity` ids may keep: enough for every origin
/// of a realistic group, few enough that a stream of one-off origins
/// (each costing a table slot and a word) falls back to the sparse set.
fn window_limit(capacity: usize) -> usize {
    16.max(capacity / 16)
}

/// One origin's remembered seqs: bit `s % 64` of word `s / 64 - first`
/// is set iff seq `s` is remembered. Leading and trailing zero words are
/// trimmed, so the window spans exactly its lowest to highest seq.
#[derive(Debug, Clone)]
struct SeqWindow {
    /// Word index (`seq / 64`) of `words[0]`.
    first: u64,
    words: VecDeque<u64>,
    /// Set bits.
    len: usize,
}

impl SeqWindow {
    fn new(seq: u64) -> Self {
        SeqWindow {
            first: seq / 64,
            words: VecDeque::from([1u64 << (seq % 64)]),
            len: 1,
        }
    }

    /// The word slot and bit of `seq`, if the window spans it.
    fn slot(&self, seq: u64) -> Option<(usize, u64)> {
        let i = (seq / 64).checked_sub(self.first)?;
        (i < self.words.len() as u64).then(|| (i as usize, 1u64 << (seq % 64)))
    }

    fn contains(&self, seq: u64) -> bool {
        self.slot(seq)
            .is_some_and(|(i, bit)| self.words[i] & bit != 0)
    }

    /// Sets the (clear) bit of `seq`, growing the window if its span
    /// stays within budget. Returns `false`, changing nothing, if not.
    fn try_insert(&mut self, seq: u64) -> bool {
        let w = seq / 64;
        let last = self.first + self.words.len() as u64 - 1;
        let span = last.max(w) - self.first.min(w) + 1;
        if span > word_budget(self.len + 1) as u64 {
            return false;
        }
        for _ in w..self.first {
            self.words.push_front(0);
        }
        self.first = self.first.min(w);
        for _ in last..w {
            self.words.push_back(0);
        }
        let (i, bit) = self.slot(seq).expect("window spans seq");
        self.words[i] |= bit;
        self.len += 1;
        true
    }

    /// Clears the bit of `seq`; returns whether it was set.
    fn remove(&mut self, seq: u64) -> bool {
        let Some((i, bit)) = self.slot(seq) else {
            return false;
        };
        if self.words[i] & bit == 0 {
            return false;
        }
        self.words[i] &= !bit;
        self.len -= 1;
        while self.words.front() == Some(&0) {
            self.words.pop_front();
            self.first += 1;
        }
        while self.words.back() == Some(&0) {
            self.words.pop_back();
        }
        // Give back what a once-wider window no longer spans.
        if self.words.capacity() > 4 * self.words.len().max(2) {
            self.words.shrink_to(2 * self.words.len());
        }
        true
    }

    /// Every remembered seq, ascending.
    fn seqs(&self) -> impl Iterator<Item = u64> + '_ {
        self.words.iter().enumerate().flat_map(move |(i, &word)| {
            let base = (self.first + i as u64) * 64;
            (0..64u64)
                .filter(move |b| word & (1 << b) != 0)
                .map(move |b| base + b)
        })
    }
}

impl EventIdBuffer {
    /// Creates a buffer remembering at most `capacity` ids.
    ///
    /// Storage grows on demand: a large-scale simulation hosts one of
    /// these per node, and eager per-node reservations of the full bound
    /// dominate resident memory long before the dedup window fills.
    pub fn new(capacity: usize) -> Self {
        EventIdBuffer {
            capacity,
            order: VecDeque::new(),
            windows: FastHashMap::default(),
            sparse: FastHashSet::default(),
        }
    }

    /// Records `id` as seen. Returns `true` if it was new, `false` if it was
    /// already known (i.e. the incoming event is a duplicate).
    pub fn insert(&mut self, id: EventId) -> bool {
        if self.capacity == 0 {
            return true; // Degenerate: remembers nothing, everything is new.
        }
        let in_sparse = |sparse: &FastHashSet<EventId>| !sparse.is_empty() && sparse.contains(&id);
        let room = self.windows.len() < window_limit(self.capacity);
        let windowed = match self.windows.entry(id.origin()) {
            Entry::Occupied(mut e) => {
                let window = e.get_mut();
                if window.contains(id.seq()) || in_sparse(&self.sparse) {
                    return false;
                }
                window.try_insert(id.seq())
            }
            Entry::Vacant(e) => {
                if in_sparse(&self.sparse) {
                    return false;
                }
                if room {
                    e.insert(SeqWindow::new(id.seq()));
                }
                room
            }
        };
        if !windowed {
            self.sparse.insert(id);
        }
        self.order.push_back(id);
        while self.order.len() > self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.forget(old);
            }
        }
        true
    }

    /// Drops an evicted id from whichever store holds it.
    fn forget(&mut self, id: EventId) {
        let origin = id.origin();
        if let Some(window) = self.windows.get_mut(&origin) {
            if window.remove(id.seq()) {
                if window.len == 0 {
                    self.windows.remove(&origin);
                } else if window.words.len() > 2 * word_budget(window.len) {
                    // Evictions hollowed the window out: its few ids are
                    // cheaper as sparse entries. Each id spills at most
                    // once, so the cost amortises over its insertions.
                    let window = self.windows.remove(&origin).expect("window present");
                    self.sparse
                        .extend(window.seqs().map(|seq| EventId::new(origin, seq)));
                }
                return;
            }
        }
        self.sparse.remove(&id);
    }

    /// Whether `id` has been seen (and not yet evicted).
    pub fn contains(&self, id: EventId) -> bool {
        self.windows
            .get(&id.origin())
            .is_some_and(|w| w.contains(id.seq()))
            || (!self.sparse.is_empty() && self.sparse.contains(&id))
    }

    /// Number of remembered ids.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether no ids are remembered.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl agb_profile::MemReport for EventIdBuffer {
    fn mem_usage(&self) -> agb_profile::MemUsage {
        // The FIFO order queue holds every id once; membership costs one
        // bit per seq in the dense windows (plus one table slot per
        // origin) and a full id per sparse entry.
        let id = std::mem::size_of::<EventId>();
        let words: usize = self.windows.values().map(|w| w.words.capacity()).sum();
        let bytes = self.order.capacity() * id
            + self.windows.capacity() * std::mem::size_of::<(NodeId, SeqWindow)>()
            + words * std::mem::size_of::<u64>()
            + self.sparse.capacity() * id;
        agb_profile::MemUsage::new(bytes as u64, self.order.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agb_types::DetRng;
    use rand::{RngExt, SeedableRng};

    fn id(s: u64) -> EventId {
        EventId::new(NodeId::new(1), s)
    }

    #[test]
    fn detects_duplicates() {
        let mut b = EventIdBuffer::new(10);
        assert!(b.insert(id(1)));
        assert!(!b.insert(id(1)));
        assert!(b.contains(id(1)));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn evicts_fifo_when_full() {
        let mut b = EventIdBuffer::new(3);
        for s in 0..5 {
            b.insert(id(s));
        }
        assert_eq!(b.len(), 3);
        assert!(!b.contains(id(0)));
        assert!(!b.contains(id(1)));
        assert!(b.contains(id(2)));
        assert!(b.contains(id(4)));
    }

    #[test]
    fn evicted_id_reads_as_new_again() {
        let mut b = EventIdBuffer::new(1);
        b.insert(id(0));
        b.insert(id(1)); // evicts 0
        assert!(b.insert(id(0)), "evicted id must be accepted as new");
    }

    #[test]
    fn zero_capacity_never_remembers() {
        let mut b = EventIdBuffer::new(0);
        assert!(b.insert(id(0)));
        assert!(b.insert(id(0)));
        assert!(b.is_empty());
        assert_eq!(b.capacity(), 0);
    }

    #[test]
    fn dense_origin_lives_in_one_window() {
        let mut b = EventIdBuffer::new(1_000);
        for s in 0..640 {
            assert!(b.insert(id(s)));
        }
        assert_eq!(b.windows.len(), 1);
        assert_eq!(b.windows[&NodeId::new(1)].words.len(), 10);
        assert!(b.sparse.is_empty());
        // Out-of-order arrivals below the window extend it leftwards.
        let mut late = EventIdBuffer::new(10);
        late.insert(id(200));
        assert!(late.insert(id(100)));
        assert!(late.contains(id(100)) && late.contains(id(200)));
        assert!(!late.insert(id(100)));
    }

    #[test]
    fn far_seqs_fall_back_to_sparse() {
        let mut b = EventIdBuffer::new(10);
        b.insert(id(0));
        assert!(b.insert(id(1 << 40)));
        assert!(b.insert(id(u64::MAX)));
        assert_eq!(b.sparse.len(), 2);
        assert!(!b.insert(id(u64::MAX)), "sparse ids are duplicates too");
        assert!(b.contains(id(1 << 40)));
    }

    #[test]
    fn hollowed_window_spills_to_sparse() {
        // Seqs 1..=318 span words 0..=4; 0 and 319 arrive last, so FIFO
        // eviction empties the middle and leaves 2 ids over 5 words.
        let mut b = EventIdBuffer::new(320);
        for s in (1..=318).chain([0, 319]) {
            assert!(b.insert(id(s)));
        }
        assert_eq!(b.windows[&NodeId::new(1)].words.len(), 5);
        for s in 0..318 {
            b.insert(EventId::new(NodeId::new(2), s));
        }
        assert!(!b.windows.contains_key(&NodeId::new(1)));
        assert_eq!(b.sparse.len(), 2);
        assert!(b.contains(id(0)) && b.contains(id(319)));
        assert!(!b.contains(id(1)) && !b.contains(id(318)));
        // The spilled ids keep their FIFO slots.
        b.insert(EventId::new(NodeId::new(2), 1_000));
        assert!(!b.contains(id(0)));
        assert!(b.contains(id(319)));
    }

    /// Memory stays O(capacity) whatever the id stream: every remembered
    /// id lives in exactly one window or sparse entry, and window words
    /// never exceed the ids they hold by more than a constant factor.
    #[test]
    fn storage_is_bounded_by_capacity_for_any_stream() {
        const CAPACITY: usize = 1_000;
        let mut rng = DetRng::seed_from_u64(5);
        type Stream = fn(&mut DetRng, u64) -> EventId;
        let streams: [Stream; 4] = [
            |r, _| EventId::new(NodeId::new(r.random()), r.random()),
            |r, _| EventId::new(NodeId::new(r.random_range(0..8)), r.random()),
            |r, _| {
                EventId::new(
                    NodeId::new(r.random_range(0..64)),
                    r.random_range(0..20_000),
                )
            },
            |r, i| {
                EventId::new(
                    NodeId::new(r.random_range(0..8)),
                    i / 8 + r.random_range(0..4u64),
                )
            },
        ];
        for stream in streams {
            let mut b = EventIdBuffer::new(CAPACITY);
            for i in 0..100_000 {
                b.insert(stream(&mut rng, i));
                let held: usize = b.windows.values().map(|w| w.len).sum();
                assert_eq!(held + b.sparse.len(), b.len());
            }
            let words: usize = b.windows.values().map(|w| w.words.len()).sum();
            let allocated: usize = b.windows.values().map(|w| w.words.capacity()).sum();
            assert!(b.windows.len() <= window_limit(CAPACITY));
            assert!(b.sparse.len() <= CAPACITY);
            assert!(words <= 3 * CAPACITY, "{words} window words");
            assert!(allocated <= 12 * CAPACITY, "{allocated} allocated words");
            let bytes = agb_profile::MemReport::mem_usage(&b).bytes;
            assert!(bytes <= 128 * CAPACITY as u64, "{bytes} bytes");
        }
    }
}

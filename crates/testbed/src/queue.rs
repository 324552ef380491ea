//! The simulator's pending-event queue: an exact-order hashed time wheel.
//!
//! Every simulated request costs an arrival and a completion event, so the
//! queue's push and pop are the simulator's innermost loop. [`EventQueue`]
//! is a timing wheel (Varghese & Lauck, SOSP 1987) of 2048 buckets of 32 ms
//! each, so the wheel spans 65.5 s from the slot of the earliest pending
//! event:
//!
//! - each bucket is a list sorted by `(at_ms, push order)`, threaded with
//!   `u32` links through one node slab with a free list;
//! - an occupancy bitmap finds the next non-empty bucket with
//!   `trailing_zeros`;
//! - events past the window (the 1800 s periodic GC, phase ends, the rare
//!   think time over 65.5 s) wait in a small overflow [`BinaryHeap`] and
//!   move into their buckets as soon as the window reaches them.
//!
//! Pops come out in exactly the order of a
//! `BinaryHeap<Reverse<(at_ms, seq, event)>>` with `seq` counting pushes —
//! ties at the same millisecond first-in first-out — for any sequence of
//! pushes and pops, including pushes behind the last popped time, so traces
//! do not depend on the queue. `Clone` is a few flat copies, which keeps
//! the simulator's counterfactual forks cheap.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of the milliseconds one bucket covers.
const SLOT_BITS: u32 = 5;
/// Buckets on the wheel (a power of two).
const BUCKETS: usize = 2048;
const MASK: usize = BUCKETS - 1;
const WORDS: usize = BUCKETS / 64;
/// End of a bucket list and of the free list.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node<E> {
    at_ms: u64,
    next: u32,
    event: E,
}

/// A min-queue of `(at_ms, event)` in `(at_ms, push order)` order. See the
/// module docs.
#[derive(Debug, Clone)]
pub(crate) struct EventQueue<E> {
    /// Slot (`at_ms >> SLOT_BITS`) at the start of the window. Every wheel
    /// event lies in `[base_slot, base_slot + BUCKETS)` (events pushed
    /// behind it sit in the base bucket); every overflow event lies beyond.
    base_slot: u64,
    heads: Box<[u32; BUCKETS]>,
    occupied: [u64; WORDS],
    nodes: Vec<Node<E>>,
    free: u32,
    /// Overflow events as `(at_ms, seq, node)`; their payload stays in the
    /// slab.
    overflow: BinaryHeap<Reverse<(u64, u64, u32)>>,
    seq: u64,
}

impl<E: Copy> EventQueue<E> {
    pub(crate) fn new() -> Self {
        EventQueue {
            base_slot: 0,
            heads: Box::new([NIL; BUCKETS]),
            occupied: [0; WORDS],
            nodes: Vec::new(),
            free: NIL,
            overflow: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at `at_ms`, after every pending event at the same
    /// millisecond.
    pub(crate) fn push(&mut self, at_ms: u64, event: E) {
        let node = Node { at_ms, next: NIL, event };
        let idx = if self.free == NIL {
            let idx = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&idx| idx != NIL)
                .expect("fewer than u32::MAX pending events");
            self.nodes.push(node);
            idx
        } else {
            let idx = self.free;
            self.free = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        };
        let slot = (at_ms >> SLOT_BITS).max(self.base_slot);
        if slot - self.base_slot < BUCKETS as u64 {
            self.link(slot, idx);
        } else {
            self.seq += 1;
            self.overflow.push(Reverse((at_ms, self.seq, idx)));
        }
    }

    /// Removes and returns the earliest event, ties in push order.
    pub(crate) fn pop(&mut self) -> Option<(u64, E)> {
        let bucket = match self.first_occupied() {
            Some(bucket) => {
                let ahead = bucket.wrapping_sub(self.base_slot as usize) & MASK;
                if ahead > 0 {
                    self.advance(self.base_slot + ahead as u64);
                }
                bucket
            }
            None => {
                // The wheel is empty: jump the window to the overflow minimum.
                let &Reverse((at_ms, _, _)) = self.overflow.peek()?;
                self.advance(at_ms >> SLOT_BITS);
                self.base_slot as usize & MASK
            }
        };
        let idx = self.heads[bucket];
        let Node { at_ms, next, event } = self.nodes[idx as usize];
        self.heads[bucket] = next;
        if next == NIL {
            self.occupied[bucket / 64] &= !(1 << (bucket % 64));
        }
        self.nodes[idx as usize].next = self.free;
        self.free = idx;
        Some((at_ms, event))
    }

    /// Inserts slab node `idx` into the bucket of `slot`, after every node
    /// there with the same or an earlier time.
    fn link(&mut self, slot: u64, idx: u32) {
        let bucket = slot as usize & MASK;
        let at_ms = self.nodes[idx as usize].at_ms;
        let mut prev = NIL;
        let mut cur = self.heads[bucket];
        while cur != NIL && self.nodes[cur as usize].at_ms <= at_ms {
            prev = cur;
            cur = self.nodes[cur as usize].next;
        }
        self.nodes[idx as usize].next = cur;
        if prev == NIL {
            self.heads[bucket] = idx;
            self.occupied[bucket / 64] |= 1 << (bucket % 64);
        } else {
            self.nodes[prev as usize].next = idx;
        }
    }

    /// Moves the window start to `slot` and pulls the overflow events the
    /// window now reaches onto the wheel. They arrive in `(at_ms, seq)`
    /// order, into buckets the window has just uncovered and that hold
    /// nothing pushed after them, so every bucket stays in push order
    /// among equal times.
    fn advance(&mut self, slot: u64) {
        self.base_slot = slot;
        while let Some(&Reverse((at_ms, _, idx))) = self.overflow.peek() {
            let slot = at_ms >> SLOT_BITS;
            if slot - self.base_slot >= BUCKETS as u64 {
                break;
            }
            self.overflow.pop();
            self.link(slot, idx);
        }
    }

    /// The first non-empty bucket at or after the window start, in window
    /// order.
    fn first_occupied(&self) -> Option<usize> {
        let start = self.base_slot as usize & MASK;
        let (word, bit) = (start / 64, start % 64);
        let here = self.occupied[word] & (!0 << bit);
        if here != 0 {
            return Some(word * 64 + here.trailing_zeros() as usize);
        }
        // The bits of `word` below `bit` are the far end of the window; they
        // are visited last, when the scan wraps around to `word` again.
        (1..=WORDS).map(|i| (word + i) % WORDS).find_map(|w| {
            let bits = self.occupied[w];
            (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Milliseconds the wheel covers from the start of its current slot.
    const SPAN_MS: u64 = (BUCKETS as u64) << SLOT_BITS;

    /// The reference order: a binary heap keyed by `(at_ms, seq)`.
    #[derive(Default)]
    struct Oracle {
        heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
        seq: u64,
    }

    impl Oracle {
        fn push(&mut self, at_ms: u64, event: u32) {
            self.seq += 1;
            self.heap.push(Reverse((at_ms, self.seq, event)));
        }

        fn pop(&mut self) -> Option<(u64, u32)> {
            self.heap.pop().map(|Reverse((at_ms, _, event))| (at_ms, event))
        }
    }

    fn drain(q: &mut EventQueue<u32>) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn window_edges_and_overflow_keep_time_order() {
        let mut q = EventQueue::new();
        q.push(SPAN_MS, 0); // first millisecond past the window
        q.push(SPAN_MS - 1, 1); // last millisecond inside it
        q.push(10 * SPAN_MS, 2);
        q.push(SPAN_MS, 3);
        assert_eq!(q.overflow.len(), 3);
        assert_eq!(
            drain(&mut q),
            [(SPAN_MS - 1, 1), (SPAN_MS, 0), (SPAN_MS, 3), (10 * SPAN_MS, 2)]
        );
    }

    #[test]
    fn an_empty_wheel_jumps_to_the_overflow_minimum() {
        let mut q = EventQueue::new();
        q.push(5, 0);
        q.push(3_600_000, 1);
        q.push(1_800_000, 2);
        assert_eq!(q.pop(), Some((5, 0)));
        assert_eq!(q.pop(), Some((1_800_000, 2)));
        assert_eq!(q.base_slot, 1_800_000 >> SLOT_BITS);
        // Behind the new window start: still the next event out.
        q.push(1_799_000, 3);
        q.push(1_800_000, 4);
        assert_eq!(drain(&mut q), [(1_799_000, 3), (1_800_000, 4), (3_600_000, 1)]);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn freed_nodes_are_reused() {
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            q.push(round * 1000, 0);
            q.push(round * 1000 + 1, 1);
            assert_eq!(q.pop(), Some((round * 1000, 0)));
            assert_eq!(q.pop(), Some((round * 1000 + 1, 1)));
        }
        assert_eq!(q.nodes.len(), 2);
    }

    /// Where a generated push lands, relative to the queue's state.
    #[derive(Debug, Clone, Copy)]
    enum At {
        /// The last popped millisecond: a tie with what is pending there.
        Now,
        /// `now + d`.
        Ahead(u64),
        /// The last millisecond inside the window.
        WindowLast,
        /// The first millisecond past the window.
        WindowEnd,
        /// `now + SPAN_MS + d`: the overflow.
        Far(u64),
        /// `now - d`: behind the window start.
        Behind(u64),
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Push(At),
        Pop,
        Clone,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            Just(Op::Push(At::Now)),
            (0u64..64).prop_map(|d| Op::Push(At::Ahead(d))),
            (0u64..20_000).prop_map(|d| Op::Push(At::Ahead(d))),
            Just(Op::Push(At::WindowLast)),
            Just(Op::Push(At::WindowEnd)),
            (0u64..40 * SPAN_MS).prop_map(|d| Op::Push(At::Far(d))),
            (0u64..100).prop_map(|d| Op::Push(At::Behind(d))),
            Just(Op::Pop),
            Just(Op::Pop),
            Just(Op::Pop),
            Just(Op::Pop),
            Just(Op::Clone),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn pops_match_a_binary_heap_through_clones(ops in prop::collection::vec(op(), 1..400)) {
            let mut q = EventQueue::new();
            let mut oracle = Oracle::default();
            let mut twin: Option<EventQueue<u32>> = None;
            let mut now = 0u64;
            for (id, op) in ops.into_iter().enumerate() {
                let id = id as u32;
                match op {
                    Op::Push(at) => {
                        let window_start = q.base_slot << SLOT_BITS;
                        let at_ms = match at {
                            At::Now => now,
                            At::Ahead(d) => now + d,
                            At::WindowLast => window_start + SPAN_MS - 1,
                            At::WindowEnd => window_start + SPAN_MS,
                            At::Far(d) => now + SPAN_MS + d,
                            At::Behind(d) => now.saturating_sub(d),
                        };
                        q.push(at_ms, id);
                        oracle.push(at_ms, id);
                        if let Some(twin) = &mut twin {
                            twin.push(at_ms, id);
                        }
                    }
                    Op::Pop => {
                        let expected = oracle.pop();
                        prop_assert_eq!(q.pop(), expected);
                        if let Some(twin) = &mut twin {
                            prop_assert_eq!(twin.pop(), expected);
                        }
                        if let Some((at_ms, _)) = expected {
                            now = at_ms;
                        }
                    }
                    Op::Clone => twin = Some(q.clone()),
                }
            }
            let rest = std::iter::from_fn(|| oracle.pop()).collect::<Vec<_>>();
            prop_assert_eq!(drain(&mut q), rest.clone());
            if let Some(mut twin) = twin {
                prop_assert_eq!(drain(&mut twin), rest);
            }
        }
    }
}

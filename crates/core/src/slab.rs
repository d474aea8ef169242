//! A slab of linked nodes, addressed by `u32` index, with a LIFO free list.
//!
//! The pending set's event chains, the LPs' history chains and their send
//! chains all keep their nodes in slabs of this kind, one slab per worker
//! for each node type. A freed slot goes onto the front of the free list and
//! is the next one handed out, so a run in steady state reuses slots that are
//! likely still in cache and calls the allocator only when a slab grows.
//!
//! The free list is threaded through each node's own link ([`Link`]), so a
//! slot costs no more than its node: a node whose link fits in its padding
//! stays at its own size.
//!
//! The nodes live in one `Vec`, so a node is one indexed load away. A full
//! slab grows by a fixed [`GROWTH`] slots instead of doubling: a run has
//! hundreds of workers, each with three slabs, and doubling left up to half
//! of every slab idle. (Fixed-size chunks, which never move, saved a little
//! more memory, but the chunk lookup added a dependent load to every node
//! access, and rollback-heavy runs, which chase chains through cold nodes,
//! paid for it.)
//!
//! Other policies measured no better overall. hostbench's `peak_rss_mb`
//! with 32-B pending and 48-B history nodes, median of three invocations
//! each, for `comm-mattern-8n` / `comp-mattern-2n` / `mixed-cagvt-4n`:
//!
//! | growth policy                  | comm    | comp    | mixed   |
//! |--------------------------------|---------|---------|---------|
//! | 32 slots (this one)            | 21.3 MB | 9.3 MB  | 19.8 MB |
//! | doubling                       | 23.8 MB | 9.6 MB  | 18.6 MB |
//! | ×1.5                           | 22.5 MB | 9.4 MB  | 19.4 MB |
//! | 16 slots                       | 21.3 MB | 9.7 MB  | 19.9 MB |
//! | pre-sized to `max_outstanding` | 31.9 MB | 10.5 MB | 17.9 MB |
//!
//! The last row pre-sizes each LP table's history and send slabs to the
//! optimism throttle's cap. Growing faster helps only the rollback-heavy
//! mixed workload, whose busiest slabs reach about a thousand nodes;
//! elsewhere the spare capacity becomes resident, because repeated runs
//! reuse the same heap pages.

use std::ops::{Index, IndexMut};

/// End of a chain, or a missing node.
pub(crate) const NIL: u32 = u32::MAX;

/// Slots a full slab adds.
const GROWTH: usize = 32;

/// A node that lends one of its links to the free list while it is free.
pub(crate) trait Link {
    fn link(&mut self) -> &mut u32;
}

/// Linked nodes by index, freed slots reused last-in first-out.
pub(crate) struct Slab<N> {
    nodes: Vec<N>,
    /// First free slot, or `NIL`.
    free: u32,
    /// Slots handed out and not freed.
    live: usize,
}

impl<N: Link> Slab<N> {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Slab { nodes: Vec::with_capacity(capacity), free: NIL, live: 0 }
    }

    /// Store `node` in a free slot, or a new one, and return its index.
    #[inline]
    pub(crate) fn alloc(&mut self, node: N) -> u32 {
        self.live += 1;
        match self.free {
            NIL => {
                assert!(self.nodes.len() < NIL as usize, "slab full");
                if self.nodes.len() == self.nodes.capacity() {
                    self.nodes.reserve_exact(GROWTH);
                }
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
            slot => {
                self.free = std::mem::replace(self[slot].link(), NIL);
                self[slot] = node;
                slot
            }
        }
    }

    /// Put slot `i` on the free list. Returns the value its link had and
    /// the node, whose link now belongs to the free list: the caller takes
    /// what the node owns before the slot is handed out again.
    #[inline]
    pub(crate) fn free(&mut self, i: u32) -> (u32, &mut N) {
        self.live -= 1;
        let free = std::mem::replace(&mut self.free, i);
        let n = &mut self[i];
        (std::mem::replace(n.link(), free), n)
    }

    /// Slots handed out and not freed.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Slots ever used, free or live.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.nodes.len()
    }
}

impl<N> Index<u32> for Slab<N> {
    type Output = N;

    #[inline]
    fn index(&self, i: u32) -> &N {
        &self.nodes[i as usize]
    }
}

impl<N> IndexMut<u32> for Slab<N> {
    #[inline]
    fn index_mut(&mut self, i: u32) -> &mut N {
        &mut self.nodes[i as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Node {
        value: u64,
        next: u32,
    }

    impl Link for Node {
        fn link(&mut self) -> &mut u32 {
            &mut self.next
        }
    }

    #[test]
    fn freed_slots_are_reused_last_in_first_out() {
        let mut slab = Slab::with_capacity(0);
        let a = slab.alloc(Node { value: 1, next: NIL });
        let b = slab.alloc(Node { value: 2, next: NIL });
        let c = slab.alloc(Node { value: 3, next: NIL });
        slab[c].next = 7;
        assert_eq!(slab.free(a).1.value, 1);
        assert_eq!((slab.free(c).0, slab[c].value), (7, 3));
        assert_eq!(slab.live(), 1);
        assert_eq!(slab.alloc(Node { value: 4, next: NIL }), c);
        assert_eq!(slab.alloc(Node { value: 5, next: NIL }), a);
        assert_eq!(slab[a].value + slab[b].value + slab[c].value, 11);
        assert_eq!((slab.live(), slab.slots()), (3, 3), "no slot was added");
    }

    #[test]
    fn a_full_slab_grows_by_a_fixed_step() {
        let mut slab = Slab::with_capacity(0);
        let n = 3 * GROWTH as u64 + 1;
        for value in 0..n {
            assert_eq!(slab.alloc(Node { value, next: NIL }), value as u32);
        }
        assert_eq!(slab.nodes.capacity(), 4 * GROWTH);
        assert!((0..n).all(|i| slab[i as u32].value == i));
    }
}

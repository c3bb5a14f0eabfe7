//! Router state in one flat, network-wide layout.
//!
//! Every per-VC array — input-VC rings, head/length, allocation, the
//! VA wait port, output-VC owner and credit — shares one index: router
//! `r`'s VC `vc` on port `port` lives at `vc_base[r] + port * vcs + vc`
//! (the input VC for the buffer arrays, the output VC for owner and
//! credit). Per-port arrays (iSLIP pointers, HARE scores, Footprint
//! stamps, links) use `port_base[r] + port`. Within one router the
//! *local bit* `b = port * vcs + vc` names a VC; `vc_base[r] + b` is
//! its flat index.
//!
//! Each router also owns whole 64-bit words of three bitsets over its
//! local bits — `occ` (VC buffer non-empty), `allocated` (VC holds an
//! output allocation) and `blocked` (head failed VC allocation and waits
//! for an output VC to be released). VC and switch allocation walk the
//! set bits in ascending order, which is ascending (port, vc) order.
//! Words are never shared between routers, so shards running disjoint
//! router ranges never write the same word.
//!
//! The allocation algorithms live in [`crate::network`]; this module
//! defines the state and its primitive operations.

use crate::flit::Flit;
use crate::topology::{PortLink, TopologyGraph};
use clognet_proto::{Cycle, NodeId};

/// An output allocation held by an input VC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Alloc {
    /// Output port.
    pub port: u8,
    /// Output VC on that port (meaningless for ejection ports).
    pub vc: u8,
    /// True when the output port is the router's locally attached node
    /// (ejection): no output-VC ownership or credits apply, the NI eject
    /// buffer gates transfer instead.
    pub eject: bool,
}

/// What one router port connects to, resolved for the hot loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Link {
    /// A locally attached node.
    Node(NodeId),
    /// Another router: `bit` is the local bit of VC 0 of the peer's
    /// facing port (`port * vcs`).
    Router {
        /// Neighbor router index.
        router: u32,
        /// Local bit of the peer port's first VC.
        bit: u32,
    },
    /// Not wired (edge of the mesh).
    Unused,
}

/// All routers' state, flattened.
#[derive(Debug)]
pub(crate) struct Routers {
    /// VCs per port.
    pub vcs: usize,
    /// Flits per input VC buffer.
    pub buf: usize,
    /// First flat port of each router (`routers + 1` entries).
    pub port_base: Vec<u32>,
    /// First flat VC of each router (`routers + 1` entries).
    pub vc_base: Vec<u32>,
    /// First bitset word of each router (`routers + 1` entries).
    pub word_base: Vec<u32>,
    /// Per flat port: where it leads.
    pub links: Vec<Link>,
    /// Input-VC ring buffers: VC `i` owns `ring[i * buf..(i + 1) * buf]`.
    pub ring: Vec<Flit>,
    /// Per input VC: ring position of the front flit.
    pub head: Vec<u8>,
    /// Per input VC: buffered flits.
    pub len: Vec<u8>,
    /// Per input VC: route + output VC of the packet at the front (set
    /// by VA when its head flit reaches the front, cleared when its tail
    /// departs).
    pub alloc: Vec<Option<Alloc>>,
    /// Per input VC with its `blocked` bit set: the output port the
    /// head waits on.
    pub wait_port: Vec<u8>,
    /// Per output VC: the (input port, input VC) that owns the
    /// downstream VC (`None` = free). Ejection ports never take owners.
    pub owner: Vec<Option<(u8, u8)>>,
    /// Per output VC: free buffer slots in the downstream input VC.
    pub credits: Vec<u8>,
    /// Per flat port: iSLIP grant pointer (rotates over the router's
    /// local bits).
    pub grant_ptr: Vec<u32>,
    /// Per flat port: iSLIP accept pointer (rotates over its VCs).
    pub accept_ptr: Vec<u32>,
    /// Per flat port: HARE congestion history (EWMA of free credits).
    pub hare_score: Vec<f64>,
    /// Per flat port: Footprint's cycle of the last traversal.
    pub footprint: Vec<Cycle>,
    /// Per-router words: input VC non-empty.
    pub occ: Vec<u64>,
    /// Per-router words: input VC holds an allocation.
    pub allocated: Vec<u64>,
    /// Per-router words: head failed VA and waits for a release on
    /// `wait_port`.
    pub blocked: Vec<u64>,
    /// Local bit → input port (shared by all routers).
    pub bit_port: Vec<u16>,
    /// Local bit → VC (shared by all routers).
    pub bit_vc: Vec<u8>,
}

/// Word index and mask of local bit `b` of a router whose words start
/// at `w0`.
fn word_mask(w0: u32, b: usize) -> (usize, u64) {
    (w0 as usize + (b >> 6), 1u64 << (b & 63))
}

impl Routers {
    /// Empty routers for `topo` with `vcs` VCs per port and `buf` flits
    /// of buffer (and initial credit) per VC.
    pub fn new(topo: &TopologyGraph, vcs: usize, buf: u8) -> Self {
        let n = topo.routers();
        let (mut port_base, mut vc_base, mut word_base) = (vec![0], vec![0], vec![0]);
        let mut links = Vec::new();
        let mut max_ports = 0;
        for r in 0..n {
            let ports = topo.port_count(r);
            max_ports = max_ports.max(ports);
            for p in 0..ports {
                links.push(match topo.link(r, p) {
                    PortLink::Node(node) => Link::Node(node),
                    PortLink::Router { router, port } => Link::Router {
                        router: router as u32,
                        bit: (port * vcs) as u32,
                    },
                    PortLink::Unused => Link::Unused,
                });
            }
            port_base.push(port_base[r] + ports as u32);
            vc_base.push(vc_base[r] + (ports * vcs) as u32);
            word_base.push(word_base[r] + (ports * vcs).div_ceil(64) as u32);
        }
        let (n_ports, n_vcs, n_words) = (links.len(), vc_base[n] as usize, word_base[n] as usize);
        Routers {
            vcs,
            buf: buf as usize,
            port_base,
            vc_base,
            word_base,
            links,
            ring: vec![Flit::EMPTY; n_vcs * buf as usize],
            head: vec![0; n_vcs],
            len: vec![0; n_vcs],
            alloc: vec![None; n_vcs],
            wait_port: vec![0; n_vcs],
            owner: vec![None; n_vcs],
            credits: vec![buf; n_vcs],
            grant_ptr: vec![0; n_ports],
            accept_ptr: vec![0; n_ports],
            hare_score: vec![0.0; n_ports],
            footprint: vec![0; n_ports],
            occ: vec![0; n_words],
            allocated: vec![0; n_words],
            blocked: vec![0; n_words],
            bit_port: (0..max_ports * vcs).map(|b| (b / vcs) as u16).collect(),
            bit_vc: (0..max_ports * vcs).map(|b| (b % vcs) as u8).collect(),
        }
    }

    /// Number of routers.
    pub fn count(&self) -> usize {
        self.port_base.len() - 1
    }

    /// Ports on router `r`.
    pub fn ports(&self, r: usize) -> usize {
        (self.port_base[r + 1] - self.port_base[r]) as usize
    }

    /// Local bits (input VCs) of router `r`: its iSLIP grant id space.
    pub fn bits(&self, r: usize) -> usize {
        (self.vc_base[r + 1] - self.vc_base[r]) as usize
    }

    /// Flat port index of (`r`, `port`).
    pub fn port(&self, r: usize, port: usize) -> usize {
        self.port_base[r] as usize + port
    }

    /// Flat VC index of router `r`'s local bit `b`.
    pub fn vc(&self, r: usize, b: usize) -> usize {
        self.vc_base[r] as usize + b
    }

    /// Flat VC index of router `r`'s VC `vc` on port `port`.
    pub fn vc_at(&self, r: usize, port: usize, vc: usize) -> usize {
        self.vc(r, port * self.vcs + vc)
    }

    /// Where router `r`'s port `p` leads.
    pub fn link(&self, r: usize, p: usize) -> Link {
        self.links[self.port(r, p)]
    }

    /// Router `r`'s bitset word range.
    pub fn words(&self, r: usize) -> std::ops::Range<usize> {
        self.word_base[r] as usize..self.word_base[r + 1] as usize
    }

    /// True when no input VC of router `r` buffers a flit.
    pub fn idle(&self, r: usize) -> bool {
        self.occ[self.words(r)].iter().all(|&w| w == 0)
    }

    /// The front flit of flat input VC `i` (which must be non-empty).
    pub fn front(&self, i: usize) -> &Flit {
        &self.ring[i * self.buf + self.head[i] as usize]
    }

    /// Append `f` to router `r`'s input VC at local bit `b`.
    ///
    /// # Panics
    ///
    /// Panics if the VC is full: upstream credits were violated.
    pub fn push(&mut self, r: usize, b: usize, f: Flit) {
        let i = self.vc(r, b);
        let len = self.len[i] as usize;
        assert!(
            len < self.buf,
            "VC overflow at router {r} local VC {b}: credits violated"
        );
        let mut pos = self.head[i] as usize + len;
        if pos >= self.buf {
            pos -= self.buf;
        }
        self.ring[i * self.buf + pos] = f;
        self.len[i] += 1;
        let (w, m) = word_mask(self.word_base[r], b);
        self.occ[w] |= m;
    }

    /// Remove and return the front flit of router `r`'s input VC at
    /// local bit `b`.
    pub fn pop(&mut self, r: usize, b: usize) -> Flit {
        let i = self.vc(r, b);
        debug_assert!(self.len[i] > 0, "pop from an empty VC");
        let f = *self.front(i);
        let next = self.head[i] as usize + 1;
        self.head[i] = if next == self.buf { 0 } else { next as u8 };
        self.len[i] -= 1;
        if self.len[i] == 0 {
            let (w, m) = word_mask(self.word_base[r], b);
            self.occ[w] &= !m;
        }
        f
    }

    /// Give router `r`'s input VC at local bit `b` an allocation.
    pub fn set_alloc(&mut self, r: usize, b: usize, a: Alloc) {
        let i = self.vc(r, b);
        self.alloc[i] = Some(a);
        let (w, m) = word_mask(self.word_base[r], b);
        self.allocated[w] |= m;
    }

    /// Drop the allocation of router `r`'s input VC at local bit `b`.
    pub fn clear_alloc(&mut self, r: usize, b: usize) {
        let i = self.vc(r, b);
        self.alloc[i] = None;
        let (w, m) = word_mask(self.word_base[r], b);
        self.allocated[w] &= !m;
    }

    /// Park the head at router `r`'s local bit `b` until an output VC
    /// on `port` is released.
    pub fn block(&mut self, r: usize, b: usize, port: usize) {
        let i = self.vc(r, b);
        self.wait_port[i] = port as u8;
        let (w, m) = word_mask(self.word_base[r], b);
        self.blocked[w] |= m;
    }

    /// An output VC on `port` of router `r` was released: wake every
    /// head waiting on that port.
    pub fn unblock(&mut self, r: usize, port: usize) {
        let base = self.vc_base[r] as usize;
        let w0 = self.word_base[r] as usize;
        for w in self.words(r) {
            let mut bits = self.blocked[w];
            while bits != 0 {
                let t = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.wait_port[base + ((w - w0) << 6) + t] as usize == port {
                    self.blocked[w] &= !(1u64 << t);
                }
            }
        }
    }

    /// Rebuild the `occ` and `allocated` words from the per-VC arrays
    /// and clear every `blocked` bit (blocked heads simply retry VA).
    pub fn rebuild_words(&mut self) {
        self.occ.fill(0);
        self.allocated.fill(0);
        self.blocked.fill(0);
        for r in 0..self.count() {
            for b in 0..self.bits(r) {
                let i = self.vc(r, b);
                let (w, m) = word_mask(self.word_base[r], b);
                if self.len[i] > 0 {
                    self.occ[w] |= m;
                }
                if self.alloc[i].is_some() {
                    self.allocated[w] |= m;
                }
            }
        }
    }

    /// Total free credits over the VC index range `[lo, hi)` of router
    /// `r`'s output port `port` (the DyXY congestion metric).
    pub fn free_credits(&self, r: usize, port: usize, lo: usize, hi: usize) -> u32 {
        let base = self.vc_at(r, port, 0);
        self.credits[base + lo..base + hi]
            .iter()
            .map(|&c| c as u32)
            .sum()
    }

    /// Total flits buffered in router `r`'s input VCs.
    pub fn buffered_flits(&self, r: usize) -> usize {
        let (lo, hi) = (self.vc_base[r] as usize, self.vc_base[r + 1] as usize);
        self.len[lo..hi].iter().map(|&l| l as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clognet_proto::Topology;

    fn mesh() -> Routers {
        Routers::new(&TopologyGraph::build(Topology::Mesh, 4, 4), 4, 4)
    }

    #[test]
    fn new_router_is_empty_with_full_credits() {
        let rs = mesh();
        assert_eq!(rs.count(), 16);
        assert_eq!(rs.ports(0), 5);
        assert_eq!(rs.bits(0), 20);
        assert!((0..16).all(|r| rs.idle(r) && rs.buffered_flits(r) == 0));
        assert_eq!(rs.free_credits(0, 2, 0, 4), 16);
    }

    #[test]
    fn free_credits_respects_range() {
        let mut rs = mesh();
        let base = rs.vc_at(3, 1, 0);
        rs.credits[base] = 0;
        rs.credits[base + 1] = 2;
        assert_eq!(rs.free_credits(3, 1, 0, 2), 2);
        assert_eq!(rs.free_credits(3, 1, 2, 4), 8);
    }

    #[test]
    fn ring_wraps_and_tracks_occupancy() {
        let mut rs = mesh();
        for round in 0..3u8 {
            for k in 0..4u8 {
                rs.push(
                    5,
                    7,
                    Flit {
                        idx: k + round,
                        ..Flit::EMPTY
                    },
                );
            }
            assert!(!rs.idle(5));
            for k in 0..4u8 {
                assert_eq!(rs.pop(5, 7).idx, k + round);
            }
            assert!(rs.idle(5));
        }
    }

    #[test]
    fn multi_word_routers_keep_bits_apart() {
        // A crossbar router with 16 ports x 8 VCs spans two words.
        let topo = TopologyGraph::build(Topology::Crossbar, 4, 4);
        let mut rs = Routers::new(&topo, 8, 4);
        assert_eq!(rs.words(0).len(), 2);
        rs.push(0, 127, Flit::EMPTY);
        rs.push(0, 3, Flit::EMPTY);
        assert_eq!(rs.occ, vec![1 << 3, 1 << 63]);
        rs.block(0, 127, 9);
        rs.block(0, 3, 2);
        rs.unblock(0, 9);
        assert_eq!(rs.blocked, vec![1 << 3, 0]);
    }
}

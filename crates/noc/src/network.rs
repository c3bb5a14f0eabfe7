//! The cycle-driven network: packet slab, network interfaces, and the
//! fused VA → SA → ST pass over all routers.
//!
//! One [`Network`] simulates one physical network. The baseline system
//! instantiates two (request + reply); the virtual-network configuration
//! instantiates a single shared one with per-class VC partitions.
//! Router state is flat and data-oriented (see [`crate::router`]).

use crate::flit::{Flit, Slot};
use crate::router::{Alloc, Link, Routers};
use crate::routing;
use crate::shards::{SaReq, ShardError, ShardPlan, ShardPool, ShardScratch, NO_REQ};
use crate::stats::{class_ix, prio_ix, NocStats};
use crate::topology::TopologyGraph;
use clognet_proto::snap::{self, SnapError, SnapReader, SnapWriter};
use clognet_proto::{Cycle, NodeId, Packet, Priority, RoutingPolicy, Topology, TrafficClass};
use std::collections::VecDeque;
use std::sync::Arc;

/// How traffic classes map onto this physical network's VCs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassAssignment {
    /// The network carries a single class with `vcs` virtual channels
    /// (the baseline's physically-separate request/reply networks).
    Single(TrafficClass, usize),
    /// Both classes share the physical network on disjoint VC sets
    /// (Section VII "virtual networks"; AVCP varies the split).
    Shared {
        /// VCs for request-class traffic.
        request_vcs: usize,
        /// VCs for reply-class traffic.
        reply_vcs: usize,
    },
}

impl ClassAssignment {
    /// The VC index range for `class`, or `None` if this network does not
    /// carry it.
    pub fn vc_range(&self, class: TrafficClass) -> Option<std::ops::Range<usize>> {
        match *self {
            ClassAssignment::Single(c, v) => (c == class).then_some(0..v),
            ClassAssignment::Shared {
                request_vcs,
                reply_vcs,
            } => match class {
                TrafficClass::Request => Some(0..request_vcs),
                TrafficClass::Reply => Some(request_vcs..request_vcs + reply_vcs),
            },
        }
    }

    /// Total VCs per port.
    pub fn total_vcs(&self) -> usize {
        match *self {
            ClassAssignment::Single(_, v) => v,
            ClassAssignment::Shared {
                request_vcs,
                reply_vcs,
            } => request_vcs + reply_vcs,
        }
    }
}

/// Construction parameters for one physical network.
#[derive(Debug, Clone)]
pub struct NetParams {
    /// Topology family.
    pub topology: Topology,
    /// Node-grid width.
    pub width: usize,
    /// Node-grid height.
    pub height: usize,
    /// Class → VC mapping.
    pub classes: ClassAssignment,
    /// Buffer depth per VC, in flits.
    pub vc_buf_flits: u8,
    /// Router pipeline depth in cycles (>= 2).
    pub pipeline: u32,
    /// Routing policy for request-class packets.
    pub routing_request: RoutingPolicy,
    /// Routing policy for reply-class packets.
    pub routing_reply: RoutingPolicy,
    /// Per-node ejection (reassembly) buffer, in flits. Must hold at
    /// least one maximum-size packet.
    pub eject_buf_flits: usize,
    /// iSLIP iterations per cycle (1 = the classic single-iteration
    /// separable allocator; more iterations fill in the matching and
    /// raise crossbar utilization at higher allocator cost).
    pub sa_iterations: usize,
}

impl NetParams {
    fn policy_for(&self, class: TrafficClass) -> RoutingPolicy {
        match class {
            TrafficClass::Request => self.routing_request,
            TrafficClass::Reply => self.routing_reply,
        }
    }
}

#[derive(Debug)]
struct Ni {
    router: usize,
    /// Local bit of VC 0 of the injection port at `router`.
    bit: usize,
    /// One streaming slot per VC index (only indices within a carried
    /// class's range are ever used): the next flit to stream, whose
    /// `idx` counts up to `total`.
    inj: Vec<Option<Flit>>,
    /// Per-VC: did a flit stream into the router on this VC last tick?
    progress: Vec<bool>,
    /// Round-robin pointer over injection VCs (one flit per cycle total:
    /// a node has a single physical injection channel per network,
    /// regardless of topology — the premise behind the paper's
    /// "each memory node has a single reply network link").
    inj_rr: usize,
    /// Did `try_inject` fail for this class since the last tick?
    want: [bool; 2],
    /// Flits currently held by the ejection buffer (including flits of
    /// packets already assembled but not yet taken by the node).
    eject_used: usize,
    /// Fully reassembled packets awaiting the node.
    ejected: VecDeque<Packet>,
}

#[derive(Debug, Default)]
struct PacketSlab {
    v: Vec<Option<Packet>>,
    free: Vec<u32>,
    live: usize,
}

impl PacketSlab {
    fn insert(&mut self, p: Packet) -> Slot {
        self.live += 1;
        if let Some(i) = self.free.pop() {
            self.v[i as usize] = Some(p);
            i
        } else {
            self.v.push(Some(p));
            (self.v.len() - 1) as u32
        }
    }

    fn get(&self, s: Slot) -> Option<&Packet> {
        self.v.get(s as usize).and_then(Option::as_ref)
    }

    fn remove(&mut self, s: Slot) -> Packet {
        self.live -= 1;
        self.free.push(s);
        self.v[s as usize].take().expect("live packet")
    }
}

fn set_bit(words: &mut [u64], n: usize) {
    words[n >> 6] |= 1u64 << (n & 63);
}

fn clear_bit(words: &mut [u64], n: usize) {
    words[n >> 6] &= !(1u64 << (n & 63));
}

/// Rotating distance from pointer `ptr` to `x` in `0..space` (both
/// below `space`): compare-and-subtract instead of a modulo.
fn dist(x: u32, ptr: u32, space: u32) -> u32 {
    if x >= ptr {
        x - ptr
    } else {
        x + space - ptr
    }
}

/// The successor of `x` in `0..space`, wrapping to 0.
fn next(x: u32, space: u32) -> u32 {
    if x + 1 == space {
        0
    } else {
        x + 1
    }
}

fn corrupt<T>(what: &'static str) -> Result<T, SnapError> {
    Err(SnapError::Corrupt(what))
}

/// A cycle-accurate wormhole network with virtual channels, credit-based
/// flow control, and iSLIP switch allocation with CPU priority.
///
/// # Example
///
/// ```
/// use clognet_noc::{ClassAssignment, NetParams, Network};
/// use clognet_proto::*;
///
/// let mut net = Network::new(NetParams {
///     topology: Topology::Mesh,
///     width: 4,
///     height: 4,
///     classes: ClassAssignment::Single(TrafficClass::Request, 2),
///     vc_buf_flits: 4,
///     pipeline: 4,
///     routing_request: RoutingPolicy::DorXY,
///     routing_reply: RoutingPolicy::DorXY,
///     eject_buf_flits: 32,
///     sa_iterations: 1,
/// });
/// let pkt = Packet::new(
///     PacketId(1), NodeId(0), NodeId(15), MsgKind::ReadReq,
///     Priority::Gpu, Addr::new(0x100), 128, 16, 0,
/// );
/// net.try_inject(pkt).unwrap();
/// for _ in 0..100 { net.tick(); }
/// let out = net.take_ejected(NodeId(15), usize::MAX);
/// assert_eq!(out.len(), 1);
/// ```
#[derive(Debug)]
pub struct Network {
    params: NetParams,
    topo: TopologyGraph,
    routers: Routers,
    nis: Vec<Ni>,
    packets: PacketSlab,
    now: Cycle,
    stats: NocStats,
    /// Flat output-VC indices owed a credit, applied at the end of the
    /// tick (one-cycle credit latency).
    credit_returns: Vec<u32>,
    /// Link transfers `(router, local bit, flit)`, applied at the end
    /// of the tick (arrivals become visible next tick).
    transfers: Vec<(u32, u32, Flit)>,
    stats_epoch: Cycle,
    /// Reference mode: when `false`, every router is visited each cycle
    /// and blocked heads retry VC allocation every cycle (for
    /// equivalence tests; results must be identical either way).
    idle_skip: bool,
    /// Spatial partition of the router range: one entry (all routers)
    /// for the sequential engine, per-row groups when sharded.
    plan: ShardPlan,
    /// Per-shard working sets (SA scratch + deferred cross-shard
    /// traffic), reused across cycles; `scratch.len() == plan.shards()`.
    scratch: Vec<ShardScratch>,
    /// Worker pool driving shards 1.. in parallel (`None` = sequential).
    /// Shared between sibling networks so the request/reply pair uses
    /// one set of threads.
    pool: Option<Arc<ShardPool>>,
    /// Per-slot received-flit counts for ejection reassembly, indexed by
    /// packet slot (a packet ejects at exactly one node, so one shared
    /// flat array serves every NI). Grows with the packet slab; a free
    /// slot's count is always zero.
    eject_counts: Vec<u8>,
    /// Per-class precomputed next-hop tables
    /// (`table[router * nodes + dst]`), present when the class's routing
    /// policy is deterministic on this topology; adaptive policies keep
    /// evaluating [`routing::candidates`] dynamically.
    route_tables: [Option<Vec<u8>>; 2],
    /// Per class: the RC/VA delay its flits pay at every router.
    delay: [u32; 2],
    /// Per class: its VC index range `(start, end)` (empty when the
    /// network does not carry it).
    vc_ranges: [(usize, usize); 2],
    /// Per class and priority: the VC sub-range a packet may occupy.
    partitions: [[(usize, usize); 2]; 2],
    /// Bitset over nodes: NIs holding at least one streaming slot. The
    /// injection loop visits only these.
    streaming: Vec<u64>,
    /// NIs that streamed a flit during the last tick (the only ones
    /// whose progress flags can be set).
    progressed: Vec<u32>,
    /// NIs whose `want` flag is set (a `try_inject` failed since the
    /// last tick).
    wanting: Vec<u32>,
    /// Bitset over nodes: NIs with reassembled packets waiting.
    ejecting: Vec<u64>,
    /// Reassembled packets waiting over all NIs.
    queued: usize,
}

impl Network {
    /// Build the network.
    ///
    /// # Panics
    ///
    /// Panics if the ejection buffer cannot hold a maximum-size packet or
    /// the VC assignment is empty.
    pub fn new(params: NetParams) -> Self {
        let total_vcs = params.classes.total_vcs();
        assert!(total_vcs > 0, "need at least one VC");
        assert!(params.pipeline >= 2, "pipeline must be at least 2 stages");
        let topo = TopologyGraph::build(params.topology, params.width, params.height);
        let routers = Routers::new(&topo, total_vcs, params.vc_buf_flits);
        let nis = (0..topo.nodes())
            .map(|n| {
                let (router, port) = topo.attach_of(NodeId(n as u16));
                Ni {
                    router,
                    bit: port * total_vcs,
                    inj: vec![None; total_vcs],
                    progress: vec![false; total_vcs],
                    inj_rr: 0,
                    want: [false; 2],
                    eject_used: 0,
                    ejected: VecDeque::new(),
                }
            })
            .collect();
        let stats = NocStats::new(topo.routers(), |r| topo.port_count(r), topo.nodes());
        let route_tables = [
            topo.route_table(params.policy_for(TrafficClass::Request)),
            topo.route_table(params.policy_for(TrafficClass::Reply)),
        ];
        let classes = [TrafficClass::Request, TrafficClass::Reply];
        let delay = classes.map(|c| {
            // RC + VA occupy pipeline-2 of the pipeline stages; SA and
            // ST are explicit in the tick loop. Adaptive routing pays one
            // extra stage for the heavier route computation / switch
            // allocation (the crossbar-congestion overhead of Dally &
            // Aoki cited by the paper as the reason adaptive schemes
            // lose to CDR).
            params.pipeline - 2 + u32::from(is_adaptive(params.policy_for(c)))
        });
        let vc_ranges = classes.map(|c| {
            params
                .classes
                .vc_range(c)
                .map_or((0, 0), |r| (r.start, r.end))
        });
        let partitions = classes.map(|c| {
            [Priority::Cpu, Priority::Gpu].map(|p| {
                if params.classes.vc_range(c).is_none() {
                    return (0, 0);
                }
                let r = vc_partition(&params, c, p);
                (r.start, r.end)
            })
        });
        let nodes = topo.nodes();
        let max_ports = (0..topo.routers())
            .map(|r| topo.port_count(r))
            .max()
            .unwrap_or(0);
        Network {
            params,
            routers,
            nis,
            packets: PacketSlab::default(),
            now: 0,
            stats,
            credit_returns: Vec::new(),
            transfers: Vec::new(),
            stats_epoch: 0,
            idle_skip: true,
            plan: ShardPlan::single(topo.routers()),
            scratch: vec![ShardScratch::new(max_ports)],
            pool: None,
            eject_counts: Vec::new(),
            route_tables,
            delay,
            vc_ranges,
            partitions,
            streaming: vec![0; nodes.div_ceil(64)],
            progressed: Vec::new(),
            wanting: Vec::new(),
            ejecting: vec![0; nodes.div_ceil(64)],
            queued: 0,
            topo,
        }
    }

    /// Toggle the engine fast paths (on by default): skipping routers
    /// with no buffered flits, and not retrying VC allocation for a
    /// head flit until an output VC it could take is released. Turning
    /// it off visits every router and retries every waiting head each
    /// cycle — a reference mode for equivalence tests; simulated
    /// behavior is identical either way, only wall-clock differs.
    pub fn set_idle_skip(&mut self, on: bool) {
        self.idle_skip = on;
        if !on {
            self.routers.blocked.fill(0);
        }
    }

    /// Configure spatial sharding. `n == 1` restores the sequential
    /// engine; `n > 1` partitions the mesh into per-row router groups
    /// ticked on a dedicated worker pool, one barrier phase per tick.
    /// Reports are byte-identical either way (see [`crate::shards`]).
    ///
    /// # Errors
    ///
    /// Fails when `n` shards cannot partition this topology: more than
    /// one shard requires a mesh whose row count `n` divides evenly.
    pub fn set_shards(&mut self, n: usize) -> Result<(), ShardError> {
        let pool = (n > 1).then(|| Arc::new(ShardPool::new(n)));
        self.set_shards_pooled(n, pool)
    }

    /// [`Self::set_shards`] with a caller-supplied pool, so sibling
    /// physical networks (the baseline's request + reply pair) share
    /// one set of worker threads. `pool` must be built for exactly `n`
    /// shards and be `None` iff `n == 1`.
    pub fn set_shards_pooled(
        &mut self,
        n: usize,
        pool: Option<Arc<ShardPool>>,
    ) -> Result<(), ShardError> {
        let plan = ShardPlan::new(
            self.params.topology,
            self.params.width,
            self.params.height,
            self.topo.routers(),
            n,
        )?;
        assert_eq!(
            pool.as_ref().map_or(1, |p| p.shards()),
            plan.shards(),
            "pool sized for a different shard count"
        );
        let max_ports = self.scratch[0].sa_grant.len();
        self.scratch = (0..plan.shards())
            .map(|_| ShardScratch::new(max_ports))
            .collect();
        self.plan = plan;
        self.pool = pool;
        Ok(())
    }

    /// Current shard count (1 = sequential engine).
    pub fn shards(&self) -> usize {
        self.plan.shards()
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The topology graph (for layout-aware statistics).
    pub fn topo(&self) -> &TopologyGraph {
        &self.topo
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Zero all statistics (warmup exclusion). The clock keeps running;
    /// latency means and rates computed afterwards cover only the
    /// post-reset window.
    pub fn reset_stats(&mut self) {
        let nodes = self.nis.len();
        let mut fresh = NocStats::new(self.routers.count(), |r| self.topo.port_count(r), nodes);
        fresh.cycles = 0;
        self.stats = fresh;
        self.stats_epoch = self.now;
    }

    /// Serialize the network's full mutable state: routers, NIs, the
    /// packet slab (including its free list, which decides future slot
    /// assignment), reassembly counters, clock and statistics. Engine
    /// configuration (idle-skip, shard plan, worker pool) and state
    /// derived from the rest (occupancy words, blocked heads, flit
    /// metadata copied from the slab) are deliberately excluded:
    /// snapshots are byte-identical across engine modes and a restored
    /// network may run under a different one.
    ///
    /// # Panics
    ///
    /// Panics if called mid-tick (deferred transfers or credit returns
    /// pending) — snapshots are only defined at tick boundaries.
    pub fn save_state(&self, w: &mut SnapWriter) {
        assert!(
            self.transfers.is_empty() && self.credit_returns.is_empty(),
            "snapshot mid-tick"
        );
        w.u64(self.now);
        w.usize(self.packets.v.len());
        for p in &self.packets.v {
            match p {
                Some(p) => {
                    w.bool(true);
                    snap::save_packet(w, p);
                }
                None => w.bool(false),
            }
        }
        w.usize(self.packets.free.len());
        for &s in &self.packets.free {
            w.u32(s);
        }
        w.usize(self.packets.live);
        let rs = &self.routers;
        for r in 0..rs.count() {
            let vcs = rs.vc(r, 0)..rs.vc(r, rs.bits(r));
            for i in vcs.clone() {
                let len = rs.len[i] as usize;
                w.usize(len);
                for k in 0..len {
                    let f = rs.ring[i * rs.buf + (rs.head[i] as usize + k) % rs.buf];
                    w.u32(f.slot);
                    w.u8(f.idx);
                    w.u8(f.total);
                    w.u64(f.eligible);
                }
                match rs.alloc[i] {
                    Some(a) => {
                        w.bool(true);
                        w.u8(a.port);
                        w.u8(a.vc);
                        w.bool(a.eject);
                    }
                    None => w.bool(false),
                }
            }
            for o in &rs.owner[vcs.clone()] {
                match o {
                    Some((i, v)) => {
                        w.bool(true);
                        w.u8(*i);
                        w.u8(*v);
                    }
                    None => w.bool(false),
                }
            }
            for &c in &rs.credits[vcs] {
                w.u8(c);
            }
            let ports = rs.port(r, 0)..rs.port(r, rs.ports(r));
            for &g in &rs.grant_ptr[ports.clone()] {
                w.usize(g as usize);
            }
            for &a in &rs.accept_ptr[ports.clone()] {
                w.usize(a as usize);
            }
            for &h in &rs.hare_score[ports.clone()] {
                w.f64(h);
            }
            for &f in &rs.footprint[ports] {
                w.u64(f);
            }
        }
        for ni in &self.nis {
            for s in &ni.inj {
                match s {
                    Some(f) => {
                        w.bool(true);
                        w.u32(f.slot);
                        w.u8(f.idx);
                        w.u8(f.total);
                    }
                    None => w.bool(false),
                }
            }
            for &p in &ni.progress {
                w.bool(p);
            }
            w.usize(ni.inj_rr);
            w.bool(ni.want[0]);
            w.bool(ni.want[1]);
            w.usize(ni.eject_used);
            w.usize(ni.ejected.len());
            for p in &ni.ejected {
                snap::save_packet(w, p);
            }
        }
        w.bytes(&self.eject_counts);
        w.u64(self.stats_epoch);
        self.stats.save_state(w);
    }

    /// Rebuild a flit (with its pipeline metadata) from the saved
    /// fields, checking it against the restored packet slab.
    fn load_flit(
        &self,
        slot: Slot,
        idx: u8,
        total: u8,
        eligible: Cycle,
    ) -> Result<Flit, SnapError> {
        let Some(pkt) = self.packets.get(slot) else {
            return corrupt("flit references a free packet slot");
        };
        if idx >= total || total != pkt.flits {
            return corrupt("flit index or count disagrees with its packet");
        }
        if pkt.dst.index() >= self.nis.len() {
            return corrupt("packet destination outside the network");
        }
        let c = class_ix(pkt.class());
        if self.vc_ranges[c].0 == self.vc_ranges[c].1 {
            return corrupt("packet class not carried by this network");
        }
        Ok(Flit {
            eligible,
            idx,
            ..Flit::head_of(pkt, slot, self.delay[c])
        })
    }

    /// Overlay state captured by [`Network::save_state`] onto a network
    /// built with the same [`NetParams`]. The current engine mode
    /// (idle-skip, shard plan) is preserved; occupancy words and flit
    /// metadata are rebuilt from the restored buffers and packet slab.
    ///
    /// # Errors
    ///
    /// Fails on a truncated stream, and with [`SnapError::Corrupt`] on
    /// any state the tick loop could not run from: VC lengths beyond
    /// the buffer depth, allocations or owners naming ports or VCs the
    /// router lacks, credits or arbitration pointers out of range,
    /// flits or injection slots that reference free packet slots, and
    /// inconsistent packet-slab or ejection-buffer bookkeeping.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.now = r.u64()?;
        let n = r.usize()?;
        self.packets.v.clear();
        for _ in 0..n {
            self.packets.v.push(if r.bool()? {
                Some(snap::load_packet(r)?)
            } else {
                None
            });
        }
        self.packets.free.clear();
        let mut freed = vec![false; n];
        for _ in 0..r.usize()? {
            let s = r.u32()?;
            match freed.get_mut(s as usize) {
                Some(seen) if !*seen && self.packets.v[s as usize].is_none() => *seen = true,
                _ => return corrupt("packet slab free list names a live or unknown slot"),
            }
            self.packets.free.push(s);
        }
        self.packets.live = r.usize()?;
        let live = self.packets.v.iter().filter(|p| p.is_some()).count();
        if self.packets.live != live || live + self.packets.free.len() != n {
            return Err(SnapError::Corrupt("packet slab live count mismatch"));
        }
        let (vcs, buf) = (self.routers.vcs, self.routers.buf);
        for router in 0..self.routers.count() {
            let ports = self.routers.ports(router);
            let flat = self.routers.vc(router, 0)..self.routers.vc(router, ports * vcs);
            for i in flat.clone() {
                let len = r.usize()?;
                if len > buf {
                    return corrupt("VC length exceeds the buffer depth");
                }
                for k in 0..len {
                    let (slot, idx, total, eligible) = (r.u32()?, r.u8()?, r.u8()?, r.u64()?);
                    let f = self.load_flit(slot, idx, total, eligible)?;
                    self.routers.ring[i * buf + k] = f;
                }
                self.routers.head[i] = 0;
                self.routers.len[i] = len as u8;
                self.routers.alloc[i] = if r.bool()? {
                    let a = Alloc {
                        port: r.u8()?,
                        vc: r.u8()?,
                        eject: r.bool()?,
                    };
                    if a.port as usize >= ports || a.vc as usize >= vcs {
                        return corrupt("VC allocation names a missing port or VC");
                    }
                    match (self.routers.link(router, a.port as usize), a.eject) {
                        (Link::Node(_), true) | (Link::Router { .. }, false) => {}
                        _ => return corrupt("VC allocation disagrees with its port's link"),
                    }
                    Some(a)
                } else {
                    if len > 0 && !self.routers.front(i).is_head() {
                        return corrupt("body flit at the front of an unallocated VC");
                    }
                    None
                };
            }
            for i in flat.clone() {
                self.routers.owner[i] = if r.bool()? {
                    let (p, v) = (r.u8()?, r.u8()?);
                    if p as usize >= ports || v as usize >= vcs {
                        return corrupt("output VC owner names a missing port or VC");
                    }
                    Some((p, v))
                } else {
                    None
                };
            }
            for i in flat {
                let c = r.u8()?;
                if c as usize > buf {
                    return corrupt("credit count exceeds the buffer depth");
                }
                self.routers.credits[i] = c;
            }
            let space = ports * vcs;
            let flat_ports = self.routers.port(router, 0)..self.routers.port(router, ports);
            for p in flat_ports.clone() {
                let g = r.usize()?;
                if g >= space {
                    return corrupt("grant pointer out of range");
                }
                self.routers.grant_ptr[p] = g as u32;
            }
            for p in flat_ports.clone() {
                let a = r.usize()?;
                if a >= vcs {
                    return corrupt("accept pointer out of range");
                }
                self.routers.accept_ptr[p] = a as u32;
            }
            for p in flat_ports.clone() {
                self.routers.hare_score[p] = r.f64()?;
            }
            for p in flat_ports {
                self.routers.footprint[p] = r.u64()?;
            }
        }
        // At a tick boundary every in-flight flit has landed and every
        // credit has returned: an output VC's credits plus the flits
        // buffered downstream equal the buffer depth exactly.
        for router in 0..self.routers.count() {
            for p in 0..self.routers.ports(router) {
                let Link::Router { router: s, bit } = self.routers.link(router, p) else {
                    continue;
                };
                for v in 0..vcs {
                    let c = self.routers.credits[self.routers.vc_at(router, p, v)];
                    let down = self.routers.len[self.routers.vc(s as usize, bit as usize + v)];
                    if c as usize + down as usize != buf {
                        return corrupt("credits disagree with downstream occupancy");
                    }
                }
            }
        }
        for n in 0..self.nis.len() {
            for vc in 0..vcs {
                let slot = if r.bool()? {
                    let (slot, idx, total) = (r.u32()?, r.u8()?, r.u8()?);
                    Some(self.load_flit(slot, idx, total, 0)?)
                } else {
                    None
                };
                self.nis[n].inj[vc] = slot;
            }
            let ni = &mut self.nis[n];
            for p in &mut ni.progress {
                *p = r.bool()?;
            }
            ni.inj_rr = r.usize()?;
            if ni.inj_rr >= vcs {
                return corrupt("injection round-robin pointer out of range");
            }
            ni.want = [r.bool()?, r.bool()?];
            ni.eject_used = r.usize()?;
            ni.ejected.clear();
            let mut held = 0;
            for _ in 0..r.usize()? {
                let p = snap::load_packet(r)?;
                held += p.flits as usize;
                ni.ejected.push_back(p);
            }
            if held > ni.eject_used || ni.eject_used > self.params.eject_buf_flits {
                return corrupt("ejection buffer accounting out of range");
            }
        }
        self.eject_counts = r.bytes()?;
        for (s, &c) in self.eject_counts.iter().enumerate() {
            let ok = c == 0 || self.packets.get(s as Slot).is_some_and(|p| c < p.flits);
            if !ok {
                return corrupt("reassembly count for a free slot or a complete packet");
            }
        }
        self.stats_epoch = r.u64()?;
        self.stats.load_state(r)?;
        self.rebuild_derived();
        self.transfers.clear();
        self.credit_returns.clear();
        Ok(())
    }

    /// Recompute everything derived from the saved state: occupancy
    /// words, the NI activity bitsets and lists, and the queued count.
    fn rebuild_derived(&mut self) {
        self.routers.rebuild_words();
        self.streaming.fill(0);
        self.ejecting.fill(0);
        self.progressed.clear();
        self.wanting.clear();
        self.queued = 0;
        for (n, ni) in self.nis.iter().enumerate() {
            if ni.inj.iter().any(Option::is_some) {
                set_bit(&mut self.streaming, n);
            }
            if !ni.ejected.is_empty() {
                set_bit(&mut self.ejecting, n);
            }
            if ni.progress.iter().any(|&p| p) {
                self.progressed.push(n as u32);
            }
            if ni.want.iter().any(|&w| w) {
                self.wanting.push(n as u32);
            }
            self.queued += ni.ejected.len();
        }
    }

    /// Packets currently inside the network (including reassembled ones
    /// not yet taken).
    pub fn in_flight(&self) -> usize {
        self.packets.live + self.queued
    }

    /// Reassembled packets waiting in NI ejection queues, over all
    /// nodes (a running count).
    pub fn queued_packets(&self) -> usize {
        self.queued
    }

    /// The lowest-numbered node at or after `from` whose NI holds
    /// reassembled packets. Walking `from = node + 1` visits exactly the
    /// nodes with queued packets in node order; the caller may take
    /// packets between steps.
    pub fn next_ejected_node(&self, from: usize) -> Option<NodeId> {
        let mut w = from >> 6;
        let mut bits = *self.ejecting.get(w)? & (!0u64 << (from & 63));
        loop {
            if bits != 0 {
                return Some(NodeId(((w << 6) + bits.trailing_zeros() as usize) as u16));
            }
            w += 1;
            bits = *self.ejecting.get(w)?;
        }
    }

    /// Flits buffered inside router input VCs (congestion diagnostic).
    pub fn buffered_flits(&self) -> usize {
        self.routers.len.iter().map(|&l| l as usize).sum()
    }

    /// Flits buffered inside one router's input VCs — the per-router VC
    /// occupancy hook the telemetry sampler reads to find hot spots.
    pub fn router_buffered_flits(&self, router: usize) -> usize {
        self.routers.buffered_flits(router)
    }

    /// Whether a new packet of (`class`, `prio`) could start streaming at
    /// `node` right now (a free injection VC in its partition exists).
    pub fn can_inject(&self, node: NodeId, class: TrafficClass, prio: Priority) -> bool {
        if self.params.classes.vc_range(class).is_none() {
            return false;
        }
        let mut slots = vc_partition(&self.params, class, prio);
        let ni = &self.nis[node.index()];
        slots.any(|v| ni.inj[v].is_none())
    }

    /// True when `node` could not inject (`class`, `prio`) traffic: every
    /// streaming slot of the partition is busy and none of them made
    /// progress during the last tick. This is the paper's trigger for
    /// speculative delegation ("only ... when memory nodes cannot inject
    /// reply traffic into the NoC").
    pub fn inject_blocked(&self, node: NodeId, class: TrafficClass, prio: Priority) -> bool {
        if self.params.classes.vc_range(class).is_none() {
            return true;
        }
        let mut slots = vc_partition(&self.params, class, prio);
        let ni = &self.nis[node.index()];
        slots.all(|v| ni.inj[v].is_some() && !ni.progress[v])
    }

    /// Hand a packet to the node's network interface.
    ///
    /// # Errors
    ///
    /// Returns the packet back if no injection VC of its class is free;
    /// the caller keeps it queued (this is exactly how memory-node
    /// injection buffers back up and block).
    ///
    /// # Panics
    ///
    /// Panics if this network does not carry the packet's class, or if
    /// `src == dst`.
    pub fn try_inject(&mut self, pkt: Packet) -> Result<(), Packet> {
        assert_ne!(pkt.src, pkt.dst, "self-send: {pkt}");
        let class = pkt.class();
        if self.params.classes.vc_range(class).is_none() {
            panic!("network does not carry {class}");
        }
        let mut slots = vc_partition(&self.params, class, pkt.prio);
        let n = pkt.src.index();
        let ni = &mut self.nis[n];
        let Some(vc) = slots.find(|&v| ni.inj[v].is_none()) else {
            if ni.want == [false; 2] {
                self.wanting.push(n as u32);
            }
            ni.want[class_ix(class)] = true;
            return Err(pkt);
        };
        self.stats.injected_pkts[class_ix(class)] += 1;
        self.stats.injected_flits[class_ix(class)] += pkt.flits as u64;
        let head = Flit::head_of(&pkt, 0, self.delay[class_ix(class)]);
        let slot = self.packets.insert(pkt);
        ni.inj[vc] = Some(Flit { slot, ..head });
        set_bit(&mut self.streaming, n);
        Ok(())
    }

    /// Bookkeeping after `count` packets left `node`'s ejection queue.
    fn took(&mut self, node: usize, count: usize) {
        self.queued -= count;
        if self.nis[node].ejected.is_empty() {
            clear_bit(&mut self.ejecting, node);
        }
    }

    /// Take the oldest fully-reassembled packet destined to `node`, if
    /// any. Taking a packet frees its flits' worth of ejection-buffer
    /// space; a node that stops taking (a blocked memory node)
    /// back-pressures the network. This is the allocation-free primitive
    /// behind [`Self::take_ejected`]; hot loops call it directly.
    pub fn pop_ejected(&mut self, node: NodeId) -> Option<Packet> {
        let ni = &mut self.nis[node.index()];
        let p = ni.ejected.pop_front()?;
        ni.eject_used -= p.flits as usize;
        self.took(node.index(), 1);
        Some(p)
    }

    /// Append up to `max` fully-reassembled packets destined to `node`
    /// onto `out` (which is NOT cleared), returning how many were moved.
    /// The fill-into-caller-buffer form of [`Self::take_ejected`]: the
    /// caller reuses one buffer across cycles instead of allocating a
    /// fresh `Vec` per call.
    pub fn take_ejected_into(&mut self, node: NodeId, max: usize, out: &mut Vec<Packet>) -> usize {
        let ni = &mut self.nis[node.index()];
        let n = ni.ejected.len().min(max);
        out.reserve(n);
        for _ in 0..n {
            let p = ni.ejected.pop_front().expect("counted");
            ni.eject_used -= p.flits as usize;
            out.push(p);
        }
        self.took(node.index(), n);
        n
    }

    /// Take up to `max` fully-reassembled packets destined to `node`.
    /// Convenience wrapper over [`Self::take_ejected_into`] for tests
    /// and examples; per-cycle code paths use the `_into`/`pop` variants
    /// to stay allocation-free.
    pub fn take_ejected(&mut self, node: NodeId, max: usize) -> Vec<Packet> {
        let mut out = Vec::new();
        self.take_ejected_into(node, max, &mut out);
        out
    }

    /// Append up to `max` reassembled packets at `node` onto `out`,
    /// serving CPU packets anywhere in the queue first (the
    /// memory-system CPU priority of Table I applied at the ejection
    /// interface). Returns how many were moved.
    pub fn take_ejected_cpu_first_into(
        &mut self,
        node: NodeId,
        max: usize,
        out: &mut Vec<Packet>,
    ) -> usize {
        let ni = &mut self.nis[node.index()];
        let mut n = 0;
        while n < max {
            let ix = ni
                .ejected
                .iter()
                .position(|p| p.prio == Priority::Cpu)
                .unwrap_or(0);
            let Some(p) = ni.ejected.remove(ix) else {
                break;
            };
            ni.eject_used -= p.flits as usize;
            out.push(p);
            n += 1;
        }
        self.took(node.index(), n);
        n
    }

    /// Take up to `max` reassembled packets at `node`, CPU first.
    /// Convenience wrapper over [`Self::take_ejected_cpu_first_into`].
    pub fn take_ejected_cpu_first(&mut self, node: NodeId, max: usize) -> Vec<Packet> {
        let mut out = Vec::new();
        self.take_ejected_cpu_first_into(node, max, &mut out);
        out
    }

    /// Peek the first reassembled packet waiting at `node`.
    pub fn peek_ejected(&self, node: NodeId) -> Option<&Packet> {
        self.nis[node.index()].ejected.front()
    }

    /// Number of reassembled packets waiting at `node`.
    pub fn ejected_len(&self, node: NodeId) -> usize {
        self.nis[node.index()].ejected.len()
    }

    /// The earliest future cycle at which [`Self::tick`] could change
    /// observable state absent new injections.
    ///
    /// `Some(now)` whenever any packet is live inside the network (a
    /// flit could move every cycle) or a HARE policy is configured (its
    /// per-port credit EWMA decays every cycle even when idle, so the
    /// network never quiesces). `None` means ticking is a pure clock
    /// increment and the caller may [`Self::advance_to`] instead.
    /// Reassembled packets waiting in ejection queues do not count: they
    /// are passive until the node takes them.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        debug_assert_eq!(now, self.now, "network clock out of sync");
        if self.packets.live > 0 || self.hare() {
            return Some(now);
        }
        None
    }

    /// Jump the network clock to `cycle` without ticking, integrating
    /// the skipped span into the cycle counter. Only valid when
    /// [`Self::next_event`] returned `None`: with no live packets the
    /// per-cycle work of [`Self::tick`] reduces to exactly this clock
    /// update.
    pub fn advance_to(&mut self, cycle: Cycle) {
        debug_assert!(cycle >= self.now, "clock must not run backwards");
        debug_assert_eq!(self.packets.live, 0, "advance_to with live packets");
        self.now = cycle;
        self.stats.cycles = self.now - self.stats_epoch;
    }

    /// Whether either class routes with HARE (whose per-port credit
    /// history updates every cycle).
    fn hare(&self) -> bool {
        matches!(self.params.routing_request, RoutingPolicy::Hare)
            || matches!(self.params.routing_reply, RoutingPolicy::Hare)
    }

    /// Advance the network by one cycle.
    ///
    /// Steady-state ticks perform zero heap allocations: all per-cycle
    /// working sets (SA requests/grants/matches, link transfers, credit
    /// returns) live in per-shard scratch buffers that are drained in
    /// place. Each router with buffered flits gets one fused visit that
    /// runs VA then SA/ST; routers with empty buffers are skipped.
    ///
    /// The router pass runs over the shard plan — inline for the
    /// sequential engine, fanned out over the worker pool when sharded
    /// — and the per-shard results merge in shard (= router) order, so
    /// both engines execute the identical state transition.
    pub fn tick(&mut self) {
        // Reset the NI progress flags set during the last tick.
        for &n in &self.progressed {
            self.nis[n as usize].progress.fill(false);
        }
        self.progressed.clear();
        if self.hare() {
            self.update_hare_scores();
        }
        // Pre-size the reassembly counters: slots are bounded by the
        // slab length, so the (possibly parallel) router pass indexes
        // without growing the array.
        if self.eject_counts.len() < self.packets.v.len() {
            self.eject_counts.resize(self.packets.v.len(), 0);
        }
        match self.pool.clone() {
            Some(pool) => pool.run(self),
            None => self.tick_shard(0),
        }
        self.merge_shards();
        // Apply link transfers (arrivals become visible next tick).
        // Drained in place: capacity is retained across cycles and
        // nothing pushes to `transfers` during the apply loop.
        for (r, b, f) in self.transfers.drain(..) {
            self.routers.push(r as usize, b as usize, f);
        }
        self.ni_injection();
        // Apply credit returns (one-cycle credit latency), drained in
        // place like the transfers above.
        for i in self.credit_returns.drain(..) {
            let c = &mut self.routers.credits[i as usize];
            *c += 1;
            assert!(
                *c <= self.params.vc_buf_flits,
                "credit overflow at output VC {i}"
            );
        }
        // Injection-stall accounting.
        for &n in &self.wanting {
            self.stats.node_inj_stall_cycles[n as usize] += 1;
            self.nis[n as usize].want = [false; 2];
        }
        self.wanting.clear();
        self.now += 1;
        self.stats.cycles = self.now - self.stats_epoch;
    }

    /// One fused pass over shard `s`'s router range: VA then SA/ST per
    /// router. In-place mutations stay within the shard (its routers and
    /// their locally attached NIs); everything crossing a boundary is
    /// deferred into the shard's scratch for the in-order merge.
    pub(crate) fn tick_shard(&mut self, s: usize) {
        let range = self.plan.router_range(s);
        let mut sc = std::mem::take(&mut self.scratch[s]);
        for r in range {
            if self.idle_skip && self.routers.idle(r) {
                continue;
            }
            self.va_router(r);
            self.sa_st_router(r, &mut sc);
        }
        self.scratch[s] = sc;
    }

    /// Fold the per-shard scratches back into global state, in shard
    /// order. Shard order equals router order, so the transfer, credit,
    /// and ejection streams — and with them the packet-slab free list
    /// that decides future slot assignment — are exactly what one
    /// sequential pass over all routers produces.
    fn merge_shards(&mut self) {
        for s in 0..self.scratch.len() {
            let mut sc = std::mem::take(&mut self.scratch[s]);
            for &(slot, node) in &sc.ejections {
                let pkt = self.packets.remove(slot);
                let latency = self.now - pkt.created;
                self.stats
                    .record_ejection(pkt.class(), pkt.prio, latency, node, pkt.flits);
                self.nis[node].ejected.push_back(pkt);
                set_bit(&mut self.ejecting, node);
                self.queued += 1;
            }
            sc.ejections.clear();
            // The global apply buffers are empty here (drained last
            // tick); swapping donates the scratch's capacity instead of
            // copying, keeping the single-shard path free of extra work.
            if self.transfers.is_empty() {
                std::mem::swap(&mut self.transfers, &mut sc.transfers);
            } else {
                self.transfers.append(&mut sc.transfers);
            }
            if self.credit_returns.is_empty() {
                std::mem::swap(&mut self.credit_returns, &mut sc.credit_returns);
            } else {
                self.credit_returns.append(&mut sc.credit_returns);
            }
            self.scratch[s] = sc;
        }
    }

    /// HARE keeps an EWMA of per-port free credits, updated every cycle
    /// when a HARE policy is configured.
    fn update_hare_scores(&mut self) {
        let rs = &mut self.routers;
        // Ports are laid out in flat order, each owning `vcs` credits.
        for (h, credits) in rs
            .hare_score
            .iter_mut()
            .zip(rs.credits.chunks_exact(rs.vcs))
        {
            let free: u32 = credits.iter().map(|&c| c as u32).sum();
            *h = 0.9 * *h + 0.1 * free as f64;
        }
    }

    /// VC allocation: give head flits at the front of their input VC an
    /// output port + output VC, in ascending (port, vc) order. Reads and
    /// writes router `r` only.
    ///
    /// A table-routed head that finds no free output VC is parked on its
    /// port's `blocked` bit: its outcome cannot change until an output
    /// VC on that port is released at this router (`traverse` wakes it),
    /// so it is not retried until then. Adaptive heads retry every
    /// cycle (their choice reads congestion state that changes without
    /// a release).
    fn va_router(&mut self, r: usize) {
        let words = self.routers.words(r);
        let w0 = words.start;
        let nodes = self.nis.len();
        for w in words {
            let rs = &self.routers;
            let mut bits = rs.occ[w] & !rs.allocated[w] & !rs.blocked[w];
            while bits != 0 {
                let b = ((w - w0) << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let f = *self.routers.front(self.routers.vc(r, b));
                debug_assert!(f.is_head(), "body flit at VC head without allocation");
                if f.eligible > self.now {
                    continue;
                }
                let policy = self.params.policy_for(f.class);
                // Deterministic policies read the precomputed next-hop
                // table; adaptive ones evaluate the routing relation per
                // head flit.
                let (cand, tabled) = match &self.route_tables[class_ix(f.class)] {
                    Some(t) => (
                        routing::Candidates::single(t[r * nodes + f.dst.index()] as usize),
                        true,
                    ),
                    None => (routing::candidates(&self.topo, r, f.dst, policy), false),
                };
                match self.choose_output(r, &f, policy, &cand) {
                    Some(alloc) => {
                        if !alloc.eject {
                            let o = self
                                .routers
                                .vc_at(r, alloc.port as usize, alloc.vc as usize);
                            let rs = &mut self.routers;
                            rs.owner[o] = Some((rs.bit_port[b] as u8, rs.bit_vc[b]));
                        }
                        self.routers.set_alloc(r, b, alloc);
                    }
                    None if tabled && self.idle_skip => {
                        self.routers.block(r, b, cand.escape_port());
                    }
                    None => {}
                }
            }
        }
    }

    /// Pick (port, out VC) among the routing candidates according to the
    /// policy's congestion preference; `None` if nothing is free.
    fn choose_output(
        &self,
        r: usize,
        f: &Flit,
        policy: RoutingPolicy,
        cand: &routing::Candidates,
    ) -> Option<Alloc> {
        let rs = &self.routers;
        // Ejection port: no VC ownership, gated by the NI buffer in SA.
        let first = cand.escape_port();
        if let Link::Node(_) = rs.link(r, first) {
            return Some(Alloc {
                port: first as u8,
                vc: 0,
                eject: true,
            });
        }
        let (range_start, range_end) = self.vc_ranges[class_ix(f.class)];
        let (part_start, part_end) = self.partitions[class_ix(f.class)][prio_ix(f.prio)];
        let floor = routing::vc_floor(&self.topo, r, f.dst);
        // Order candidates by the policy's preference. At most 3
        // candidates exist (escape + adaptive alternatives), so a stack
        // array holds them.
        let n_cand = cand.ports().len();
        let mut port_buf = [0usize; 3];
        port_buf[..n_cand].copy_from_slice(cand.ports());
        let ports = &mut port_buf[..n_cand];
        match policy {
            RoutingPolicy::DorXY | RoutingPolicy::DorYX => {}
            RoutingPolicy::DyXY => {
                // Most free credits first; escape wins ties.
                ports.sort_by_key(|&p| {
                    (
                        u32::MAX - rs.free_credits(r, p, range_start, range_end),
                        !cand.is_escape(p) as u8,
                    )
                });
            }
            RoutingPolicy::Footprint => {
                // Escape first unless the adaptive port was recently
                // profitable or the escape route is out of credits.
                let escape = cand.escape_port();
                let escape_starved = rs.free_credits(r, escape, range_start, range_end) == 0;
                ports.sort_by_key(|&p| {
                    if cand.is_escape(p) {
                        u8::from(escape_starved)
                    } else {
                        let fresh = self.now.saturating_sub(rs.footprint[rs.port(r, p)]) < 64;
                        if escape_starved || fresh {
                            0
                        } else {
                            2
                        }
                    }
                });
            }
            RoutingPolicy::Hare => {
                ports.sort_by(|&a, &b| {
                    rs.hare_score[rs.port(r, b)]
                        .partial_cmp(&rs.hare_score[rs.port(r, a)])
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
            }
        }
        // The escape VC (first VC of the class range) is reserved for
        // the dimension-order port under adaptive mesh policies.
        let adaptive_mesh = is_adaptive(policy) && self.topo.kind() == Topology::Mesh;
        for &p in ports.iter() {
            let start_off = usize::from(adaptive_mesh && !cand.is_escape(p));
            let lo = (range_start + start_off.max(floor)).max(part_start);
            let base = rs.vc_at(r, p, 0);
            if let Some(vc) = (lo..part_end).find(|&vc| rs.owner[base + vc].is_none()) {
                return Some(Alloc {
                    port: p as u8,
                    vc: vc as u8,
                    eject: false,
                });
            }
        }
        None
    }

    /// Switch allocation (iterative iSLIP with strict CPU priority)
    /// followed by switch/link traversal for the winners.
    ///
    /// All working sets live in the `sa_*` buffers of the shard's
    /// scratch: cleared (not reallocated) per router, so steady-state
    /// cycles never touch the heap.
    fn sa_st_router(&mut self, r: usize, sc: &mut ShardScratch) {
        // Gather requests in ascending (port, vc) order.
        sc.sa_req.clear();
        let rs = &self.routers;
        let words = rs.words(r);
        let w0 = words.start;
        for w in words {
            let mut bits = rs.occ[w] & rs.allocated[w];
            while bits != 0 {
                let b = ((w - w0) << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let i = rs.vc(r, b);
                let f = rs.front(i);
                if f.eligible > self.now {
                    continue;
                }
                let alloc = rs.alloc[i].expect("allocated bit without allocation");
                let ok = if alloc.eject {
                    let Link::Node(node) = rs.link(r, alloc.port as usize) else {
                        panic!("eject alloc to a router port");
                    };
                    // Head flits reserve the whole packet's reassembly
                    // space up front so interleaved partial packets can
                    // never wedge the ejection buffer.
                    !f.is_head()
                        || self.nis[node.index()].eject_used + f.total as usize
                            <= self.params.eject_buf_flits
                } else {
                    rs.credits[rs.vc_at(r, alloc.port as usize, alloc.vc as usize)] > 0
                };
                if ok {
                    sc.sa_req.push(SaReq {
                        bit: b as u32,
                        out: alloc.port as u16,
                        inp: rs.bit_port[b],
                        vc: rs.bit_vc[b],
                        prio: f.prio,
                    });
                }
            }
        }
        match sc.sa_req.len() {
            0 => return,
            // A lone request is granted by its output and accepted by
            // its input in the first round.
            1 => {
                sc.sa_accepted.clear();
                sc.sa_accepted.push(0);
                self.advance_pointers(r, sc.sa_req[0]);
            }
            _ => self.match_requests(r, sc),
        }
        for k in 0..sc.sa_accepted.len() {
            let q = sc.sa_req[sc.sa_accepted[k] as usize];
            self.traverse(r, q, sc);
        }
    }

    /// iSLIP pointer update for an accepted request: past the winner.
    fn advance_pointers(&mut self, r: usize, q: SaReq) {
        let space = self.routers.bits(r) as u32;
        let vcs = self.routers.vcs as u32;
        let out = self.routers.port(r, q.out as usize);
        let inp = self.routers.port(r, q.inp as usize);
        self.routers.grant_ptr[out] = next(q.bit, space);
        self.routers.accept_ptr[inp] = next(q.vc as u32, vcs);
    }

    /// Iterative separable matching over `sc.sa_req`: each round runs a
    /// grant pass (one request per free output: CPU first, then nearest
    /// the output's rotating pointer) and an accept pass (one grant per
    /// free input, likewise); matched pairs leave and the next round
    /// fills in the matching. Fills `sc.sa_accepted` in round order,
    /// ascending input port within a round.
    fn match_requests(&mut self, r: usize, sc: &mut ShardScratch) {
        let space = self.routers.bits(r) as u32;
        let vcs = self.routers.vcs as u32;
        let pb = self.routers.port(r, 0);
        let n_req = sc.sa_req.len();
        sc.sa_accepted.clear();
        for round in 0..self.params.sa_iterations.max(1) {
            sc.sa_outs.clear();
            for k in 0..n_req {
                let q = sc.sa_req[k];
                let (o, i) = (q.out as usize, q.inp as usize);
                if sc.sa_out_taken[o] || sc.sa_in_taken[i] {
                    continue;
                }
                let g = sc.sa_grant[o];
                if g == NO_REQ {
                    sc.sa_grant[o] = k as u16;
                    sc.sa_outs.push(q.out);
                } else {
                    let ptr = self.routers.grant_ptr[pb + o];
                    let best = sc.sa_req[g as usize];
                    if (q.prio, dist(q.bit, ptr, space)) < (best.prio, dist(best.bit, ptr, space)) {
                        sc.sa_grant[o] = k as u16;
                    }
                }
            }
            if sc.sa_outs.is_empty() {
                break;
            }
            for &o in &sc.sa_outs {
                let k = std::mem::replace(&mut sc.sa_grant[o as usize], NO_REQ);
                let q = sc.sa_req[k as usize];
                let i = q.inp as usize;
                let a = sc.sa_accept[i];
                if a == NO_REQ {
                    sc.sa_accept[i] = k;
                } else {
                    let ptr = self.routers.accept_ptr[pb + i];
                    let best = sc.sa_req[a as usize];
                    if (q.prio, dist(q.vc as u32, ptr, vcs))
                        < (best.prio, dist(best.vc as u32, ptr, vcs))
                    {
                        sc.sa_accept[i] = k;
                    }
                }
            }
            // Requests are in ascending input order, so this walk emits
            // the round's matches in ascending input order.
            for k in 0..n_req {
                let q = sc.sa_req[k];
                let i = q.inp as usize;
                if sc.sa_accept[i] != k as u16 {
                    continue;
                }
                sc.sa_accept[i] = NO_REQ;
                sc.sa_accepted.push(k as u16);
                sc.sa_in_taken[i] = true;
                sc.sa_out_taken[q.out as usize] = true;
                // iSLIP pointer updates only on first-iteration accepts
                // (the classic desynchronization rule).
                if round == 0 {
                    self.advance_pointers(r, q);
                }
            }
        }
        for &k in &sc.sa_accepted {
            let q = sc.sa_req[k as usize];
            sc.sa_in_taken[q.inp as usize] = false;
            sc.sa_out_taken[q.out as usize] = false;
        }
    }

    /// Move the head-of-VC flit of request `q` at router `r` out of its
    /// output port. Cross-shard effects (credit returns, link transfers,
    /// ejection finalization) are deferred into `sc`.
    fn traverse(&mut self, r: usize, q: SaReq, sc: &mut ShardScratch) {
        let (b, op) = (q.bit as usize, q.out as usize);
        let alloc = self.routers.alloc[self.routers.vc(r, b)].expect("allocated");
        debug_assert_eq!(alloc.port as usize, op);
        let f = self.routers.pop(r, b);
        self.stats.link_flits[r][op] += 1;
        // Credit return towards whoever feeds this input VC (possibly a
        // router in another shard — deferred).
        if let Link::Router { router: s, bit } = self.routers.link(r, q.inp as usize) {
            sc.credit_returns
                .push(self.routers.vc_base[s as usize] + bit + q.vc as u32);
        }
        let tail = f.is_tail();
        match self.routers.link(r, op) {
            Link::Node(node) => {
                // Ejection into the NI reassembly buffer. Space for the
                // whole packet was reserved when the head ejected; the
                // NI is locally attached, hence shard-local.
                if f.is_head() {
                    self.nis[node.index()].eject_used += f.total as usize;
                }
                let s = f.slot as usize;
                debug_assert!(s < self.eject_counts.len(), "counters pre-sized in tick");
                self.eject_counts[s] += 1;
                if self.eject_counts[s] == f.total {
                    self.eject_counts[s] = 0;
                    // Completion touches shared state (packet slab,
                    // global stats); finalized during the in-order merge.
                    sc.ejections.push((f.slot, node.index()));
                }
            }
            Link::Router { router: s, bit } => {
                let o = self.routers.vc_at(r, op, alloc.vc as usize);
                let c = &mut self.routers.credits[o];
                debug_assert!(*c > 0);
                *c -= 1;
                // Footprint: taking a port marks it profitable.
                let p = self.routers.port(r, op);
                self.routers.footprint[p] = self.now;
                let arrival = Flit {
                    eligible: self.now + 1 + Cycle::from(f.delay),
                    ..f
                };
                sc.transfers.push((s, bit + alloc.vc as u32, arrival));
                if tail {
                    self.routers.owner[o] = None;
                    self.routers.unblock(r, op);
                }
            }
            Link::Unused => panic!("routed into an unwired port"),
        }
        if tail {
            self.routers.clear_alloc(r, b);
        }
    }

    /// Stream flits from NI injection slots into the local input VCs:
    /// at most ONE flit per node per cycle — the node's single physical
    /// injection channel, whatever the topology. Only NIs with a
    /// streaming slot are visited.
    fn ni_injection(&mut self) {
        let vcs = self.routers.vcs;
        for w in 0..self.streaming.len() {
            let mut bits = self.streaming[w];
            while bits != 0 {
                let n = (w << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let ni = &mut self.nis[n];
                let mut vc = ni.inj_rr;
                for _ in 0..vcs {
                    if let Some(f) = ni.inj[vc] {
                        let i = self.routers.vc(ni.router, ni.bit + vc);
                        if (self.routers.len[i] as usize) < self.routers.buf {
                            let arrival = Flit {
                                eligible: self.now + 1 + Cycle::from(f.delay),
                                ..f
                            };
                            self.routers.push(ni.router, ni.bit + vc, arrival);
                            self.stats.node_tx_flits[n] += 1;
                            ni.progress[vc] = true;
                            self.progressed.push(n as u32);
                            if f.is_tail() {
                                ni.inj[vc] = None;
                                if ni.inj.iter().all(Option::is_none) {
                                    clear_bit(&mut self.streaming, n);
                                }
                            } else {
                                ni.inj[vc] = Some(Flit {
                                    idx: f.idx + 1,
                                    ..f
                                });
                            }
                            ni.inj_rr = next(vc as u32, vcs as u32) as usize;
                            break;
                        }
                    }
                    vc = next(vc as u32, vcs as u32) as usize;
                }
            }
        }
    }
}

/// Adaptive routing policies pay an extra pipeline stage and keep the
/// escape VC for the dimension-order port.
fn is_adaptive(policy: RoutingPolicy) -> bool {
    matches!(
        policy,
        RoutingPolicy::DyXY | RoutingPolicy::Footprint | RoutingPolicy::Hare
    )
}

/// The VC sub-range a packet of (`class`, `prio`) may occupy.
///
/// On the reply network the top VC of the class range is reserved for
/// CPU packets (and CPU packets use only it): this is how "higher
/// priority to CPU packets in the VC allocator" (Table I / Zhan+
/// OSCAR) becomes effective despite FIFO VC buffers — a CPU reply is
/// never stuck behind a wormholing GPU reply. The request network
/// keeps shared VCs: 1-flit requests cause no wormhole head-of-line
/// blocking worth a dedicated VC, and halving the GPU request VCs
/// measurably hurts both classes. Dragonfly needs its second VC for
/// deadlock avoidance, so no reservation there.
fn vc_partition(params: &NetParams, class: TrafficClass, prio: Priority) -> std::ops::Range<usize> {
    let range = params.classes.vc_range(class).expect("carried class");
    if class == TrafficClass::Reply && range.len() >= 2 && params.topology != Topology::Dragonfly {
        match prio {
            Priority::Cpu => range.end - 1..range.end,
            Priority::Gpu => range.start..range.end - 1,
        }
    } else {
        range
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clognet_proto::{Addr, MsgKind, PacketId};

    fn params(topology: Topology) -> NetParams {
        NetParams {
            topology,
            width: 8,
            height: 8,
            classes: ClassAssignment::Single(TrafficClass::Request, 2),
            vc_buf_flits: 4,
            pipeline: 4,
            routing_request: RoutingPolicy::DorXY,
            routing_reply: RoutingPolicy::DorXY,
            eject_buf_flits: 32,
            sa_iterations: 1,
        }
    }

    fn mk_pkt(id: u64, src: u16, dst: u16, kind: MsgKind, now: Cycle) -> Packet {
        Packet::new(
            PacketId(id),
            NodeId(src),
            NodeId(dst),
            kind,
            Priority::Gpu,
            Addr::new(id * 128),
            128,
            16,
            now,
        )
    }

    #[test]
    fn single_packet_delivery() {
        let mut net = Network::new(params(Topology::Mesh));
        net.try_inject(mk_pkt(1, 0, 63, MsgKind::ReadReq, 0))
            .unwrap();
        for _ in 0..200 {
            net.tick();
        }
        let out = net.take_ejected(NodeId(63), usize::MAX);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, PacketId(1));
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn latency_scales_with_hops() {
        // 14-hop corner-to-corner vs 1-hop neighbor.
        let mut net = Network::new(params(Topology::Mesh));
        net.try_inject(mk_pkt(1, 0, 63, MsgKind::ReadReq, 0))
            .unwrap();
        // Single-flit packet: the injection slot frees after one tick.
        let mut second = Some(mk_pkt(2, 0, 1, MsgKind::ReadReq, 0));
        for _ in 0..300 {
            if let Some(p) = second.take() {
                second = net.try_inject(p).err();
            }
            net.tick();
        }
        assert!(second.is_none(), "second packet never injected");
        let far = net.stats().latency[0][1].max_cycles;
        assert!(net.take_ejected(NodeId(1), 1).len() == 1);
        assert!(net.take_ejected(NodeId(63), 1).len() == 1);
        // Far packet needs at least 14 hops * ~4 cycles.
        assert!(far >= 14 * 3, "far latency {far}");
        assert!(far <= 200, "far latency {far}");
    }

    #[test]
    fn multi_flit_packet_reassembles_once() {
        let mut net = Network::new(NetParams {
            classes: ClassAssignment::Single(TrafficClass::Reply, 2),
            ..params(Topology::Mesh)
        });
        net.try_inject(mk_pkt(7, 10, 53, MsgKind::ReadReply, 0))
            .unwrap();
        for _ in 0..300 {
            net.tick();
        }
        let out = net.take_ejected(NodeId(53), usize::MAX);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].flits, 9);
        assert_eq!(net.stats().node_rx_flits[53], 9);
    }

    #[test]
    fn all_topologies_deliver_all_to_all() {
        for topology in Topology::ALL {
            let mut net = Network::new(params(topology));
            let mut id = 0;
            let mut expected = vec![0usize; 64];
            for s in (0..64u16).step_by(5) {
                for d in (1..64u16).step_by(7) {
                    if s == d {
                        continue;
                    }
                    id += 1;
                    net.try_inject(mk_pkt(id, s, d, MsgKind::ReadReq, 0))
                        .unwrap_or_else(|_| panic!("{topology:?} inject"));
                    expected[d as usize] += 1;
                    // Let the NI drain so injection slots free up.
                    for _ in 0..4 {
                        net.tick();
                    }
                }
            }
            for _ in 0..2000 {
                net.tick();
            }
            // The node-order cursor visits exactly the nodes holding
            // packets, and the running count matches.
            let mut walked = Vec::new();
            let mut from = 0;
            while let Some(n) = net.next_ejected_node(from) {
                walked.push(n.index());
                from = n.index() + 1;
            }
            let holding: Vec<usize> = (0..64).filter(|&d| expected[d] > 0).collect();
            assert_eq!(walked, holding, "{topology:?} cursor");
            assert_eq!(
                net.queued_packets(),
                expected.iter().sum::<usize>(),
                "{topology:?} queued count"
            );
            for (d, &want) in expected.iter().enumerate() {
                let got = net.take_ejected(NodeId(d as u16), usize::MAX).len();
                assert_eq!(got, want, "{topology:?} node {d}");
            }
            assert_eq!(net.in_flight(), 0, "{topology:?} leftover");
        }
    }

    #[test]
    fn inject_blocked_reflects_backpressure() {
        let mut net = Network::new(NetParams {
            classes: ClassAssignment::Single(TrafficClass::Reply, 2),
            ..params(Topology::Mesh)
        });
        // Flood node 0's reply NI with far-destination 9-flit packets and
        // never let destination 63 take them; with a full pipe, injection
        // eventually blocks.
        let mut id = 0;
        let mut blocked_seen = false;
        for _ in 0..400 {
            id += 1;
            let _ = net.try_inject(mk_pkt(id, 0, 63, MsgKind::ReadReply, net.now()));
            net.tick();
            if net.inject_blocked(NodeId(0), TrafficClass::Reply, Priority::Gpu) {
                blocked_seen = true;
            }
        }
        assert!(blocked_seen, "backpressure never reached the source NI");
        // The destination's ejection buffer is full (nobody takes).
        assert!(net.ejected_len(NodeId(63)) >= 1);
    }

    #[test]
    fn take_ejected_frees_buffer_space() {
        let mut net = Network::new(NetParams {
            classes: ClassAssignment::Single(TrafficClass::Reply, 2),
            eject_buf_flits: 9,
            sa_iterations: 1,
            ..params(Topology::Mesh)
        });
        net.try_inject(mk_pkt(1, 0, 1, MsgKind::ReadReply, 0))
            .unwrap();
        let mut second = Some(mk_pkt(2, 0, 1, MsgKind::ReadReply, 0));
        for _ in 0..100 {
            if let Some(pkt) = second.take() {
                second = net.try_inject(pkt).err();
            }
            net.tick();
        }
        assert!(second.is_none(), "second packet never injected");
        // Only one packet fits in the 9-flit eject buffer.
        assert_eq!(net.ejected_len(NodeId(1)), 1);
        let got = net.take_ejected(NodeId(1), usize::MAX);
        assert_eq!(got.len(), 1);
        for _ in 0..100 {
            net.tick();
        }
        assert_eq!(net.take_ejected(NodeId(1), usize::MAX).len(), 1);
    }

    #[test]
    fn cpu_priority_wins_contention() {
        // Saturate the reply network with many-to-one 9-flit GPU replies,
        // then send occasional CPU replies along the same path; the
        // CPU-reserved VC plus strict SA priority must keep CPU latency
        // well below GPU latency.
        let mut net = Network::new(NetParams {
            classes: ClassAssignment::Single(TrafficClass::Reply, 2),
            ..params(Topology::Mesh)
        });
        let mut id = 0;
        for t in 0..1500u64 {
            for s in [0u16, 1, 2] {
                id += 1;
                let _ = net.try_inject(mk_pkt(id, s, 7, MsgKind::ReadReply, net.now()));
            }
            if t % 50 == 10 {
                id += 1;
                let mut p = mk_pkt(id, 3, 7, MsgKind::ReadReply, net.now());
                p.prio = Priority::Cpu;
                let _ = net.try_inject(p);
            }
            net.tick();
            net.take_ejected(NodeId(7), usize::MAX);
        }
        for _ in 0..1000 {
            net.tick();
            net.take_ejected(NodeId(7), usize::MAX);
        }
        let cpu = net.stats().mean_latency(TrafficClass::Reply, Priority::Cpu);
        let gpu = net.stats().mean_latency(TrafficClass::Reply, Priority::Gpu);
        assert!(cpu > 0.0 && gpu > 0.0);
        assert!(
            cpu < gpu * 0.7,
            "CPU priority too weak: cpu {cpu:.1} vs gpu {gpu:.1}"
        );
    }

    #[test]
    fn virtual_networks_carry_both_classes() {
        let mut net = Network::new(NetParams {
            classes: ClassAssignment::Shared {
                request_vcs: 2,
                reply_vcs: 2,
            },
            ..params(Topology::Mesh)
        });
        net.try_inject(mk_pkt(1, 0, 63, MsgKind::ReadReq, 0))
            .unwrap();
        net.try_inject(mk_pkt(2, 63, 0, MsgKind::ReadReply, 0))
            .unwrap();
        for _ in 0..300 {
            net.tick();
        }
        assert_eq!(net.take_ejected(NodeId(63), 9).len(), 1);
        assert_eq!(net.take_ejected(NodeId(0), 9).len(), 1);
    }

    #[test]
    fn more_islip_iterations_never_slow_delivery() {
        // Heavy many-to-many load; a 3-iteration allocator must deliver
        // everything at least as fast as the single-iteration one.
        let run = |iters: usize| -> u64 {
            let mut net = Network::new(NetParams {
                sa_iterations: iters,
                ..params(Topology::Mesh)
            });
            let mut queue: Vec<Packet> = (0..120u64)
                .map(|i| {
                    let s = (i * 7 % 64) as u16;
                    let d = (i * 13 % 64) as u16;
                    let d = if d == s { (d + 1) % 64 } else { d };
                    mk_pkt(i, s, d, MsgKind::ReadReq, 0)
                })
                .collect();
            let mut delivered = 0u64;
            for now in 0..6_000u64 {
                if let Some(p) = queue.pop() {
                    if let Err(back) = net.try_inject(p) {
                        queue.push(back);
                    }
                }
                net.tick();
                for d in 0..64 {
                    delivered += net.take_ejected(NodeId(d), usize::MAX).len() as u64;
                }
                if delivered == 120 && queue.is_empty() {
                    return now;
                }
            }
            panic!("never delivered everything with {iters} iterations");
        };
        let one = run(1);
        let three = run(3);
        assert!(
            three <= one + 8,
            "3-iteration iSLIP slower: {three} vs {one}"
        );
    }

    #[test]
    fn take_ejected_cpu_first_reorders() {
        let mut net = Network::new(NetParams {
            classes: ClassAssignment::Single(TrafficClass::Reply, 2),
            ..params(Topology::Mesh)
        });
        let mut gpu = mk_pkt(1, 0, 1, MsgKind::ReadReply, 0);
        gpu.prio = Priority::Gpu;
        let mut cpu = mk_pkt(2, 8, 1, MsgKind::ReadReply, 0);
        cpu.prio = Priority::Cpu;
        net.try_inject(gpu).unwrap();
        net.try_inject(cpu).unwrap();
        for _ in 0..200 {
            net.tick();
        }
        assert_eq!(net.ejected_len(NodeId(1)), 2);
        let got = net.take_ejected_cpu_first(NodeId(1), 2);
        assert_eq!(got[0].prio, Priority::Cpu, "CPU packet must come first");
        assert_eq!(got.len(), 2);
    }

    #[test]
    #[should_panic(expected = "does not carry")]
    fn wrong_class_injection_panics() {
        let mut net = Network::new(params(Topology::Mesh));
        let _ = net.try_inject(mk_pkt(1, 0, 1, MsgKind::ReadReply, 0));
    }

    #[test]
    fn adaptive_policies_deliver() {
        for policy in [
            RoutingPolicy::DyXY,
            RoutingPolicy::Footprint,
            RoutingPolicy::Hare,
        ] {
            let mut net = Network::new(NetParams {
                routing_request: policy,
                ..params(Topology::Mesh)
            });
            let mut id = 0;
            for s in 0..16u16 {
                for d in 48..64u16 {
                    id += 1;
                    while net
                        .try_inject(mk_pkt(id, s, d, MsgKind::ReadReq, net.now()))
                        .is_err()
                    {
                        net.tick();
                    }
                }
            }
            for _ in 0..3000 {
                net.tick();
            }
            let total: usize = (0..64)
                .map(|d| net.take_ejected(NodeId(d), usize::MAX).len())
                .sum();
            assert_eq!(total, 16 * 16, "{policy:?}");
            assert_eq!(net.in_flight(), 0, "{policy:?} stuck packets");
        }
    }

    #[test]
    fn advance_to_equals_idle_ticks() {
        // An empty network ticked for N dead cycles must be
        // indistinguishable from one that jumped its clock by N.
        let mut a = Network::new(params(Topology::Mesh));
        let mut b = Network::new(params(Topology::Mesh));
        for net in [&mut a, &mut b] {
            net.try_inject(mk_pkt(1, 0, 63, MsgKind::ReadReq, 0))
                .unwrap();
            for _ in 0..200 {
                net.tick();
            }
            // Live flits drained; the waiting ejected packet is passive.
            assert_eq!(net.next_event(net.now()), None);
        }
        for _ in 0..1000 {
            a.tick();
        }
        let to = b.now() + 1000;
        b.advance_to(to);
        assert_eq!(a.now(), b.now());
        assert_eq!(a.stats().cycles, b.stats().cycles);
        // Resuming identical traffic produces identical outcomes.
        a.try_inject(mk_pkt(2, 5, 60, MsgKind::ReadReq, a.now()))
            .unwrap();
        b.try_inject(mk_pkt(2, 5, 60, MsgKind::ReadReq, b.now()))
            .unwrap();
        for _ in 0..300 {
            a.tick();
            b.tick();
        }
        let pa = a.take_ejected(NodeId(60), 9);
        let pb = b.take_ejected(NodeId(60), 9);
        assert_eq!(pa.len(), 1);
        assert_eq!(pa[0].id, pb[0].id);
        let la = a.stats().mean_latency(TrafficClass::Request, Priority::Gpu);
        let lb = b.stats().mean_latency(TrafficClass::Request, Priority::Gpu);
        assert_eq!(la, lb, "latency diverged after fast-forward");
    }

    #[test]
    fn hare_never_reports_quiescence() {
        let net = Network::new(NetParams {
            routing_request: RoutingPolicy::Hare,
            ..params(Topology::Mesh)
        });
        // HARE's EWMA mutates every cycle, so the horizon is always now.
        assert_eq!(net.next_event(0), Some(0));
    }

    #[test]
    fn wormhole_packets_never_interleave_within_vc() {
        // Heavy many-to-one reply traffic; ejection counts must always
        // complete exactly (the assembler panics on slot confusion, and
        // in_flight returning to zero proves no flit was lost).
        let mut net = Network::new(NetParams {
            classes: ClassAssignment::Single(TrafficClass::Reply, 2),
            ..params(Topology::Mesh)
        });
        let mut id = 0;
        let mut sent = 0;
        for _ in 0..300 {
            for s in [8u16, 16, 24, 32] {
                id += 1;
                if net
                    .try_inject(mk_pkt(id, s, 0, MsgKind::ReadReply, net.now()))
                    .is_ok()
                {
                    sent += 1;
                }
            }
            net.tick();
            // Keep draining the sink.
            net.take_ejected(NodeId(0), usize::MAX);
        }
        for _ in 0..3000 {
            net.tick();
            net.take_ejected(NodeId(0), usize::MAX);
        }
        assert_eq!(net.in_flight(), 0);
        assert_eq!(net.stats().ejected_pkts[1], sent);
    }

    fn reply_net() -> Network {
        Network::new(NetParams {
            classes: ClassAssignment::Single(TrafficClass::Reply, 2),
            ..params(Topology::Mesh)
        })
    }

    #[test]
    fn sharded_tick_is_byte_identical_to_sequential() {
        // Column traffic from the top row to the bottom row crosses
        // every shard boundary; the sharded twin must match the
        // sequential one cycle for cycle and in final statistics.
        for shards in [2, 4, 8] {
            let mut seq = reply_net();
            let mut shd = reply_net();
            shd.set_shards(shards).unwrap();
            assert_eq!(shd.shards(), shards);
            let mut id = 0;
            for t in 0..600u64 {
                if t % 3 == 0 {
                    for s in 0..8u16 {
                        id += 1;
                        let d = 63 - s;
                        let a = seq.try_inject(mk_pkt(id, s, d, MsgKind::ReadReply, seq.now()));
                        let b = shd.try_inject(mk_pkt(id, s, d, MsgKind::ReadReply, shd.now()));
                        assert_eq!(a.is_ok(), b.is_ok(), "{shards} shards cycle {t}");
                    }
                }
                seq.tick();
                shd.tick();
                assert_eq!(
                    seq.in_flight(),
                    shd.in_flight(),
                    "{shards} shards cycle {t}"
                );
                assert_eq!(
                    seq.buffered_flits(),
                    shd.buffered_flits(),
                    "{shards} shards cycle {t}"
                );
                for d in 0..64u16 {
                    let pa = seq.take_ejected(NodeId(d), usize::MAX);
                    let pb = shd.take_ejected(NodeId(d), usize::MAX);
                    assert_eq!(
                        pa.iter().map(|p| p.id).collect::<Vec<_>>(),
                        pb.iter().map(|p| p.id).collect::<Vec<_>>(),
                        "{shards} shards cycle {t} node {d}"
                    );
                }
            }
            for _ in 0..2000 {
                seq.tick();
                shd.tick();
            }
            assert_eq!(seq.in_flight(), shd.in_flight(), "{shards} shards leftover");
            assert_eq!(
                format!("{:?}", seq.stats()),
                format!("{:?}", shd.stats()),
                "{shards} shards: stats diverged"
            );
        }
    }

    #[test]
    fn boundary_credits_cross_partition_edge_same_cycle() {
        // Two shards split the 8x8 mesh between rows 3 and 4. Streaming
        // multi-flit replies in both directions across the seam makes
        // flits and the matching credit returns cross the partition
        // edge on the same cycle; the boundary routers' credit vectors
        // must match the sequential twin exactly, every cycle.
        let mut seq = reply_net();
        let mut shd = reply_net();
        shd.set_shards(2).unwrap();
        let mut id = 0;
        let mut crossings = 0u64;
        for t in 0..400u64 {
            for (s, d) in [(28u16, 36u16), (36, 28), (27, 35), (35, 27)] {
                id += 1;
                let a = seq.try_inject(mk_pkt(id, s, d, MsgKind::ReadReply, seq.now()));
                let b = shd.try_inject(mk_pkt(id, s, d, MsgKind::ReadReply, shd.now()));
                assert_eq!(a.is_ok(), b.is_ok(), "cycle {t} {s}->{d}");
            }
            seq.tick();
            shd.tick();
            // Boundary rows: the south edge of shard 0 (24..32) and the
            // north edge of shard 1 (32..40).
            for r in 24..40 {
                let vcs = seq.routers.vc(r, 0)..seq.routers.vc(r, seq.routers.bits(r));
                assert_eq!(
                    seq.routers.credits[vcs.clone()],
                    shd.routers.credits[vcs],
                    "cycle {t} router {r} credits"
                );
                crossings += seq.stats().link_flits[r][if r < 32 {
                    mesh_port_south()
                } else {
                    mesh_port_north()
                }];
            }
            for d in [36u16, 28, 35, 27] {
                let pa = seq.take_ejected(NodeId(d), usize::MAX);
                let pb = shd.take_ejected(NodeId(d), usize::MAX);
                assert_eq!(pa.len(), pb.len(), "cycle {t} node {d}");
            }
        }
        assert!(crossings > 0, "no flit ever crossed the partition edge");
        for _ in 0..1000 {
            seq.tick();
            shd.tick();
        }
        assert_eq!(seq.in_flight(), shd.in_flight());
        assert_eq!(format!("{:?}", seq.stats()), format!("{:?}", shd.stats()));
    }

    fn mesh_port_south() -> usize {
        crate::topology::mesh_port::SOUTH
    }

    fn mesh_port_north() -> usize {
        crate::topology::mesh_port::NORTH
    }

    #[test]
    fn set_shards_rejects_bad_partitions() {
        let mut net = Network::new(params(Topology::Mesh));
        let err = net.set_shards(3).unwrap_err();
        assert!(err.0.contains("8 mesh rows"), "{err}");
        assert_eq!(
            net.shards(),
            1,
            "failed set_shards must not change the engine"
        );
        let mut xbar = Network::new(params(Topology::Crossbar));
        assert!(xbar.set_shards(2).is_err());
        assert!(xbar.set_shards(1).is_ok());
    }

    /// A reply network backed up behind a node that never takes its
    /// packets: full VCs holding allocations, busy injection slots,
    /// and a non-empty slab free list.
    fn backed_up() -> Network {
        let mut net = reply_net();
        let mut id = 0;
        for _ in 0..300 {
            for s in [0u16, 8, 16, 62] {
                id += 1;
                let _ = net.try_inject(mk_pkt(id, s, 63, MsgKind::ReadReply, net.now()));
            }
            net.tick();
        }
        // One drain frees ejection space: a few more packets complete
        // and leave their slab slots on the free list.
        net.take_ejected(NodeId(63), usize::MAX);
        for _ in 0..30 {
            net.tick();
        }
        net
    }

    fn saved(net: &Network) -> Vec<u8> {
        let mut w = SnapWriter::new();
        net.save_state(&mut w);
        w.into_bytes()
    }

    #[test]
    fn load_state_roundtrips_a_backed_up_network() {
        let net = backed_up();
        let bytes = saved(&net);
        let mut twin = reply_net();
        twin.load_state(&mut SnapReader::raw(&bytes)).unwrap();
        assert_eq!(saved(&twin), bytes);
        assert!(net.buffered_flits() > 0 && !net.packets.free.is_empty());
    }

    #[test]
    fn load_state_rejects_corrupt_fields() {
        type Corruption = fn(&mut Network);
        // Indices of an allocated non-empty input VC, a non-empty one,
        // a free slab slot, and a busy injection slot.
        fn allocated_vc(n: &Network) -> usize {
            (0..n.routers.len.len())
                .find(|&i| n.routers.len[i] > 0 && n.routers.alloc[i].is_some())
                .expect("an allocated VC")
        }
        fn free_slot(n: &Network) -> Slot {
            n.packets.free[0]
        }
        fn busy_inj(n: &Network) -> (usize, usize) {
            (0..n.nis.len())
                .flat_map(|node| (0..n.routers.vcs).map(move |vc| (node, vc)))
                .find(|&(node, vc)| n.nis[node].inj[vc].is_some())
                .expect("a busy injection slot")
        }
        let cases: [(&str, Corruption); 14] = [
            ("VC length beyond the buffer", |n| {
                let i = allocated_vc(n);
                n.routers.len[i] = n.params.vc_buf_flits + 1;
            }),
            ("alloc port beyond the router's ports", |n| {
                let i = allocated_vc(n);
                n.routers.alloc[i].as_mut().unwrap().port = 200;
            }),
            ("alloc VC beyond the VC count", |n| {
                let i = allocated_vc(n);
                n.routers.alloc[i].as_mut().unwrap().vc = 9;
            }),
            ("alloc eject flag against the link", |n| {
                let i = allocated_vc(n);
                let a = n.routers.alloc[i].as_mut().unwrap();
                a.eject = !a.eject;
            }),
            ("flit slot pointing at a free slab entry", |n| {
                let (i, s) = (allocated_vc(n), free_slot(n));
                let at = i * n.routers.buf + n.routers.head[i] as usize;
                n.routers.ring[at].slot = s;
            }),
            ("flit slot beyond the slab", |n| {
                let i = allocated_vc(n);
                let at = i * n.routers.buf + n.routers.head[i] as usize;
                n.routers.ring[at].slot = 1 << 20;
            }),
            ("output owner beyond the ports", |n| {
                n.routers.owner[0] = Some((99, 0));
            }),
            ("credit beyond the buffer", |n| {
                n.routers.credits[7] = n.params.vc_buf_flits + 1;
            }),
            ("credit disagreeing with downstream", |n| {
                let i = n.routers.vc_at(9, 2, 0);
                let c = n.routers.credits[i];
                n.routers.credits[i] = if c == 0 { 1 } else { c - 1 };
            }),
            ("grant pointer out of range", |n| {
                n.routers.grant_ptr[3] = 1_000
            }),
            ("accept pointer out of range", |n| {
                n.routers.accept_ptr[3] = 2
            }),
            ("injection slot naming a free slab entry", |n| {
                let ((node, vc), s) = (busy_inj(n), free_slot(n));
                n.nis[node].inj[vc].as_mut().unwrap().slot = s;
            }),
            ("reassembly count on a free slot", |n| {
                let s = free_slot(n) as usize;
                n.eject_counts[s] = 1;
            }),
            ("free list naming a live slot", |n| {
                let live = (0..n.packets.v.len())
                    .find(|&s| n.packets.v[s].is_some())
                    .expect("a live packet");
                n.packets.free[0] = live as Slot;
            }),
        ];
        for (what, corrupt) in cases {
            let mut net = backed_up();
            corrupt(&mut net);
            let bytes = saved(&net);
            let mut fresh = reply_net();
            let got = fresh.load_state(&mut SnapReader::raw(&bytes));
            assert!(
                matches!(got, Err(SnapError::Corrupt(_))),
                "{what}: expected Corrupt, got {got:?}"
            );
        }
    }

    #[test]
    fn sharding_composes_with_idle_skip_off() {
        // Reference mode (every router runs VA/SA each cycle) under a
        // sharded engine must still match the plain sequential loop.
        let mut seq = reply_net();
        let mut shd = reply_net();
        shd.set_shards(4).unwrap();
        shd.set_idle_skip(false);
        for (id, (s, d)) in [(0u16, 63u16), (63, 0), (9, 54)].into_iter().enumerate() {
            seq.try_inject(mk_pkt(id as u64, s, d, MsgKind::ReadReply, 0))
                .unwrap();
            shd.try_inject(mk_pkt(id as u64, s, d, MsgKind::ReadReply, 0))
                .unwrap();
        }
        for _ in 0..500 {
            seq.tick();
            shd.tick();
        }
        assert_eq!(format!("{:?}", seq.stats()), format!("{:?}", shd.stats()));
    }
}

//! Physical-network arrangement: the baseline's separate request/reply
//! networks, or a single shared network with per-class virtual networks
//! (Section VII; AVCP in Fig. 6 varies the VC split).

use clognet_noc::{ClassAssignment, NetParams, Network, ShardError, ShardPool};
use clognet_proto::snap::{SnapError, SnapReader, SnapWriter};
use clognet_proto::{Cycle, NodeId, Packet, Priority, SystemConfig, TrafficClass};
use std::sync::Arc;

/// The system's physical network(s).
#[allow(clippy::large_enum_variant)] // one-per-system; boxing buys nothing
#[derive(Debug)]
pub enum Nets {
    /// Physically separate request and reply networks (baseline).
    Separate {
        /// Request network.
        request: Network,
        /// Reply network.
        reply: Network,
    },
    /// One physical network carrying both classes on disjoint VCs.
    Shared(Network),
}

impl Nets {
    /// Build from the system configuration.
    pub fn new(cfg: &SystemConfig) -> Self {
        let base = |classes| NetParams {
            topology: cfg.noc.topology,
            width: cfg.mesh_width,
            height: cfg.mesh_height,
            classes,
            vc_buf_flits: cfg.noc.vc_buf_flits as u8,
            pipeline: cfg.noc.pipeline,
            routing_request: cfg.noc.routing_request,
            routing_reply: cfg.noc.routing_reply,
            eject_buf_flits: 4 * (1 + cfg.llc.slice.line_bytes / cfg.noc.channel_bytes) as usize,
            sa_iterations: cfg.noc.sa_iterations,
        };
        match cfg.noc.virtual_nets {
            None => Nets::Separate {
                request: Network::new(base(ClassAssignment::Single(
                    TrafficClass::Request,
                    cfg.noc.vcs,
                ))),
                reply: Network::new(base(ClassAssignment::Single(
                    TrafficClass::Reply,
                    cfg.noc.vcs,
                ))),
            },
            Some(v) => Nets::Shared(Network::new(base(ClassAssignment::Shared {
                request_vcs: v.request_vcs,
                reply_vcs: v.reply_vcs,
            }))),
        }
    }

    /// The network carrying `class`.
    pub fn net(&self, class: TrafficClass) -> &Network {
        match self {
            Nets::Separate { request, reply } => match class {
                TrafficClass::Request => request,
                TrafficClass::Reply => reply,
            },
            Nets::Shared(n) => n,
        }
    }

    /// Mutable access to the network carrying `class`.
    pub fn net_mut(&mut self, class: TrafficClass) -> &mut Network {
        match self {
            Nets::Separate { request, reply } => match class {
                TrafficClass::Request => request,
                TrafficClass::Reply => reply,
            },
            Nets::Shared(n) => n,
        }
    }

    /// Inject a packet on the network its class rides.
    ///
    /// # Errors
    ///
    /// Returns the packet if the NI has no free slot.
    pub fn try_inject(&mut self, pkt: Packet) -> Result<(), Packet> {
        let class = pkt.class();
        self.net_mut(class).try_inject(pkt)
    }

    /// Is (`class`, `prio`) injection blocked at `node`? (The delegation
    /// trigger when asked about GPU replies.)
    pub fn inject_blocked(&self, node: NodeId, class: TrafficClass, prio: Priority) -> bool {
        self.net(class).inject_blocked(node, class, prio)
    }

    /// Can a (`class`, `prio`) packet start injecting at `node`?
    pub fn can_inject(&self, node: NodeId, class: TrafficClass, prio: Priority) -> bool {
        self.net(class).can_inject(node, class, prio)
    }

    /// Enable/disable the idle-router and blocked-head fast paths on all
    /// physical networks (reference mode for equivalence testing).
    pub fn set_idle_skip(&mut self, on: bool) {
        match self {
            Nets::Separate { request, reply } => {
                request.set_idle_skip(on);
                reply.set_idle_skip(on);
            }
            Nets::Shared(n) => n.set_idle_skip(on),
        }
    }

    /// Configure spatial sharding on all physical networks. One worker
    /// pool is shared between them: the networks tick strictly one at a
    /// time, so the baseline's request/reply pair reuses a single set
    /// of threads instead of spawning two.
    ///
    /// # Errors
    ///
    /// Fails when `n` shards cannot partition the topology (more than
    /// one shard requires a mesh whose row count `n` divides evenly);
    /// the engine is left unchanged on error.
    pub fn set_shards(&mut self, n: usize) -> Result<(), ShardError> {
        let pool = (n > 1).then(|| Arc::new(ShardPool::new(n)));
        match self {
            Nets::Separate { request, reply } => {
                request.set_shards_pooled(n, pool.clone())?;
                reply.set_shards_pooled(n, pool)
            }
            Nets::Shared(net) => net.set_shards_pooled(n, pool),
        }
    }

    /// Current shard count (1 = sequential engine).
    pub fn shards(&self) -> usize {
        match self {
            Nets::Separate { request, .. } => request.shards(),
            Nets::Shared(n) => n.shards(),
        }
    }

    /// Zero all network statistics (warmup exclusion).
    pub fn reset_stats(&mut self) {
        match self {
            Nets::Separate { request, reply } => {
                request.reset_stats();
                reply.reset_stats();
            }
            Nets::Shared(n) => n.reset_stats(),
        }
    }

    /// Advance all physical networks one cycle.
    pub fn tick(&mut self) {
        match self {
            Nets::Separate { request, reply } => {
                request.tick();
                reply.tick();
            }
            Nets::Shared(n) => n.tick(),
        }
    }

    /// Earliest future cycle any physical network can change state
    /// absent new injections (see the fast-forward contract in
    /// DESIGN.md). `Some(now)` means same-cycle work remains.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let merge = |a: Option<Cycle>, b: Option<Cycle>| match (a, b) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, None) => x,
            (None, y) => y,
        };
        match self {
            Nets::Separate { request, reply } => {
                merge(request.next_event(now), reply.next_event(now))
            }
            Nets::Shared(n) => n.next_event(now),
        }
    }

    /// Jump all quiescent networks' clocks forward to `cycle`.
    pub fn advance_to(&mut self, cycle: Cycle) {
        match self {
            Nets::Separate { request, reply } => {
                request.advance_to(cycle);
                reply.advance_to(cycle);
            }
            Nets::Shared(n) => n.advance_to(cycle),
        }
    }

    /// Serialize all physical networks (request first for the separate
    /// arrangement). The arrangement itself is derived from the config
    /// and only tagged for validation.
    pub fn save_state(&self, w: &mut SnapWriter) {
        match self {
            Nets::Separate { request, reply } => {
                w.u8(0);
                request.save_state(w);
                reply.save_state(w);
            }
            Nets::Shared(n) => {
                w.u8(1);
                n.save_state(w);
            }
        }
    }

    /// Overlay state captured by [`Nets::save_state`] onto networks
    /// freshly built from the same configuration.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let tag = r.u8()?;
        match (tag, self) {
            (0, Nets::Separate { request, reply }) => {
                request.load_state(r)?;
                reply.load_state(r)
            }
            (1, Nets::Shared(n)) => n.load_state(r),
            (0 | 1, _) => Err(SnapError::Corrupt("network arrangement mismatch")),
            (t, _) => Err(SnapError::BadTag {
                what: "nets arrangement",
                tag: u64::from(t),
            }),
        }
    }

    /// Packets still inside any network.
    pub fn in_flight(&self) -> usize {
        match self {
            Nets::Separate { request, reply } => request.in_flight() + reply.in_flight(),
            Nets::Shared(n) => n.in_flight(),
        }
    }

    /// The lowest-numbered node at or after `from` with reassembled
    /// packets waiting on any network; walking `from = node + 1` visits
    /// every such node once, in node order (see
    /// [`Network::next_ejected_node`]).
    pub fn next_ejected_node(&self, from: usize) -> Option<NodeId> {
        match self {
            Nets::Separate { request, reply } => {
                match (
                    request.next_ejected_node(from),
                    reply.next_ejected_node(from),
                ) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                }
            }
            Nets::Shared(n) => n.next_ejected_node(from),
        }
    }

    /// Sum of flit-hops over all links of all networks (energy input).
    pub fn total_flit_hops(&self) -> u64 {
        let sum = |n: &Network| -> u64 {
            n.stats()
                .link_flits
                .iter()
                .flat_map(|r| r.iter())
                .sum::<u64>()
        };
        match self {
            Nets::Separate { request, reply } => sum(request) + sum(reply),
            Nets::Shared(n) => sum(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clognet_proto::{Addr, MsgKind, PacketId, VirtualNetConfig};

    #[test]
    fn separate_networks_route_by_class() {
        let cfg = SystemConfig::default();
        let mut nets = Nets::new(&cfg);
        let req = Packet::new(
            PacketId(1),
            NodeId(10),
            NodeId(2),
            MsgKind::ReadReq,
            Priority::Gpu,
            Addr::new(0x100),
            128,
            16,
            0,
        );
        nets.try_inject(req).unwrap();
        for _ in 0..100 {
            nets.tick();
        }
        assert_eq!(
            nets.net_mut(TrafficClass::Request)
                .take_ejected(NodeId(2), 10)
                .len(),
            1
        );
        assert_eq!(nets.in_flight(), 0);
    }

    #[test]
    fn shared_network_carries_both() {
        let mut cfg = SystemConfig::default();
        cfg.noc.virtual_nets = Some(VirtualNetConfig {
            request_vcs: 2,
            reply_vcs: 2,
        });
        let mut nets = Nets::new(&cfg);
        let mk = |id, kind| {
            Packet::new(
                PacketId(id),
                NodeId(10),
                NodeId(2),
                kind,
                Priority::Gpu,
                Addr::new(0x100),
                128,
                16,
                0,
            )
        };
        nets.try_inject(mk(1, MsgKind::ReadReq)).unwrap();
        nets.try_inject(mk(2, MsgKind::ReadReply)).unwrap();
        for _ in 0..200 {
            nets.tick();
        }
        let got = nets
            .net_mut(TrafficClass::Request)
            .take_ejected(NodeId(2), 10);
        assert_eq!(got.len(), 2, "shared net delivers both classes");
        assert!(nets.total_flit_hops() > 0);
    }
}

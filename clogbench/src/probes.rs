//! Standalone layer probes.
//!
//! `System::tick`'s phases are private, so the host-time split between
//! layers is measured by driving each layer on its own through its public
//! calls, with synthetic input drawn from the seed at the rates the
//! workload's measured window showed. Inputs are generated before the
//! timed loop, so a probe times only the layer's calls.

use crate::gen::{self, Stream};
use crate::trace::Tracer;
use clognet_cache::SetAssocCache;
use clognet_core::Nets;
use clognet_dram::{DramController, DramRequest};
use clognet_fabric::{FabricMsg, FabricNetwork};
use clognet_proto::{
    Addr, LineAddr, MsgKind, NodeId, Packet, PacketId, Priority, SystemConfig, TrafficClass,
};
use clognet_rng::{Rng, SmallRng};
use std::hint::black_box;

/// Simulated cycles the NoC, DRAM and fabric probes run, and accesses
/// the cache probe makes.
const NOC_CYCLES: u64 = 20_000;
const DRAM_CYCLES: u64 = 200_000;
const FABRIC_CYCLES: u64 = 200_000;
const CACHE_ACCESSES: usize = 2_000_000;

/// Rates measured on a workload's reference run.
#[derive(Debug, Clone)]
pub struct ProbeInput {
    /// One chip's configuration (the package's, with `fabric`, on a package).
    pub cfg: SystemConfig,
    /// Chips in the package.
    pub chips: usize,
    /// Packets injected per cycle into one chip's request network.
    pub req_pkts_per_cycle: f64,
    /// Packets injected per cycle into one chip's reply network.
    pub rep_pkts_per_cycle: f64,
    /// DRAM reads and writes per cycle per channel.
    pub dram_reqs_per_cycle: f64,
    /// GPU L1 miss rate.
    pub l1_miss_rate: f64,
    /// Fabric messages delivered per cycle on the request and reply planes.
    pub fabric_msgs_per_cycle: [f64; 2],
}

/// Host ns per unit of work of each probe.
#[derive(Debug, Clone, Copy)]
pub struct ProbeTimes {
    /// Both networks of one chip, per cycle.
    pub noc_ns_per_cycle: f64,
    /// One DRAM channel, per cycle.
    pub dram_ns_per_cycle: f64,
    /// One GPU L1, per access.
    pub cache_ns_per_access: f64,
    /// The package fabric, per cycle; 0 without a fabric.
    pub fabric_ns_per_cycle: f64,
}

/// How many arrivals a cycle gets at `rate` per cycle: the whole part,
/// plus one with the fractional part's probability.
fn arrivals(rng: &mut SmallRng, rate: f64) -> usize {
    rate.floor() as usize + usize::from(rng.next_f64() < rate.fract())
}

fn pick(rng: &mut SmallRng, nodes: &[NodeId]) -> NodeId {
    nodes[rng.gen_range(0..nodes.len())]
}

/// Run every probe under `seed`, inside `tr`'s spans, and time them.
pub fn run_all(p: &ProbeInput, seed: u64, tr: &mut Tracer) -> ProbeTimes {
    ProbeTimes {
        noc_ns_per_cycle: noc(p, seed, tr),
        dram_ns_per_cycle: dram(p, seed, tr),
        cache_ns_per_access: cache(p, seed, tr),
        fabric_ns_per_cycle: if p.cfg.fabric.is_some() {
            fabric(p, seed, tr)
        } else {
            0.0
        },
    }
}

/// Both physical networks of one chip, fed requests from compute nodes
/// to memory nodes and replies back.
fn noc(p: &ProbeInput, seed: u64, tr: &mut Tracer) -> f64 {
    let cfg = &p.cfg;
    let layout = cfg.layout();
    let compute: Vec<NodeId> = layout.gpu_nodes().chain(layout.cpu_nodes()).collect();
    let mems: Vec<NodeId> = layout.mem_nodes().collect();
    let line = cfg.llc.slice.line_bytes;
    let chan = cfg.noc.channel_bytes;
    let mut rng = gen::rng(seed, Stream::NocProbe);
    let mut id = 0;
    let mut packet = |rng: &mut SmallRng, kind, src, dst| {
        id += 1;
        let prio = if layout.cpu_nodes().any(|n| n == src || n == dst) {
            Priority::Cpu
        } else {
            Priority::Gpu
        };
        Packet::new(
            PacketId(id),
            src,
            dst,
            kind,
            prio,
            Addr::new(rng.next_u64() & !127),
            line,
            chan,
            0,
        )
    };
    // Each cycle's injections, generated up front.
    let cycles: Vec<Vec<Packet>> = (0..NOC_CYCLES)
        .map(|_| {
            let mut v = Vec::new();
            for _ in 0..arrivals(&mut rng, p.req_pkts_per_cycle) {
                let (src, dst) = (pick(&mut rng, &compute), pick(&mut rng, &mems));
                v.push(packet(&mut rng, MsgKind::ReadReq, src, dst));
            }
            for _ in 0..arrivals(&mut rng, p.rep_pkts_per_cycle) {
                let (src, dst) = (pick(&mut rng, &mems), pick(&mut rng, &compute));
                v.push(packet(&mut rng, MsgKind::ReadReply, src, dst));
            }
            v
        })
        .collect();
    let nodes = cfg.nodes();
    let mut nets = tr.span("noc", "Network::new", || Nets::new(cfg));
    let t = std::time::Instant::now();
    tr.span("noc", "Network::{try_inject,tick,pop_ejected}", || {
        for batch in cycles {
            for pkt in batch {
                // A full injection queue drops the packet: the probe
                // keeps its offered load, not a backlog.
                let _ = black_box(nets.net_mut(pkt.class()).try_inject(pkt));
            }
            for class in [TrafficClass::Request, TrafficClass::Reply] {
                let net = nets.net_mut(class);
                net.tick();
                for n in 0..nodes {
                    while let Some(pkt) = net.pop_ejected(NodeId(n as u16)) {
                        black_box(pkt);
                    }
                }
            }
        }
    });
    t.elapsed().as_nanos() as f64 / NOC_CYCLES as f64
}

/// One DRAM channel fed reads and writes to random lines.
fn dram(p: &ProbeInput, seed: u64, tr: &mut Tracer) -> f64 {
    let mut rng = gen::rng(seed, Stream::DramProbe);
    let mut token = 0;
    let cycles: Vec<Vec<DramRequest>> = (0..DRAM_CYCLES)
        .map(|_| {
            (0..arrivals(&mut rng, p.dram_reqs_per_cycle))
                .map(|_| {
                    token += 1;
                    DramRequest {
                        line: LineAddr(rng.next_u64() >> 20),
                        is_write: rng.gen_bool(0.25),
                        cpu: rng.gen_bool(0.1),
                        token,
                    }
                })
                .collect()
        })
        .collect();
    let mut mc = DramController::new(p.cfg.dram.clone(), p.cfg.seed);
    let mut done = Vec::new();
    let t = std::time::Instant::now();
    tr.span("dram", "Dram::{enqueue,tick_into}", || {
        for (now, batch) in cycles.into_iter().enumerate() {
            let now = now as u64;
            for req in batch {
                // A full queue drops the request, as the NoC probe does.
                let _ = mc.enqueue(req, now);
            }
            mc.tick_into(now, &mut done);
            black_box(&done);
            done.clear();
        }
    });
    t.elapsed().as_nanos() as f64 / DRAM_CYCLES as f64
}

/// One GPU L1 at the workload's miss rate: a miss brings in a new line,
/// a hit re-touches one of the most recently filled quarter of the cache.
fn cache(p: &ProbeInput, seed: u64, tr: &mut Tracer) -> f64 {
    let geom = p.cfg.gpu.l1;
    let lines = (geom.capacity_bytes / u64::from(geom.line_bytes)).max(4);
    let window = lines / 4;
    let mut rng = gen::rng(seed, Stream::CacheProbe);
    let mut next = lines;
    let stream: Vec<LineAddr> = (0..CACHE_ACCESSES)
        .map(|_| {
            if rng.next_f64() < p.l1_miss_rate {
                next += 1;
                LineAddr(next)
            } else {
                LineAddr(next - rng.gen_range(0..window))
            }
        })
        .collect();
    let mut l1: SetAssocCache<()> = SetAssocCache::new(geom);
    for i in 0..=lines {
        l1.fill(LineAddr(i), ());
    }
    let t = std::time::Instant::now();
    tr.span("cache", "SetAssocCache::{access,fill}", || {
        for line in stream {
            if !l1.access(line) {
                black_box(l1.fill(line, ()));
            }
        }
    });
    t.elapsed().as_nanos() as f64 / CACHE_ACCESSES as f64
}

/// The package fabric fed gateway-to-gateway messages on both planes.
fn fabric(p: &ProbeInput, seed: u64, tr: &mut Tracer) -> f64 {
    let fcfg = p.cfg.fabric.as_ref().expect("fabric probe needs a fabric");
    let chips = fcfg.chips;
    let mut rng = gen::rng(seed, Stream::FabricProbe);
    let line = p.cfg.llc.slice.line_bytes;
    let chan = p.cfg.noc.channel_bytes;
    let classes = [
        (TrafficClass::Request, MsgKind::ReadReq),
        (TrafficClass::Reply, MsgKind::ReadReply),
    ];
    let mut id = 0;
    let cycles: Vec<Vec<(TrafficClass, FabricMsg)>> = (0..FABRIC_CYCLES)
        .map(|_| {
            let mut v = Vec::new();
            for (plane, &(class, kind)) in classes.iter().enumerate() {
                for _ in 0..arrivals(&mut rng, p.fabric_msgs_per_cycle[plane]) {
                    let src = rng.gen_range(0..chips);
                    let dst = (src + 1 + rng.gen_range(0..chips - 1)) % chips;
                    id += 1;
                    let pkt = Packet::new(
                        PacketId(id),
                        NodeId(0),
                        NodeId(1),
                        kind,
                        Priority::Gpu,
                        Addr::new(id * 128),
                        line,
                        chan,
                        0,
                    );
                    v.push((class, FabricMsg::new(src, dst, NodeId(0), pkt)));
                }
            }
            v
        })
        .collect();
    let mut fab = FabricNetwork::new(fcfg);
    let t = std::time::Instant::now();
    tr.span(
        "fabric",
        "FabricNetwork::{try_send,tick,pop_arrival}",
        || {
            for (now, batch) in cycles.into_iter().enumerate() {
                for (class, msg) in batch {
                    // A full link queue drops the message.
                    black_box(fab.try_send(class, msg));
                }
                fab.tick(now as u64);
                for (class, _) in classes {
                    for chip in 0..chips {
                        while let Some(m) = fab.pop_arrival(class, chip) {
                            black_box(m);
                        }
                    }
                }
            }
        },
    );
    t.elapsed().as_nanos() as f64 / FABRIC_CYCLES as f64
}

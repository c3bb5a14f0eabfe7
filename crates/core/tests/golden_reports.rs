//! Golden pins: FxHashes of full reports and snapshot bytes for short
//! runs over every topology, scheme, adaptive routing policy, the
//! shared (virtual-network) NoC, a scaled mesh and a 2-chip package.
//!
//! The engine-equivalence tests compare two engine modes of the same
//! build, so a model change that moves every mode at once passes them
//! all. These pins compare against fixed values instead: any change to
//! a simulated result, however small, fails here. A deliberate model
//! change must update the pins (the failure message lists every new
//! value) and say so in its changelog.

use clognet_core::{MultiChipSystem, System};
use clognet_proto::{
    FabricConfig, FxHasher, RoutingPolicy, Scheme, SystemConfig, Topology, VirtualNetConfig,
};
use std::hash::Hasher;

const WARM: u64 = 500;
const CYCLES: u64 = 2_000;
/// Snapshot point for the byte pins.
const SNAP_AT: u64 = 1_500;

fn fx(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

fn report_hash(cfg: SystemConfig, gpu: &str, cpu: &str) -> u64 {
    let mut sys = System::new(cfg, gpu, cpu);
    sys.run(WARM);
    sys.reset_stats();
    sys.run(CYCLES);
    fx(format!("{:?}", sys.report()).as_bytes())
}

fn package_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::default().with_scheme(Scheme::DelegatedReplies);
    cfg.fabric = Some(FabricConfig::default());
    cfg
}

fn schemes() -> [(&'static str, Scheme); 3] {
    [
        ("baseline", Scheme::Baseline),
        ("rp", Scheme::rp_default()),
        ("dr", Scheme::DelegatedReplies),
    ]
}

/// Compare every `(name, got)` against the pin table and fail once
/// with the full list of mismatches, formatted as replacement lines.
fn check(got: &[(String, u64)], pins: &[(&str, u64)]) {
    let mut bad = Vec::new();
    for (name, value) in got {
        let want = pins.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
        if want != Some(*value) {
            bad.push(format!("(\"{name}\", {value:#018x}), // was {want:x?}"));
        }
    }
    assert_eq!(got.len(), pins.len(), "pin table and run list differ");
    assert!(bad.is_empty(), "golden pins moved:\n{}", bad.join("\n"));
}

#[test]
fn topologies_and_schemes_are_pinned() {
    let mut got = Vec::new();
    for topo in Topology::ALL {
        for (label, scheme) in schemes() {
            let mut cfg = SystemConfig::default().with_scheme(scheme);
            cfg.noc.topology = topo;
            got.push((
                format!("{topo:?}/{label}"),
                report_hash(cfg, "NN", "canneal"),
            ));
        }
    }
    check(
        &got,
        &[
            ("Mesh/baseline", 0x0091fe9405f4cf95),
            ("Mesh/rp", 0x5039d30081387cd9),
            ("Mesh/dr", 0xb4cc55d3b01bca62),
            ("Crossbar/baseline", 0x44ba96ae5b175790),
            ("Crossbar/rp", 0x7fd3bad9ba06e57a),
            ("Crossbar/dr", 0x7ba181b769c9956d),
            ("FlattenedButterfly/baseline", 0x4ff3b11f2409c663),
            ("FlattenedButterfly/rp", 0x4eadc4eb034382d2),
            ("FlattenedButterfly/dr", 0xfc962fd7852bfed0),
            ("Dragonfly/baseline", 0x6e26cd87832cf95e),
            ("Dragonfly/rp", 0x109b0fcf6f31dd64),
            ("Dragonfly/dr", 0x01cb9f5bdc329bed),
        ],
    );
}

#[test]
fn adaptive_policies_and_vnets_are_pinned() {
    let mut got = Vec::new();
    for policy in [
        RoutingPolicy::DyXY,
        RoutingPolicy::Footprint,
        RoutingPolicy::Hare,
    ] {
        let cfg = SystemConfig::default()
            .with_scheme(Scheme::DelegatedReplies)
            .with_routing(policy, policy);
        got.push((format!("{policy:?}"), report_hash(cfg, "NN", "canneal")));
    }
    let mut cfg = SystemConfig::default().with_scheme(Scheme::DelegatedReplies);
    cfg.noc.virtual_nets = Some(VirtualNetConfig {
        request_vcs: 2,
        reply_vcs: 2,
    });
    got.push(("vnets".into(), report_hash(cfg, "HS", "bodytrack")));
    check(
        &got,
        &[
            ("DyXY", 0xee3c9b1e70d612a5),
            ("Footprint", 0xd0add3c1ae34ea32),
            ("Hare", 0xc8ee6a9b47e512e2),
            ("vnets", 0x5edd4a10a0e0d668),
        ],
    );
}

#[test]
fn iterative_islip_is_pinned() {
    // Three allocator rounds over four VCs per port exercise the
    // multi-round grant/accept matching that one-iteration runs skip.
    let mut cfg = SystemConfig::default().with_scheme(Scheme::DelegatedReplies);
    cfg.noc.sa_iterations = 3;
    cfg.noc.vcs = 4;
    let got = [("islip3_vc4".to_string(), report_hash(cfg, "NN", "canneal"))];
    check(&got, &[("islip3_vc4", 0xd57774c6d5428ba8)]);
}

#[test]
fn scaled_mesh_and_package_are_pinned() {
    let mut cfg = SystemConfig::default().with_scheme(Scheme::DelegatedReplies);
    cfg.mesh_width = 16;
    cfg.mesh_height = 16;
    cfg.n_mem = 16;
    cfg.n_cpu = 32;
    cfg.n_gpu = 16 * 16 - 3 * 16;
    let mut got = vec![("mesh16".to_string(), report_hash(cfg, "NN", "canneal"))];
    let mut pkg = MultiChipSystem::new(package_cfg(), "HS", "bodytrack");
    pkg.run(WARM);
    pkg.reset_stats();
    pkg.run(CYCLES);
    got.push((
        "package2".into(),
        fx(format!("{:?}", pkg.report()).as_bytes()),
    ));
    check(
        &got,
        &[
            ("mesh16", 0xd770f74d2b88cce2),
            ("package2", 0x671f22fa3e85d04b),
        ],
    );
}

#[test]
fn snapshot_bytes_are_pinned() {
    let mut sys = System::new(
        SystemConfig::default().with_scheme(Scheme::DelegatedReplies),
        "NN",
        "canneal",
    );
    sys.run(SNAP_AT);
    let mesh = sys.snapshot().into_bytes();
    let mut pkg = MultiChipSystem::new(package_cfg(), "HS", "bodytrack");
    pkg.run(SNAP_AT);
    let package = pkg.snapshot().into_bytes();
    check(
        &[
            ("snap/mesh_dr.len".into(), mesh.len() as u64),
            ("snap/mesh_dr".into(), fx(&mesh)),
            ("snap/package2.len".into(), package.len() as u64),
            ("snap/package2".into(), fx(&package)),
        ],
        &[
            ("snap/mesh_dr.len", 335647),
            ("snap/mesh_dr", 0x46191eb916daa132),
            ("snap/package2.len", 665592),
            ("snap/package2", 0x7755c17c7efaacbe),
        ],
    );
}

//! `package_fork`: a 2-chip package (default pair fabric) running HS +
//! bodytrack. One op warms the package once, snapshots it, and forks 16
//! variants — {Baseline, DR} × 8 injection-buffer depths — each restored,
//! warm-retargeted, run and reported.

use crate::gen::{self, Stream};
use crate::trace::{Tracer, NO_OP};
use crate::workload::{self, DramTotals, Outcome};
use clognet_cli::report::report_json;
use clognet_core::{MultiChipSystem, Report, Snapshot};
use clognet_proto::{FabricConfig, Scheme, SystemConfig};
use clognet_rng::Rng;
use std::time::Instant;

const GPU: &str = "HS";
const CPU: &str = "bodytrack";
/// Warmup shared by every variant, and each variant's measured window
/// (package cycles).
const WARM: u64 = 4_000;
const CYCLES: u64 = 1_000;
/// The injection-buffer depths of the warm-start sweep; 16 is the default.
const INJBUF: [u64; 8] = [2, 3, 4, 6, 8, 12, 16, 24];
const DEFAULT_INJBUF: u64 = 16;
const SCHEMES: [Scheme; 2] = [Scheme::Baseline, Scheme::DelegatedReplies];

fn config() -> SystemConfig {
    SystemConfig {
        fabric: Some(FabricConfig::default()),
        ..SystemConfig::default()
    }
}

/// Variant `i` of the 16: (scheme, injection-buffer depth).
fn variant(i: usize) -> (Scheme, u64) {
    (SCHEMES[i % 2], INJBUF[i / 2])
}

/// A measured variant.
struct Variant {
    scheme: Scheme,
    sys: MultiChipSystem,
    report: Report,
    json: String,
    dram_at_reset: DramTotals,
    chip0_dram_at_reset: DramTotals,
}

/// Retarget a warmed package to variant `(scheme, injbuf)` and measure it.
fn measure(mut sys: MultiChipSystem, scheme: Scheme, injbuf: u64, tr: &mut Tracer) -> Variant {
    tr.span("core", "MultiChipSystem::set_scheme", || {
        sys.set_scheme(scheme)
    });
    tr.span("core", "MultiChipSystem::apply_warm_param", || {
        sys.apply_warm_param("injbuf", injbuf)
            .expect("injbuf depths are all at least 1")
    });
    let dram_at_reset = DramTotals::read(sys.chips());
    let chip0_dram_at_reset = DramTotals::read(&sys.chips()[..1]);
    tr.span("core", "MultiChipSystem::reset_stats", || sys.reset_stats());
    tr.span("core", "MultiChipSystem::run", || sys.run(CYCLES));
    let report = tr.span("core", "MultiChipSystem::report", || sys.report());
    Variant {
        json: report_json(scheme, &report),
        scheme,
        sys,
        report,
        dram_at_reset,
        chip0_dram_at_reset,
    }
}

/// The same variant re-warmed cold: the fork must match it exactly.
fn cold(scheme: Scheme, injbuf: u64) -> String {
    let mut sys = MultiChipSystem::new(config(), GPU, CPU);
    sys.run(WARM);
    measure(sys, scheme, injbuf, &mut Tracer::new(false)).json
}

/// Run `package_fork` for `seconds` under `seed`, which orders the
/// variants and picks the one each op cross-checks.
pub fn run(seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    let order = gen::permutation(seed, Stream::VariantOrder, SCHEMES.len() * INJBUF.len());
    let mut pick = gen::rng(seed, Stream::CheckedVariant);
    let mut op_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut skipped = 0;
    let mut snap_bytes = 0;
    // The first op's reports, and its two variants at the default depth
    // (Baseline, DR) for the speedups and the per-layer statistics.
    let mut first: Option<Vec<String>> = None;
    let mut at_default: Option<(Variant, Variant)> = None;
    let (attempted, failed) = workload::op_loop(seconds, |op| {
        tr.set_op(op);
        let t = Instant::now();
        tr.enter("bench", "op");
        let mut sys = tr.span("core", "MultiChipSystem::new", || {
            MultiChipSystem::new(config(), GPU, CPU)
        });
        setup_s.push(t.elapsed().as_secs_f64());
        tr.span("core", "MultiChipSystem::run", || sys.run(WARM));
        skipped += sys.skipped_cycles();
        let snap: Snapshot = tr.span("snap", "MultiChipSystem::snapshot", || sys.snapshot());
        drop(sys);
        let mut jsons = vec![String::new(); order.len()];
        // Each forked package is dropped as soon as it has reported, as
        // in a sweep; only the first op keeps its two default-depth
        // variants, for the speedups and the per-layer statistics.
        let mut kept = Vec::new();
        for &i in &order {
            let (scheme, injbuf) = variant(i);
            let forked = tr.span("snap", "MultiChipSystem::restore", || {
                MultiChipSystem::restore(&snap).expect("a just-taken snapshot restores")
            });
            let v = measure(forked, scheme, injbuf, tr);
            skipped += v.sys.skipped_cycles();
            jsons[i] = v.json.clone();
            if first.is_none() && injbuf == DEFAULT_INJBUF {
                kept.push(v);
            }
        }
        tr.exit();
        op_s.push((op, t.elapsed().as_secs_f64()));
        workload::time_setups(&mut setup_s, || MultiChipSystem::new(config(), GPU, CPU));
        snap_bytes = snap.as_bytes().len();
        // Fork == each: one variant per op against a cold re-warm.
        let checked = pick.gen_range(0..jsons.len());
        let (scheme, injbuf) = variant(checked);
        let ok = jsons[checked] == cold(scheme, injbuf);
        match &first {
            Some(j0) => ok && jsons == *j0,
            None => {
                first = Some(jsons);
                kept.sort_by_key(|v| v.scheme != Scheme::Baseline);
                let dr = kept.pop().expect("DR ran at the default depth");
                at_default = Some((kept.pop().expect("Baseline ran at the default depth"), dr));
                ok
            }
        }
    });
    tr.set_op(NO_OP);
    let (base, dr) = at_default.expect("at least one op ran");
    let fabric = dr
        .sys
        .fabric_summary()
        .expect("a 2-chip package has a fabric");
    let mut sim = workload::sim_stats(dr.sys.chips(), &dr.report, dr.dram_at_reset);
    sim.push(("fabric.flits", (fabric.req_flits + fabric.rep_flits) as f64));
    sim.push((
        "fabric.blocked_cycles",
        (fabric.req_blocked_cycles + fabric.rep_blocked_cycles) as f64,
    ));
    let mut probe = workload::probe_input(
        &dr.sys.chips()[0],
        CYCLES,
        &dr.report,
        dr.chip0_dram_at_reset,
    );
    probe.cfg = config();
    probe.chips = dr.sys.chips().len();
    probe.fabric_msgs_per_cycle = [
        fabric.delivered_req as f64 / CYCLES as f64,
        fabric.delivered_rep as f64 / CYCLES as f64,
    ];
    let cycles_per_op = WARM + order.len() as u64 * CYCLES;
    Outcome {
        attempted,
        failed,
        op_s,
        setup_s,
        cycles_per_op,
        run_cycles_per_op: cycles_per_op,
        skipped_cycles: skipped,
        dr_gpu_speedup: dr.report.gpu_ipc / base.report.gpu_ipc,
        dr_cpu_speedup: dr.report.cpu_performance / base.report.cpu_performance,
        sim,
        extra: vec![("snap.bytes", snap_bytes as f64)],
        probe,
    }
}

//! `clog8`: the paper's clogging case (Fig. 5b). An 8×8 mesh runs NN on
//! the GPU and canneal on the CPU at the `clognet run` defaults; one op
//! is a Baseline job followed by a DR job.

use crate::trace::{Tracer, NO_OP};
use crate::workload::{self, Job, Outcome};
use clognet_core::System;
use clognet_proto::{Scheme, SystemConfig};
use std::time::Instant;

const GPU: &str = "NN";
const CPU: &str = "canneal";
/// `clognet run`'s default warmup and measured window.
const WARM: u64 = 6_000;
const CYCLES: u64 = 15_000;

/// Run `clog8` for `seconds`. The seed feeds only the layer probes: an
/// op here has no order or choice for it to vary.
pub fn run(seconds: f64, tr: &mut Tracer) -> Outcome {
    let mut op_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut skipped = 0;
    let mut first: Option<(Job, Job)> = None;
    let (attempted, failed) = workload::op_loop(seconds, |op| {
        tr.set_op(op);
        let t = Instant::now();
        tr.enter("bench", "op");
        let base = workload::job(Scheme::Baseline, GPU, CPU, WARM, CYCLES, tr);
        let dr = workload::job(Scheme::DelegatedReplies, GPU, CPU, WARM, CYCLES, tr);
        tr.exit();
        op_s.push((op, t.elapsed().as_secs_f64()));
        setup_s.extend([base.new_s, dr.new_s]);
        workload::time_setups(&mut setup_s, || {
            System::new(SystemConfig::default(), GPU, CPU)
        });
        skipped += base.skipped + dr.skipped;
        match &first {
            None => {
                first = Some((base, dr));
                true
            }
            Some((b0, d0)) => base.json == b0.json && dr.json == d0.json,
        }
    });
    tr.set_op(NO_OP);
    let (base, dr) = first.expect("at least one op ran");
    let cycles_per_op = 2 * (WARM + CYCLES);
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
        sim: workload::sim_stats(std::slice::from_ref(&dr.sys), &dr.report, dr.dram_at_reset),
        extra: Vec::new(),
        probe: workload::probe_input(&dr.sys, CYCLES, &dr.report, dr.dram_at_reset),
    }
}

//! What every workload hands back, and the simulated statistics read
//! off a finished system.

use crate::probes::ProbeInput;
use crate::trace::Tracer;
use clognet_cli::report::report_json;
use clognet_core::{Report, System};
use clognet_proto::{Scheme, SystemConfig, TrafficClass};
use std::time::Instant;

/// The result of running one workload for its time budget.
#[derive(Debug)]
pub struct Outcome {
    /// Ops run.
    pub attempted: u64,
    /// Ops whose output check failed.
    pub failed: u64,
    /// Each timed op's number and host seconds, set-up included. An op
    /// that failed before it could be timed is missing.
    pub op_s: Vec<(u32, f64)>,
    /// Host seconds of each construction of a system (or start of a
    /// server): the op's own and [`EXTRA_SETUPS`] more after each op.
    pub setup_s: Vec<f64>,
    /// Simulated cycles one op runs (package cycles on a package).
    pub cycles_per_op: u64,
    /// Simulated cycles one op runs inside the benchmark process under
    /// `*::run` spans (on `serve_round`, the inline check run only).
    pub run_cycles_per_op: u64,
    /// Of the `run_cycles_per_op` of every op, those fast-forward skipped.
    pub skipped_cycles: u64,
    /// Simulated DR/Baseline GPU IPC.
    pub dr_gpu_speedup: f64,
    /// Simulated DR/Baseline CPU performance.
    pub dr_cpu_speedup: f64,
    /// Simulated per-layer statistics of the workload's DR reference run.
    pub sim: Vec<(&'static str, f64)>,
    /// Host-time per-layer metrics only this workload can measure.
    pub extra: Vec<(&'static str, f64)>,
    /// Rates the layer probes are sized to.
    pub probe: ProbeInput,
}

/// Ops every run makes however short its time budget, so medians and
/// cross-op checks always have something to work on.
const MIN_OPS: u64 = 3;

/// Run ops until `seconds` have passed (and at least [`MIN_OPS`]). `op`
/// gets the op index and returns whether its output check passed.
pub fn op_loop(seconds: f64, mut op: impl FnMut(u32) -> bool) -> (u64, u64) {
    let start = Instant::now();
    let (mut attempted, mut failed) = (0u64, 0u64);
    while attempted < MIN_OPS || start.elapsed().as_secs_f64() < seconds {
        let index = u32::try_from(attempted).expect("fewer than 4G ops");
        if !op(index) {
            failed += 1;
        }
        attempted += 1;
    }
    (attempted, failed)
}

/// Constructions timed after each op besides the op's own, so that
/// `setup_s` is a median over many sub-millisecond samples. The first
/// few after an op run with caches the op left cold; with this many,
/// the median is one taken with caches warm.
pub const EXTRA_SETUPS: usize = 64;

/// Time [`EXTRA_SETUPS`] calls of `build` into `out`; what `build`
/// returns is dropped outside the timer.
pub fn time_setups<T>(out: &mut Vec<f64>, mut build: impl FnMut() -> T) {
    for _ in 0..EXTRA_SETUPS {
        let t = Instant::now();
        let built = build();
        out.push(t.elapsed().as_secs_f64());
        drop(built);
    }
}

/// One single-chip job as `clognet run --json` runs it: build, warm,
/// reset statistics, measure, report.
pub struct Job {
    /// The system after its measured window.
    pub sys: System,
    /// Its report, and the bytes `clognet run --json` prints for it.
    pub report: Report,
    pub json: String,
    /// Host seconds `System::new` took.
    pub new_s: f64,
    /// Cycles fast-forward skipped, warmup included.
    pub skipped: u64,
    /// DRAM counters when the measured window began.
    pub dram_at_reset: DramTotals,
}

/// Run job `gpu` + `cpu` under `scheme` at the default configuration.
pub fn job(scheme: Scheme, gpu: &str, cpu: &str, warm: u64, cycles: u64, tr: &mut Tracer) -> Job {
    let cfg = SystemConfig::default().with_scheme(scheme);
    let t = Instant::now();
    let mut sys = tr.span("core", "System::new", || System::new(cfg, gpu, cpu));
    let new_s = t.elapsed().as_secs_f64();
    tr.span("core", "System::run", || sys.run(warm));
    let skipped_warm = sys.skipped_cycles();
    let dram_at_reset = DramTotals::read(std::slice::from_ref(&sys));
    tr.span("core", "System::reset_stats", || sys.reset_stats());
    tr.span("core", "System::run", || sys.run(cycles));
    let report = tr.span("core", "System::report", || sys.report());
    Job {
        json: report_json(scheme, &report),
        skipped: skipped_warm + sys.skipped_cycles(),
        sys,
        report,
        new_s,
        dram_at_reset,
    }
}

/// DRAM counters summed over every channel of `chips`. They are not
/// zeroed by `reset_stats`, so a measured window is the difference of
/// two readings.
#[derive(Debug, Clone, Copy, Default)]
pub struct DramTotals {
    row_hits: u64,
    row_misses: u64,
    ops: u64,
}

impl DramTotals {
    /// Read the counters now.
    pub fn read(chips: &[System]) -> Self {
        let mut t = DramTotals::default();
        for m in chips.iter().flat_map(System::mems) {
            let d = m.dram_stats();
            t.row_hits += d.row_hits;
            t.row_misses += d.row_misses;
            t.ops += d.reads + d.writes;
        }
        t
    }

    fn since(self, earlier: DramTotals) -> DramTotals {
        DramTotals {
            row_hits: self.row_hits - earlier.row_hits,
            row_misses: self.row_misses - earlier.row_misses,
            ops: self.ops - earlier.ops,
        }
    }
}

/// Simulated per-layer statistics of the measured window of `chips`
/// (one chip, or every chip of a package) with report `r`; `dram_at_reset`
/// was read when the window began.
pub fn sim_stats(
    chips: &[System],
    r: &Report,
    dram_at_reset: DramTotals,
) -> Vec<(&'static str, f64)> {
    let (mut llc_hits, mut llc_misses) = (0, 0);
    let (mut warp_insts, mut mem_stalls) = (0, 0);
    let dram = DramTotals::read(chips).since(dram_at_reset);
    for sys in chips {
        for m in sys.mems() {
            llc_hits += m.stats.llc_hits;
            llc_misses += m.stats.llc_misses;
        }
        let gpu = sys.gpu();
        for c in 0..gpu.n_cores() {
            let s = gpu.stats(clognet_proto::CoreId(c as u16));
            warp_insts += s.retired;
            mem_stalls += s.mem_stall_cycles;
        }
    }
    vec![
        ("noc.flit_hops", r.flit_hops as f64),
        ("noc.reply_link_util", r.mem_reply_link_util),
        ("memnode.blocked_frac", r.mem_blocked_rate),
        ("memnode.delegations", r.delegations as f64),
        ("memnode.delegation_hit_frac", r.breakdown.remote_hit_rate()),
        (
            "memnode.llc_hit_rate",
            ratio(llc_hits, llc_hits + llc_misses),
        ),
        ("gpu.warp_insts", warp_insts as f64),
        ("gpu.mem_stall_cycles", mem_stalls as f64),
        ("gpu.l1_miss_rate", r.l1_miss_rate),
        ("cpu.mem_latency", r.cpu_mem_latency),
        (
            "dram.row_hit_rate",
            ratio(dram.row_hits, dram.row_hits + dram.row_misses),
        ),
    ]
}

/// Probe sizing read off one chip's measured window of `cycles`;
/// `dram_at_reset` was read when the window began.
pub fn probe_input(sys: &System, cycles: u64, r: &Report, dram_at_reset: DramTotals) -> ProbeInput {
    let per_cycle = |n: u64| n as f64 / cycles as f64;
    let injected = |class| {
        sys.nets()
            .net(class)
            .stats()
            .injected_pkts
            .iter()
            .sum::<u64>()
    };
    let dram_ops = DramTotals::read(std::slice::from_ref(sys))
        .since(dram_at_reset)
        .ops;
    ProbeInput {
        cfg: sys.config().clone(),
        chips: 1,
        req_pkts_per_cycle: per_cycle(injected(TrafficClass::Request)),
        rep_pkts_per_cycle: per_cycle(injected(TrafficClass::Reply)),
        dram_reqs_per_cycle: per_cycle(dram_ops) / sys.mems().len() as f64,
        l1_miss_rate: r.l1_miss_rate,
        fabric_msgs_per_cycle: [0.0, 0.0],
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

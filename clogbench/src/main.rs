//! clogbench: the clognet benchmark.
//!
//! ```text
//! clogbench --workload clog8|package_fork|serve_round --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload for S seconds and prints, as its last line, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` traces every odd-numbered
//! op, runs the layer probes, and reports the per-layer metrics. See
//! `README.md` beside this crate.

mod clog8;
mod gen;
mod metrics;
mod package_fork;
mod probes;
mod serve_round;
mod stats;
mod trace;
mod workload;

use metrics::{Metrics, END_TO_END, PER_LAYER};
use trace::Tracer;
use workload::Outcome;

const WORKLOADS: [&str; 3] = ["clog8", "package_fork", "serve_round"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .ok_or_else(|| format!("missing {key} <value>"))
    };
    let workload = get("--workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    let num = |key: &str| get(key)?.parse::<u64>().map_err(|e| format!("{key}: {e}"));
    let seconds = num("--seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: seconds as f64,
        trace,
    })
}

fn run(workload: &str, seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    match workload {
        "clog8" => clog8::run(seconds, tr),
        "package_fork" => package_fork::run(seed, seconds, tr),
        "serve_round" => serve_round::run(seed, seconds, tr),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Peak resident set of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn end_to_end(o: &Outcome) -> Metrics {
    let mut m = Metrics::default();
    // Throughput over the whole run rather than a median op: this host
    // flips between speed regimes for seconds at a time, and the median
    // of a two-mode mix jumps between the modes while the total does not.
    let busy_s: f64 = o.op_s.iter().map(|&(_, s)| s).sum();
    m.put(
        "sim_cycles_per_s",
        (o.cycles_per_op * o.op_s.len() as u64) as f64 / busy_s,
    );
    m.put("setup_s", stats::median(&o.setup_s));
    m.put("peak_rss_mb", peak_rss_mb());
    m.put("dr_gpu_speedup", o.dr_gpu_speedup);
    m.put("dr_cpu_speedup", o.dr_cpu_speedup);
    m
}

/// Per-layer metrics of run `o`, whose odd-numbered ops `tr` traced,
/// and of the probe timings.
fn per_layer(o: &Outcome, tr: &Tracer, p: probes::ProbeTimes) -> Metrics {
    let mut m = Metrics::default();
    let ms = |name: &str| {
        let d = tr.durations(name);
        if d.is_empty() {
            0.0
        } else {
            stats::median(&d) / 1e6
        }
    };
    let either = |a: &str, b: &str| {
        if tr.durations(a).is_empty() {
            ms(b)
        } else {
            ms(a)
        }
    };
    let traced_ops = (0..o.attempted).filter(|&op| tr.records(op as u32)).count() as f64;
    let run_ns = tr.total_ns("System::run") + tr.total_ns("MultiChipSystem::run");
    let run_ns_per_cycle = run_ns / (o.run_cycles_per_op as f64 * traced_ops);
    m.put("core.new_ms", either("System::new", "MultiChipSystem::new"));
    m.put("core.run_ns_per_cycle", run_ns_per_cycle);
    m.put(
        "core.ff_skipped_frac",
        o.skipped_cycles as f64 / (o.run_cycles_per_op * o.attempted) as f64,
    );
    m.put(
        "core.report_ms",
        either("System::report", "MultiChipSystem::report"),
    );
    m.put("noc.probe_ns_per_cycle", p.noc_ns_per_cycle);
    m.put(
        "noc.probe_share",
        p.noc_ns_per_cycle * o.probe.chips as f64 / run_ns_per_cycle,
    );
    m.put("dram.probe_ns_per_cycle", p.dram_ns_per_cycle);
    m.put("cache.probe_ns_per_access", p.cache_ns_per_access);
    m.put("fabric.run_ns_per_cycle", p.fabric_ns_per_cycle);
    m.put("snap.save_ms", ms("MultiChipSystem::snapshot"));
    m.put("snap.restore_ms", ms("MultiChipSystem::restore"));
    let self_ns = tr.self_ns_by_layer_under("op");
    for (layer, name) in [
        ("core", "core.self_ms_per_op"),
        ("snap", "snap.self_ms_per_op"),
        ("serve", "serve.self_ms_per_op"),
        ("bench", "bench.self_ms_per_op"),
    ] {
        m.put(
            name,
            self_ns.get(layer).copied().unwrap_or(0) as f64 / traced_ops / 1e6,
        );
    }
    m.put("bench.trace_overhead_frac", trace_overhead(&o.op_s, tr));
    for &(name, v) in o.sim.iter().chain(&o.extra) {
        m.put(name, v);
    }
    // Layers this workload does not reach read zero.
    m.fill_missing(PER_LAYER);
    m
}

/// Mean traced op time over mean untraced op time, less 1. Traced and
/// untraced ops alternate, so a drift in host speed over the run weighs
/// on both alike. Op 0 is left out: it also pays the process's cold
/// start. Means rather than medians, for the reason `sim_cycles_per_s`
/// is a run total.
fn trace_overhead(op_s: &[(u32, f64)], tr: &Tracer) -> f64 {
    let mean = |traced: bool| {
        let xs: Vec<f64> = op_s
            .iter()
            .filter(|&&(op, _)| op > 0 && tr.records(op) == traced)
            .map(|&(_, s)| s)
            .collect();
        (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
    };
    match (mean(true), mean(false)) {
        (Some(traced), Some(untraced)) => traced / untraced - 1.0,
        // Too few ops passed their checks to pair any.
        _ => 0.0,
    }
}

/// Write the spans of `tr` to `clogbench/traces/`; a failure to write
/// is reported but does not fail the run.
fn write_spans(tr: &Tracer, workload: &str, seed: u64) {
    let dir = std::path::Path::new("clogbench").join("traces");
    let path = dir.join(format!("{workload}-seed{seed}.json"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.to_json())) {
        Ok(()) => eprintln!(
            "clogbench: wrote {} spans to {}",
            tr.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!(
            "clogbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("clogbench: {e}");
            eprintln!(
                "usage: clogbench --workload clog8|package_fork|serve_round \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let mut tr = Tracer::new(args.trace);
    let o = run(&args.workload, args.seed, args.seconds, &mut tr);
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics = if o.op_s.is_empty() {
        // No op passed far enough to be timed (every one failed its
        // check): there is nothing to measure, and the result says so.
        let mut m = Metrics::default();
        m.fill_missing(table);
        m
    } else if args.trace {
        let probe_times = probes::run_all(&o.probe, args.seed, &mut tr);
        write_spans(&tr, &args.workload, args.seed);
        per_layer(&o, &tr, probe_times)
    } else {
        end_to_end(&o)
    };
    println!(
        "{}",
        metrics.result_line(table, o.failed == 0, o.attempted, o.failed)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each workload runs its minimum op count twice, under two seeds,
    /// once traced: the simulated numbers must agree bit for bit, and
    /// every op must pass its output check. Slow in a debug build; run
    /// with `--release`.
    #[test]
    fn simulated_metrics_repeat_exactly() {
        for workload in WORKLOADS {
            let a = run(workload, 1, 0.0, &mut Tracer::new(false));
            let b = run(workload, 2, 0.0, &mut Tracer::new(true));
            assert_eq!((a.failed, b.failed), (0, 0), "{workload}");
            assert_eq!(
                a.dr_gpu_speedup.to_bits(),
                b.dr_gpu_speedup.to_bits(),
                "{workload}"
            );
            assert_eq!(
                a.dr_cpu_speedup.to_bits(),
                b.dr_cpu_speedup.to_bits(),
                "{workload}"
            );
            let bits = |o: &Outcome| {
                o.sim
                    .iter()
                    .map(|&(n, v)| (n, v.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(&a), bits(&b), "{workload}");
            assert!(
                a.dr_gpu_speedup > 1.0,
                "{workload}: DR should beat Baseline on GPU IPC"
            );
        }
    }
}

//! `serve_round`: one client in a closed loop over one TCP connection to
//! an in-process `clognet-serve` server with one worker and the handler
//! `clognet serve` runs. Each op starts a fresh server and submits 16
//! small 8×8 jobs — 8 per scheme, each scheme's 8 sharing one warmup —
//! then resubmits the same 16, which are result-cache hits.

use crate::gen::{self, Stream};
use crate::stats;
use crate::trace::{Tracer, NO_OP};
use crate::workload::{self, Job, Outcome};
use clognet_cli::serve_cmd::SimHandler;
use clognet_proto::Scheme;
use clognet_serve::client::{Client, RetryPolicy};
use clognet_serve::json::Json;
use clognet_serve::server::{ServeConfig, Server, ServerHandle};
use clognet_serve::wire::JobSpec;
use std::sync::Arc;
use std::time::{Duration, Instant};

const GPU: &str = "HS";
const CPU: &str = "bodytrack";
/// Every job's warmup. Jobs of one scheme differ only in their measured
/// window, `CYCLES + k` for k in 0..8, so they share the warmup snapshot
/// and do near-identical work.
const WARM: u64 = 2_000;
const CYCLES: u64 = 1_000;
const SCHEMES: [(Scheme, &str); 2] = [
    (Scheme::Baseline, "baseline"),
    (Scheme::DelegatedReplies, "dr"),
];
const PER_SCHEME: u64 = 8;
/// Pause before each extra timed server start.
const TEARDOWN_GRACE: Duration = Duration::from_millis(2);
const JOBS: usize = 2 * PER_SCHEME as usize;

/// Job `j` of the 16: (scheme index, measured cycles).
fn job(j: usize) -> (usize, u64) {
    (j / PER_SCHEME as usize, CYCLES + (j as u64 % PER_SCHEME))
}

fn spec(j: usize) -> JobSpec {
    let (s, cycles) = job(j);
    let mut spec = JobSpec::new(GPU, CPU);
    spec.warm = WARM;
    spec.cycles = cycles;
    spec.opts.insert("scheme".into(), SCHEMES[s].1.into());
    spec
}

/// What one op measured.
#[derive(Default)]
struct Round {
    setup_s: f64,
    op_s: f64,
    /// The 16 submits and 16 resubmits.
    round_s: f64,
    hit_ms: Vec<f64>,
    resume_ms: Vec<f64>,
    reports: Vec<String>,
    stats: String,
}

/// A started server and the client connected to it.
struct Running {
    handle: ServerHandle,
    client: Client,
}

/// Start a fresh server (one worker, `SimHandler`) and connect to it.
fn start(tr: &mut Tracer) -> Result<Running, String> {
    let cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let server = tr.span("serve", "Server::bind", || {
        Server::bind(cfg, Arc::new(SimHandler))
    });
    let handle = server
        .and_then(Server::spawn)
        .map_err(|e| format!("starting the server: {e}"))?;
    let addr = handle.addr().to_string();
    let client = tr.span("serve", "Client::connect", || {
        Client::connect(&addr, &RetryPolicy::default())
    });
    let client = client.map_err(|e| format!("connecting: {e}"))?;
    Ok(Running { handle, client })
}

impl Running {
    /// Fetch the `stats` document, shut the server down and wait for it
    /// to exit.
    fn stop(mut self) -> Result<String, String> {
        let stats = self.client.stats().map_err(|e| format!("stats: {e}"));
        let shutdown = self.client.shutdown().map_err(|e| format!("shutdown: {e}"));
        drop(self.client);
        let joined = self.handle.join().map_err(|e| format!("server exit: {e}"));
        shutdown?;
        joined?;
        stats
    }
}

/// One op. Errors name the first check that failed.
fn round(order: &[usize], reorder: &[usize], tr: &mut Tracer) -> Result<Round, String> {
    let mut out = Round::default();
    let t = Instant::now();
    tr.enter("bench", "op");
    let mut server = match start(tr) {
        Ok(server) => server,
        Err(e) => {
            tr.exit();
            return Err(e);
        }
    };
    out.setup_s = t.elapsed().as_secs_f64();
    let result = submit_all(&mut server.client, order, reorder, &mut out, tr);
    out.round_s = t.elapsed().as_secs_f64() - out.setup_s;
    tr.exit();
    out.op_s = t.elapsed().as_secs_f64();
    let stats = server.stop();
    result?;
    out.stats = stats?;
    Ok(out)
}

fn submit_all(
    client: &mut Client,
    order: &[usize],
    reorder: &[usize],
    out: &mut Round,
    tr: &mut Tracer,
) -> Result<(), String> {
    out.reports = vec![String::new(); JOBS];
    let mut warmed = [false; SCHEMES.len()];
    for &j in order {
        let t = Instant::now();
        let r = tr.span("serve", "Client::submit", || client.submit(&spec(j)));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let r = r.map_err(|e| format!("job {j}: {e}"))?;
        if r.cache_hit {
            return Err(format!("job {j}: first submission was a result-cache hit"));
        }
        let s = job(j).0;
        if warmed[s] {
            out.resume_ms.push(ms);
        }
        warmed[s] = true;
        out.reports[j] = r.report;
    }
    for &j in reorder {
        let t = Instant::now();
        let r = tr.span("serve", "Client::submit", || client.submit(&spec(j)));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let r = r.map_err(|e| format!("job {j} again: {e}"))?;
        if !r.cache_hit || r.report != out.reports[j] {
            return Err(format!("job {j} again: not a byte-identical cache hit"));
        }
        out.hit_ms.push(ms);
    }
    Ok(())
}

/// The served `stats` document's counters this benchmark checks.
struct ServeStats {
    result_hits: u64,
    result_misses: u64,
    snapshot_hits: u64,
    snapshot_misses: u64,
    snapshot_bytes: u64,
    snapshot_entries: u64,
    worker_util: f64,
    refused: u64,
}

fn parse_stats(doc: &str) -> Result<ServeStats, String> {
    let v = Json::parse(doc)?;
    let num = |key: &str| {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("stats has no `{key}`"))
    };
    let counters = v.get("registry").and_then(|r| r.get("counters"));
    let counter = |key: &str| {
        counters
            .and_then(|c| c.get(key))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    Ok(ServeStats {
        result_hits: num("cache_hits")?,
        result_misses: num("cache_misses")?,
        snapshot_hits: num("snapshot_hits")?,
        snapshot_misses: num("snapshot_misses")?,
        snapshot_bytes: num("snapshot_bytes")?,
        snapshot_entries: num("snapshot_entries")?,
        worker_util: v
            .get("utilization")
            .and_then(Json::as_arr)
            .and_then(|u| u.first())
            .and_then(Json::as_f64)
            .ok_or("stats has no worker utilization")?,
        refused: [
            "jobs_rejected_overload",
            "jobs_rejected_cycle_limit",
            "jobs_timed_out",
            "jobs_failed",
            "bad_requests",
        ]
        .iter()
        .map(|k| counter(k))
        .sum(),
    })
}

/// Job `j` run inline on a `System`, as `clognet run --json` runs it.
fn inline(j: usize, tr: &mut Tracer) -> Job {
    let (s, cycles) = job(j);
    workload::job(SCHEMES[s].0, GPU, CPU, WARM, cycles, tr)
}

/// The served report's value of `key`.
fn field(report: &str, key: &str) -> f64 {
    Json::parse(report)
        .ok()
        .and_then(|v| v.get(key).and_then(Json::as_f64))
        .unwrap_or_else(|| panic!("served report has no numeric `{key}`: {report}"))
}

/// Run `serve_round` for `seconds` under `seed`, which orders the
/// submissions and the resubmissions.
pub fn run(seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    let order = gen::permutation(seed, Stream::SubmitOrder, JOBS);
    let reorder = gen::permutation(seed, Stream::ResubmitOrder, JOBS);
    // The DR job with the shortest window is also run inline each op.
    let checked = PER_SCHEME as usize;
    let mut rounds: Vec<Round> = Vec::new();
    let mut stats: Vec<ServeStats> = Vec::new();
    let mut op_s = Vec::new();
    let mut skipped = 0;
    let mut first_inline: Option<Job> = None;
    let mut setup_s = Vec::new();
    let (attempted, failed) = workload::op_loop(seconds, |op| {
        tr.set_op(op);
        let mut extra_failed = false;
        let r = round(&order, &reorder, tr).and_then(|r| {
            let st = parse_stats(&r.stats)?;
            if st.refused > 0
                || st.result_hits != JOBS as u64
                || st.snapshot_hits != (JOBS - SCHEMES.len()) as u64
            {
                return Err(format!("unexpected serve counters: {}", r.stats));
            }
            Ok((r, st))
        });
        for _ in 0..workload::EXTRA_SETUPS {
            // The last server's connection thread is detached and may
            // still be exiting; let it finish so that no start is timed
            // against the last one's teardown.
            std::thread::sleep(TEARDOWN_GRACE);
            let t = Instant::now();
            let started = start(&mut Tracer::new(false));
            setup_s.push(t.elapsed().as_secs_f64());
            if let Err(e) = started.and_then(Running::stop) {
                eprintln!("serve_round op {op}: extra server start: {e}");
                extra_failed = true;
            }
        }
        let inl = inline(checked, tr);
        skipped += inl.skipped;
        let ok = match r {
            Err(e) => {
                eprintln!("serve_round op {op}: {e}");
                false
            }
            Ok((r, st)) => {
                setup_s.push(r.setup_s);
                op_s.push((op, r.op_s));
                let ok = !extra_failed
                    && r.reports[checked] == inl.json
                    && rounds.first().is_none_or(|r0| r0.reports == r.reports);
                rounds.push(r);
                stats.push(st);
                ok
            }
        };
        first_inline.get_or_insert(inl);
        ok
    });
    tr.set_op(NO_OP);
    let inl = first_inline.expect("at least one op ran");
    let mut out = Outcome {
        attempted,
        failed,
        op_s,
        setup_s,
        // Simulated cycles the server runs per op: both warmups once,
        // plus every job's measured window.
        cycles_per_op: SCHEMES.len() as u64 * WARM + (0..JOBS).map(|j| job(j).1).sum::<u64>(),
        run_cycles_per_op: WARM + job(checked).1,
        skipped_cycles: skipped,
        dr_gpu_speedup: 0.0,
        dr_cpu_speedup: 0.0,
        sim: workload::sim_stats(
            std::slice::from_ref(&inl.sys),
            &inl.report,
            inl.dram_at_reset,
        ),
        extra: Vec::new(),
        probe: workload::probe_input(&inl.sys, job(checked).1, &inl.report, inl.dram_at_reset),
    };
    // With no round through its checks there are no served reports or
    // latencies to read; the speedups stay 0 and the run is reported
    // as failed.
    if let Some(r0) = rounds.first() {
        let at = |s: usize, key| field(&r0.reports[s * PER_SCHEME as usize], key);
        out.dr_gpu_speedup = at(1, "gpu_ipc") / at(0, "gpu_ipc");
        out.dr_cpu_speedup = at(1, "cpu_performance") / at(0, "cpu_performance");
        out.extra = serve_metrics(&rounds, &stats);
    }
    out
}

/// The serve-layer metrics of at least one checked round.
fn serve_metrics(rounds: &[Round], stats: &[ServeStats]) -> Vec<(&'static str, f64)> {
    let hits: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.hit_ms.iter().copied())
        .collect();
    let resumes: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.resume_ms.iter().copied())
        .collect();
    let round_s: f64 = rounds.iter().map(|r| r.round_s).sum();
    let st = &stats[0];
    let mut extra = vec![
        (
            "serve.result_hit_frac",
            workload::ratio(st.result_hits, st.result_hits + st.result_misses),
        ),
        (
            "serve.snapshot_hit_frac",
            workload::ratio(st.snapshot_hits, st.snapshot_hits + st.snapshot_misses),
        ),
        (
            "serve.worker_util",
            stats::median(&stats.iter().map(|s| s.worker_util).collect::<Vec<_>>()),
        ),
        (
            "serve.refused",
            stats.iter().map(|s| s.refused).sum::<u64>() as f64,
        ),
        (
            "serve.jobs_per_s",
            (2 * JOBS * rounds.len()) as f64 / round_s,
        ),
        (
            "snap.bytes",
            workload::ratio(st.snapshot_bytes, st.snapshot_entries),
        ),
    ];
    let classes = [
        (
            &hits,
            [
                "serve.hit_p50_ms",
                "serve.hit_tail_ms",
                "serve.hit_tail_pct",
                "serve.hit_samples",
            ],
        ),
        (
            &resumes,
            [
                "serve.resume_p50_ms",
                "serve.resume_tail_ms",
                "serve.resume_tail_pct",
                "serve.resume_samples",
            ],
        ),
    ];
    for (xs, [p50, tail, pct, samples]) in classes {
        let t = stats::tail(xs);
        extra.push((p50, stats::median(xs)));
        extra.push((tail, t.map_or(0.0, |t| t.value)));
        extra.push((pct, t.map_or(0.0, |t| t.pct)));
        extra.push((samples, xs.len() as f64));
    }
    extra
}

//! Service benchmark for the T-DFS workspace: drives `tdfs-service` and
//! `tdfs-cluster` through their public APIs with seeded inputs, checks
//! every result, and prints every metric by name with its unit. See
//! README.md for the workloads, the metrics and how to run it.
//!
//! Usage: `perfbench --workload <point|mine|churn|cluster> --seed <n>
//! --seconds <s> --trace <0|1> --out <dir>`

mod churn;
mod cluster;
mod common;
mod mine;
mod point;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use trace::Trace;

/// End-to-end metrics every workload measures (the final line of an
/// untraced run carries exactly these).
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "qps",
    "query_p50_ms",
    "query_p90_ms",
    "rss_peak_mb",
];

/// Per-layer metrics every workload's traced run measures (the final
/// line of a traced run carries exactly these). Workload-specific layer
/// metrics are printed in the report above it and written to the
/// results file.
pub const PER_LAYER: &[&str] = &[
    "trace.overhead_pct",
    "graph.csr_build_ms",
    "graph.container_install_ms",
    "graph.mapped_open_ms",
    "graph.decodes_per_query",
    "query.plan_build_us",
    "mem.arena_new_us",
    "mem.stack_peak_kib",
    "mem.pages_spilled",
    "gpu.intersections_per_query",
    "gpu.probe_per_emit",
    "gpu.bytes_per_match",
    "gpu.kernel_share.merge",
    "gpu.kernel_share.bsearch",
    "gpu.kernel_share.gallop",
    "gpu.simd_share",
    "core.engine_us",
    "core.host_filter_us",
    "core.timeouts_per_query",
    "core.makespan_ratio",
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        out: out.ok_or("--out is required")?,
    })
}

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a latency percentile.
    pub samples: Option<usize>,
}

/// What a workload run measured.
#[derive(Default)]
pub struct Report {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Rejections, deadline misses, engine errors and wrong counts.
    pub failed: u64,
    /// Results that disagreed with the precomputed expectation.
    pub wrong: u64,
    pub metrics: Vec<Metric>,
    /// Spans of a traced run.
    pub trace: Option<Trace>,
}

impl Report {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        });
    }

    /// Pushes `qps` (when `qps` is set) and `<prefix>_p<pct>_ms` for each
    /// percentile every window's sample count supports, each the median
    /// over the run's windows (one per segment); unsupported percentiles
    /// are not printed.
    pub fn windowed(
        &mut self,
        prefix: &str,
        tally: &common::Tally,
        segments: &[common::Segment],
        pcts: &[usize],
        qps: bool,
    ) {
        let windows = tally.windows(segments);
        if qps {
            let rates: Vec<f64> = windows.iter().map(|w| w.ops_per_s).collect();
            self.push("qps", stats::median(&rates), "1/s");
        }
        for &pct in pcts {
            let per_window: Option<Vec<f64>> = windows
                .iter()
                .map(|w| stats::percentile(&w.latencies_ms, pct))
                .collect();
            if let Some(values) = per_window {
                self.metrics.push(Metric {
                    name: format!("{prefix}_p{pct}_ms"),
                    value: stats::median(&values),
                    unit: "ms",
                    samples: Some(tally.latencies_ms.len()),
                });
            }
        }
    }

    pub fn tally(&mut self, t: &common::Tally) {
        self.attempted += t.attempted;
        self.failed += t.failed;
        self.wrong += t.wrong;
    }

    fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

fn fingerprint(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let avx2 = is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    format!(
        "\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"avx2\": {avx2}, \"simd_kernels\": {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        tdfs_gpu::simd::available()
    )
}

fn write_results(args: &Args, report: &Report) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let mut body = format!(
        "{{{}, \"attempted\": {}, \"failed\": {}, \"wrong\": {}, \"metrics\": {{",
        fingerprint(args),
        report.attempted,
        report.failed,
        report.wrong
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let samples = m
            .samples
            .map_or(String::new(), |n| format!(", \"samples\": {n}"));
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"{samples}}}",
            m.name, m.value, m.unit
        );
    }
    body.push_str("}}\n");
    std::fs::write(args.out.join(format!("{stem}.json")), body)?;
    if let Some(trace) = &report.trace {
        let mut w = std::io::BufWriter::new(std::fs::File::create(
            args.out.join(format!("{stem}.spans.jsonl")),
        )?);
        trace.write_jsonl(&mut w)?;
        w.flush()?;
    }
    Ok(())
}

fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "point" => point::run(args),
        "mine" => mine::run(args),
        "churn" => churn::run(args),
        "cluster" => cluster::run(args),
        w => Err(format!(
            "unknown workload {w:?} (point, mine, churn, cluster)"
        )),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = write_results(&args, &report) {
        eprintln!(
            "perfbench: writing results under {}: {e}",
            args.out.display()
        );
        return ExitCode::FAILURE;
    }

    println!("# {{{}}}", fingerprint(&args));
    for m in &report.metrics {
        let n = m.samples.map_or(String::new(), |n| format!("  [n={n}]"));
        println!("{:<34} {:>14.4} {}{n}", m.name, m.value, m.unit);
    }
    if let Some(trace) = &report.trace {
        println!("# spans: name count total_ms self_ms");
        for (name, (count, total, own)) in trace.summary() {
            println!(
                "#   {name:<30} {count:>8} {:>12.3} {:>12.3}",
                total / 1e3,
                own / 1e3
            );
        }
    }

    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.wrong == 0,
        report.attempted,
        report.failed
    );
    for (i, name) in declared.iter().enumerate() {
        let Some(m) = report.get(name).filter(|m| m.value.is_finite()) else {
            eprintln!(
                "perfbench: {}: metric {name} was not measured",
                args.workload
            );
            return ExitCode::FAILURE;
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.value, m.unit
        );
    }
    line.push_str("}}");
    println!("{line}");
    ExitCode::SUCCESS
}

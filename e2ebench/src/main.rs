//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`). Exits 1 on any oracle mismatch or accounting failure and
//! 2 on a usage error.

use e2ebench::stats::ns;
use e2ebench::trace::Tracer;
use e2ebench::{batch, host, metric, service, session, Metric, Pass, Tally};
use e2ebench::{E2E_METRICS, LAYER_METRICS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: e2ebench --workload <batch_uniform|service_small|session_stream> \
                     --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Batch,
    Service,
    Session,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Batch, Workload::Service, Workload::Session];

    fn name(self) -> &'static str {
        match self {
            Workload::Batch => "batch_uniform",
            Workload::Service => "service_small",
            Workload::Session => "session_stream",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// A finished run: accounting, metrics, and notes for the record.
struct Report {
    tally: Tally,
    metrics: Vec<Metric>,
    notes: Vec<(String, String)>,
}

fn run_pass(
    w: Workload,
    seed: u64,
    secs: f64,
    work: &Path,
    tracer: Option<&Tracer>,
) -> Result<Pass, String> {
    match w {
        Workload::Batch => Ok(batch::pass(seed, secs, tracer)),
        Workload::Service => service::pass(seed, secs, tracer),
        Workload::Session => session::pass(seed, secs, work, tracer),
    }
}

fn pass_notes(w: Workload, label: &str, pass: &Pass, notes: &mut Vec<(String, String)>) {
    let n = pass.latency.len();
    notes.push((
        format!("{}.{label}.latency_samples", w.name()),
        n.to_string(),
    ));
    for (k, v) in &pass.notes {
        notes.push((format!("{}.{label}.{k}", w.name()), v.clone()));
    }
}

/// The flag a child process gets to time one cold first call.
const FIRST_CALL_PROBE: &str = "--first-call-probe";

/// Set-up time of `batch_uniform`: the median first call of
/// [`batch::SETUP_REPS`] fresh child processes, each waited for.
fn batch_setup_s(seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut times = Vec::new();
    for _ in 0..batch::SETUP_REPS {
        let out = std::process::Command::new(&exe)
            .args([FIRST_CALL_PROBE, &seed.to_string()])
            .output()
            .map_err(|e| format!("first-call probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        match (out.status.success(), text.trim().parse::<f64>()) {
            (true, Ok(s)) => times.push(s),
            _ => {
                return Err(format!(
                    "first-call probe {}: its output differs from the oracle or it failed",
                    out.status
                ))
            }
        }
    }
    Ok(e2ebench::stats::median(&mut times))
}

fn untraced(args: &Args, work: &Path) -> Result<Report, String> {
    let w = args.workload;
    let mut pass = run_pass(w, args.seed, args.seconds, work, None)?;
    if w == Workload::Batch {
        pass.setup_s = batch_setup_s(args.seed)?;
    }
    let t = pass.tally;
    let mut notes = Vec::new();
    pass_notes(w, "e2e", &pass, &mut notes);
    let metrics = vec![
        metric("setup_s", pass.setup_s, "s"),
        metric(
            "ok_fraction",
            1.0 - t.failed as f64 / t.attempted as f64,
            "fraction",
        ),
        metric("peak_rss_mb", host::peak_rss_mib(), "MiB"),
        metric("throughput_per_s", pass.throughput_per_s, "1/s"),
        metric("latency_p50_us", pass.p50_us(), "us"),
    ];
    Ok(Report {
        tally: t,
        metrics,
        notes,
    })
}

/// The traced run: for every workload (the named one first), an untraced
/// pass then a traced pass of one sixth of the run each, then the layer
/// probes. Every per-layer metric is therefore present whichever
/// workload is named.
fn traced(args: &Args, work: &Path, out_dir: &Path) -> Result<Report, String> {
    let mut order = vec![args.workload];
    order.extend(Workload::ALL.into_iter().filter(|&w| w != args.workload));
    let secs = args.seconds / (2 * order.len()) as f64;
    let mut report = Report {
        tally: Tally::default(),
        metrics: Vec::new(),
        notes: Vec::new(),
    };
    for w in order {
        let plain = run_pass(w, args.seed, secs, work, None)?;
        let tracer = Tracer::new();
        let started = Instant::now();
        let traced = run_pass(w, args.seed, secs, work, Some(&tracer))?;
        let (layers, probes) = match w {
            Workload::Batch => (batch::layers(&tracer, &traced, &plain), Tally::default()),
            Workload::Service => service::layers(args.seed, &tracer, &traced, &plain)?,
            Workload::Session => session::layers(args.seed, work, &tracer, &traced, &plain)?,
        };
        for (tally, label) in [(plain.tally, "plain"), (traced.tally, "traced")] {
            report.tally.add(tally);
            report.notes.push((
                format!("{}.{label}.attempted", w.name()),
                tally.attempted.to_string(),
            ));
        }
        report.tally.add(probes);
        pass_notes(w, "plain", &plain, &mut report.notes);
        pass_notes(w, "traced", &traced, &mut report.notes);
        report.notes.push((
            format!("{}.traced.spans", w.name()),
            tracer.len().to_string(),
        ));
        report.notes.push((
            format!("{}.traced.wall_ms", w.name()),
            (ns(started.elapsed()) / 1_000_000).to_string(),
        ));
        report.metrics.extend(layers);
        let path = out_dir.join(format!("trace-{}.jsonl", w.name()));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    report
        .metrics
        .sort_by_key(|m| LAYER_METRICS.iter().position(|&n| n == m.name));
    Ok(report)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn host_record(args: &Args, work: &Path, repo_root: &Path) -> String {
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"simd\":{},\
         \"session_fs\":{},\"commit\":{},\"service_config\":{}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::nproc(),
        json_str(multiprefix::simd::active_level().name()),
        json_str(&host::fs_type(work)),
        json_str(&host::commit(repo_root)),
        service::describe_config(),
    )
}

fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.tally.mismatches == 0,
        report.tally.attempted,
        report.tally.failed,
        metrics.join(",")
    )
}

/// The emitted metrics must be exactly the declared list, each measured.
fn check_metrics(report: &Report, declared: &[&str]) -> Result<(), String> {
    let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
    if names != declared {
        return Err(format!(
            "metric list {names:?} differs from the declared {declared:?}"
        ));
    }
    match report.metrics.iter().find(|m| !m.value.is_finite()) {
        Some(m) => Err(format!("metric {} was not measured ({})", m.name, m.value)),
        None => Ok(()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, seed] = &argv[..] {
        if flag == FIRST_CALL_PROBE {
            let secs = seed.parse().ok().and_then(batch::first_call_s);
            return match secs {
                Some(s) => {
                    println!("{s}");
                    ExitCode::SUCCESS
                }
                None => ExitCode::FAILURE,
            };
        }
    }
    let args = match parse_args(argv.into_iter()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let repo_root = bench_dir.parent().unwrap_or(bench_dir);
    let out_dir = bench_dir.join("out");
    let work: PathBuf = out_dir.join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("e2ebench: creating {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let host = host_record(&args, &work, repo_root);
    let fs = host::fs_type(&work);
    if matches!(fs.as_str(), "tmpfs" | "ramfs") {
        eprintln!(
            "e2ebench: warning: session directory is on {fs}; its fsync is not a disk barrier"
        );
    }
    let result = if args.trace {
        traced(&args, &work, &out_dir)
    } else {
        untraced(&args, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    let declared = if args.trace {
        LAYER_METRICS
    } else {
        E2E_METRICS
    };
    let report = match result.and_then(|r| check_metrics(&r, declared).map(|()| r)) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("e2ebench: {msg}");
            return ExitCode::FAILURE;
        }
    };

    println!("host {host}");
    for (k, v) in &report.notes {
        println!("note {k} = {v}");
    }
    for m in &report.metrics {
        println!("metric {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let json = result_json(&report);
    let record = out_dir.join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&record, format!("{{\"host\":{host},\"result\":{json}}}\n")) {
        eprintln!("e2ebench: writing {}: {e}", record.display());
    }
    println!("{json}");
    if report.tally.mismatches > 0 {
        eprintln!(
            "e2ebench: {} outputs differ from the oracle",
            report.tally.mismatches
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

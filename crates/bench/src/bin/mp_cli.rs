//! `mp_cli` — the multiprefix operation as a command-line filter.
//!
//! Reads `value,label` CSV lines from stdin (or a file given as the last
//! argument) and prints each element's multiprefix sum; with `--reduce`
//! it prints only the per-label reductions as `label,total` lines.
//!
//! ```text
//! USAGE: mp_cli [--op plus|max|min|mult] [--engine auto|serial|spinetree|chunked]
//!               [--reduce] [--inclusive] [FILE]
//! ```
//!
//! Labels may be any non-negative integers; `m` is inferred as
//! `max(label) + 1`.

use multiprefix::op::{Max, Min, Mult, Plus};
use multiprefix::{multiprefix, multiprefix_inclusive, multireduce, Engine, MpError};
use std::io::{BufRead, Write};

struct Options {
    op: String,
    engine: Engine,
    reduce: bool,
    inclusive: bool,
    file: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        op: "plus".into(),
        engine: Engine::Auto,
        reduce: false,
        inclusive: false,
        file: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--op" => {
                opts.op = args.next().ok_or("--op needs a value")?;
            }
            "--engine" => {
                opts.engine = match args.next().as_deref() {
                    Some("auto") => Engine::Auto,
                    Some("serial") => Engine::Serial,
                    Some("spinetree") => Engine::Spinetree,
                    Some("chunked") => Engine::Chunked,
                    other => return Err(format!("unknown engine {other:?}")),
                };
            }
            "--reduce" => opts.reduce = true,
            "--inclusive" => opts.inclusive = true,
            "--help" | "-h" => {
                println!(
                    "mp_cli: multiprefix over value,label CSV lines\n\
                     options: --op plus|max|min|mult  --engine auto|serial|spinetree|chunked\n\
                     \x20        --reduce (totals only)  --inclusive  [FILE]"
                );
                std::process::exit(0);
            }
            f if !f.starts_with('-') => opts.file = Some(f.to_string()),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if opts.reduce && opts.inclusive {
        return Err("--reduce and --inclusive are mutually exclusive".into());
    }
    Ok(opts)
}

fn read_input(file: &Option<String>) -> Result<(Vec<i64>, Vec<usize>), String> {
    let reader: Box<dyn BufRead> = match file {
        Some(path) => Box::new(std::io::BufReader::new(
            std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?,
        )),
        None => Box::new(std::io::stdin().lock()),
    };
    let mut values = Vec::new();
    let mut labels = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| e.to_string())?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (v, l) = line
            .split_once(',')
            .ok_or_else(|| format!("line {}: expected value,label", lineno + 1))?;
        values.push(
            v.trim()
                .parse::<i64>()
                .map_err(|e| format!("line {}: bad value: {e}", lineno + 1))?,
        );
        labels.push(
            l.trim()
                .parse::<usize>()
                .map_err(|e| format!("line {}: bad label: {e}", lineno + 1))?,
        );
    }
    Ok((values, labels))
}

fn run(opts: &Options) -> Result<String, String> {
    let (values, labels) = read_input(&opts.file)?;
    let m = labels.iter().max().map_or(0, |&l| l + 1);
    let mut out = String::new();
    macro_rules! go {
        ($op:expr) => {{
            if opts.reduce {
                let red = multireduce(&values, &labels, m, $op, opts.engine)
                    .map_err(|e: MpError| e.to_string())?;
                for (label, total) in red.iter().enumerate() {
                    out.push_str(&format!("{label},{total}\n"));
                }
            } else {
                let result = if opts.inclusive {
                    multiprefix_inclusive(&values, &labels, m, $op, opts.engine)
                } else {
                    multiprefix(&values, &labels, m, $op, opts.engine)
                }
                .map_err(|e: MpError| e.to_string())?;
                for s in &result.sums {
                    out.push_str(&format!("{s}\n"));
                }
            }
        }};
    }
    match opts.op.as_str() {
        "plus" => go!(Plus),
        "max" => go!(Max),
        "min" => go!(Min),
        "mult" => go!(Mult),
        other => return Err(format!("unknown op {other}")),
    }
    Ok(out)
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("mp_cli: {e}");
            std::process::exit(2);
        }
    };
    match run(&opts) {
        Ok(text) => {
            std::io::stdout()
                .write_all(text.as_bytes())
                .expect("stdout");
        }
        Err(e) => {
            eprintln!("mp_cli: {e}");
            std::process::exit(1);
        }
    }
}

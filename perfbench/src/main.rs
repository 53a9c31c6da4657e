//! Command line of the repository benchmark:
//!
//! ```text
//! acn-perfbench --workload <shm_hot|shm_adapt|dist_steady|dist_churn>
//!               --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Prints the provenance, for a traced run the per-layer self-time
//! table and each per-layer metric with what it should move, and as the
//! last line the result JSON. With `--out` it also
//! writes the result with its provenance to
//! `<dir>/<workload>.seed<n>.trace<t>.json`, and a traced run writes a
//! Chrome trace through `acn_trace::chrome::write_artifact` (directory
//! from `ACN_TRACE_DIR`).

use std::path::PathBuf;
use std::process::ExitCode;

use acn_perfbench::report::PER_LAYER;
use acn_perfbench::{run, spans, Config, Scale, Workload};

fn parse() -> Result<(Config, Option<PathBuf>), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced, mut out) = (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let cfg = Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        scale: Scale::full(),
        planted_fault: false,
    };
    Ok((cfg, out))
}

fn main() -> ExitCode {
    let (cfg, out) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("acn-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut result = run(&cfg);
    for (key, var) in [
        ("commit", "PERFBENCH_COMMIT"),
        ("source_sha256", "PERFBENCH_SOURCE_SHA256"),
        ("rustc", "PERFBENCH_RUSTC"),
    ] {
        if let Ok(value) = std::env::var(var) {
            result.outcome.note(key, value);
        }
    }
    let outcome = &result.outcome;
    let line = outcome.result_line(cfg.traced);
    let provenance = outcome.provenance_json();
    println!("provenance: {provenance}");
    for v in &outcome.violations {
        println!("violation: {v}");
    }
    if cfg.traced {
        print!("{}", spans::render_table(&result.spans));
        for def in PER_LAYER {
            let value = outcome.metrics.get(def.name).copied().unwrap_or(0.0);
            println!("{:<38} {value:>16.4} {:<7} moves: {}", def.name, def.unit, def.moves);
        }
    }
    if let Some(dir) = out {
        let stem =
            format!("{}.seed{}.trace{}", cfg.workload.name(), cfg.seed, u8::from(cfg.traced));
        let record = format!("{{\"provenance\": {provenance}, \"result\": {line}}}\n");
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), record));
        if let Err(e) = written {
            eprintln!("acn-perfbench: cannot write the result record: {e}");
        }
        if cfg.traced {
            match acn_trace::chrome::write_artifact(&stem, &result.spans) {
                Ok(path) => println!("chrome trace: {}", path.display()),
                Err(e) => eprintln!("acn-perfbench: cannot write the Chrome trace: {e}"),
            }
        }
    }
    println!("{line}");
    ExitCode::SUCCESS
}

//! `specbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints, as its last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The metrics are the
//! end-to-end metrics of `BENCHMARK.json` (untraced run) or its per-layer
//! metrics (`--trace 1`). Human-readable detail goes to stderr; the traced
//! run's spans go to `specbench/out/`.
//!
//! `specbench --list` prints the metric catalogue.
//!
//! Exit status: 0 when every output check passed, 1 when one failed (the
//! result line is still printed), 2 on bad arguments.

use specbench::catalogue::{Catalogue, Metric};
use specbench::{RunArgs, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

const USAGE: &str =
    "usage: specbench --workload <name> --seed <n> --seconds <s> --trace <0|1> | --list";

fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
                    .ok_or(format!("bad seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Renders the result line, in catalogue order and units; errors when the
/// run's metrics and the catalogue disagree.
fn result_line(
    declared: &[Metric],
    got: &BTreeMap<&'static str, f64>,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    for name in got.keys() {
        if !declared.iter().any(|m| m.name == *name) {
            return Err(format!("metric `{name}` is not declared in BENCHMARK.json"));
        }
    }
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in declared.iter().enumerate() {
        let v = got
            .get(m.name.as_str())
            .copied()
            .ok_or(format!("the run produced no `{}`", m.name))?;
        if !v.is_finite() {
            return Err(format!("`{}` is not finite", m.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    Ok(s)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let catalogue = match Catalogue::load() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("specbench: {e}");
            return ExitCode::from(2);
        }
    };
    if argv.first().map(String::as_str) == Some("--list") {
        print!("{}", catalogue.listing());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("specbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "specbench: {} seed {} for {}s{} (host parallelism {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" },
        specslice_exec::available_parallelism()
    );
    let out = specbench::run(&args);
    let checks = &out.checks;
    eprintln!(
        "digest {} {} {:016x}",
        args.workload.name(),
        args.seed,
        out.digest
    );
    for note in &checks.notes {
        eprintln!("note: {note}");
    }
    for msg in checks.messages.iter().take(16) {
        eprintln!("check failed: {msg}");
    }
    eprintln!(
        "ops {} failed {} error_rate {:.6}",
        checks.attempted,
        checks.failed,
        specbench::util::ratio(checks.failed as f64, checks.attempted as f64)
    );
    let (declared, got) = if args.trace {
        (&catalogue.per_layer, out.layers.clone().unwrap_or_default())
    } else {
        (&catalogue.end_to_end, out.metrics.clone())
    };
    for m in declared.iter() {
        if let Some(v) = got.get(m.name.as_str()) {
            eprintln!("  {:<30} {v:>14.4} {}", m.name, m.unit);
        }
    }
    if let Some(spans) = &out.spans {
        let dir = std::path::Path::new("specbench/out");
        let path = dir.join(format!(
            "{}-seed{}.spans.tsv",
            args.workload.name(),
            args.seed
        ));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans)) {
            Ok(()) => eprintln!("spans: {}", path.display()),
            Err(e) => eprintln!("spans not written ({}): {e}", path.display()),
        }
    }
    let correct = checks.failed == 0;
    match result_line(
        declared,
        &got,
        correct,
        checks.attempted.max(1),
        checks.failed,
    ) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("specbench: {e}");
            return ExitCode::from(1);
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

//! `swift-bench eval [artefact…]`: evaluates the paper's artefacts (all of
//! them when none is named) at paper scale, prints every record, then each
//! paper number as met or missed, with the known cause of a miss. A missed
//! number is not an error; an unknown artefact exits 2.

use std::process::ExitCode;
use swift_bench::eval::{self, EvalInputs, PAPER};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = args.iter().skip(1).map(String::as_str).collect();
    if args.first().map(String::as_str) != Some("eval") {
        let known = eval::artefacts().collect::<Vec<_>>().join(" ");
        eprintln!("usage: swift-bench eval [artefact…]  (artefacts: {known})");
        return ExitCode::from(2);
    }
    let records = match eval::run(&EvalInputs::paper(), &names) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("swift-bench: {e}");
            return ExitCode::from(2);
        }
    };
    for r in &records {
        println!("{:<7} {:<36} {}", r.artefact, r.metric, show(r.value));
    }
    println!();
    let wanted = PAPER
        .iter()
        .filter(|row| names.is_empty() || names.contains(&row.0));
    for row @ (artefact, metric, paper, tolerance, source, cause) in wanted {
        let (here, verdict) = eval::verdict(row, &records);
        let (paper, here) = (show(*paper), here.map_or("-".into(), show));
        let tolerance = format!("{tolerance:?}");
        let cause = cause.map_or(String::new(), |c| format!(", cause {c:?}").to_lowercase());
        println!("{artefact:<7} {metric:<36} paper {paper:>7} {tolerance:<10} here {here:>8}  {verdict}{cause} ({source})");
    }
    ExitCode::SUCCESS
}

/// Integers as integers, everything else to four decimals.
fn show(v: f64) -> String {
    if v.fract() == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

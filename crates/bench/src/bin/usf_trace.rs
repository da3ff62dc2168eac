//! `usf-trace`: convert a recorded schedule (`sched_trace` JSONL) into Chrome
//! trace-event / Perfetto JSON.
//!
//! The input is the JSONL dump produced by `sched_chaos --trace-jsonl` (or any consumer
//! of [`usf_nosv::sched_trace::to_jsonl`]); the output opens directly in
//! `ui.perfetto.dev` or `chrome://tracing`. See `EXPERIMENTS.md` § "Perfetto timeline
//! capture" for a walkthrough.
//!
//! `--validate` additionally checks the converter's structural invariants (one span per
//! grant, per-core spans non-overlapping) and exits non-zero on violation — CI runs the
//! chaos scenario through this to keep the trace plane honest.

use usf_bench::cli::{self, FlagSpec};
use usf_bench::perfetto;
use usf_nosv::{sched_trace, StatsSample};

const FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "--input",
        value_name: Some("PATH"),
        help: "schedule trace JSONL to convert (required)",
    },
    FlagSpec {
        name: "--output",
        value_name: Some("PATH"),
        help: "write Perfetto JSON here (omit to only validate)",
    },
    FlagSpec {
        name: "--samples",
        value_name: Some("PATH"),
        help: "optional stats-sampler JSONL; becomes counter tracks",
    },
    FlagSpec {
        name: "--validate",
        value_name: None,
        help: "check span/grant invariants; exit 1 on violation",
    },
];

fn main() {
    let args = cli::parse_or_exit(
        "usf_trace",
        "Converts a recorded schedule (sched_trace JSONL, e.g. from `sched_chaos \
         --trace-jsonl`) to Perfetto JSON.",
        FLAGS,
    );
    let input = args.get("--input").unwrap_or_else(|| {
        eprintln!("usf_trace: --input <PATH> is required");
        std::process::exit(2);
    });
    let text = std::fs::read_to_string(input).unwrap_or_else(|e| {
        eprintln!("usf_trace: reading {input}: {e}");
        std::process::exit(2);
    });
    let (meta, entries) = sched_trace::from_jsonl(&text).unwrap_or_else(|e| {
        eprintln!("usf_trace: {input}: {e}");
        std::process::exit(1);
    });

    let mut samples = Vec::new();
    if let Some(path) = args.get("--samples") {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("usf_trace: reading {path}: {e}");
            std::process::exit(2);
        });
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match StatsSample::from_jsonl_line(line) {
                Ok(s) => samples.push(s),
                Err(e) => {
                    eprintln!("usf_trace: {path} line {}: {e}", lineno + 1);
                    std::process::exit(1);
                }
            }
        }
    }

    let timeline = perfetto::build_timeline(meta, &entries, &samples);
    println!(
        "parsed {} events -> {} spans on {} cores, {} instants, {} counter points",
        entries.len(),
        timeline.spans.len(),
        timeline.meta.cores(),
        timeline.markers.len(),
        timeline.counters.len()
    );

    if args.has("--validate") {
        match timeline.validate() {
            Ok(()) => println!(
                "validate: ok (spans == grants == {}, per-core spans non-overlapping)",
                timeline.grants
            ),
            Err(e) => {
                eprintln!("usf_trace: validation failed: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(output) = args.get("--output") {
        let rendered = timeline.render_chrome_json();
        std::fs::write(output, &rendered).unwrap_or_else(|e| {
            eprintln!("usf_trace: writing {output}: {e}");
            std::process::exit(2);
        });
        println!("wrote {output}");
    }
}

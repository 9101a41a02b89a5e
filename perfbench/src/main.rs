//! `iwa-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process and prints a report; the last line
//! of standard output is the JSON result. With `--trace 0` it carries the
//! end-to-end metrics, with `--trace 1` the per-layer metrics, and the
//! traced run also writes its spans (Chrome `trace_event` JSON) and a
//! per-layer table under `out/` next to this package. Exits 1 when any
//! operation failed its known-answer or fidelity check, 2 on bad usage.

use iwa_perfbench::closed::{self, Closed};
use iwa_perfbench::inputs::{self, Input};
use iwa_perfbench::replay::Tally;
use iwa_perfbench::stats::{status_kb, Checks, REF_NOMINAL_MS};
use iwa_perfbench::trace::Recorder;
use iwa_perfbench::{result_line, serve, Layered, Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Set-ups per run; the median is reported.
const SETUPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes an integer")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n{e}",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // File reads happen before the set-up clock starts.
    let corpus = match inputs::load_corpus(&package_dir().join("../corpus")) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let rss_start_kb = status_kb("VmRSS");
    let budget = Duration::from_secs(args.seconds);
    let mut checks = Checks::default();
    let mut rec = Recorder::new(args.trace);

    let (setup_s, raw_setup_s, outcome, layered) = match args.workload.as_str() {
        "serve_replay" => {
            let (mut session, setup_s) = match serve::setup(SETUPS, args.seed, &corpus, &mut checks)
            {
                Ok(x) => x,
                Err(e) => {
                    eprintln!("error: serve set-up failed: {e}");
                    return ExitCode::from(1);
                }
            };
            let run = if args.trace {
                let l = serve::traced(&mut session, args.seed, budget, &mut rec, &mut checks);
                (Outcome::default(), Some(l))
            } else {
                let o = serve::run(&mut session, args.seed, budget, &mut checks);
                (o, None)
            };
            session.stop();
            (setup_s, setup_s, run.0, run.1)
        }
        name => {
            let (w, generate): (Closed, Box<dyn Fn() -> Vec<Input>>) = if name == "certify_mix" {
                (
                    closed::CERTIFY,
                    Box::new(|| inputs::certify_mix(args.seed, &corpus)),
                )
            } else {
                (closed::ORACLE, Box::new(|| inputs::oracle_waves(args.seed)))
            };
            let (inputs, setup_s, raw_setup_s) = closed::setup(SETUPS, &*generate, &w, &mut checks);
            let run = if args.trace {
                let mut l = closed::traced(&inputs, &w, budget, &mut rec, &mut checks);
                l.labels = inputs.iter().map(|i| i.label.clone()).collect();
                (Outcome::default(), Some(l))
            } else {
                (closed::run(&inputs, &w, budget, &mut checks), None)
            };
            (setup_s, raw_setup_s, run.0, run.1)
        }
    };

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "operations attempted {} failed {} failed_pct {:.3} %",
        checks.attempted,
        checks.failed,
        checks.failed_pct()
    );
    println!(
        "known-clean inputs {} false alarms {} false_alarm_pct {:.3} %",
        checks.known_clean,
        checks.false_alarms,
        checks.false_alarm_pct()
    );
    for f in &checks.failures {
        println!("FAILED {f}");
    }
    let correct = checks.failed == 0;
    let (names, values) = if let Some(l) = layered {
        let states_max = l.per_input.iter().map(|i| i.states).fold(0.0, f64::max);
        let kb_per_state = if states_max > 0.0 {
            (status_kb("VmHWM") - rss_start_kb) / states_max
        } else {
            0.0
        };
        let values = l.metrics(kb_per_state, rec.len());
        if checks.replay_mismatches > 0 {
            println!(
                "WARNING {} inputs: the layer replay reached another verdict than analyze_model",
                checks.replay_mismatches
            );
        }
        let table = layer_table(&values, &l);
        print!("{table}");
        if let Err(e) = write_trace(&args, &rec, &l, &table) {
            eprintln!("error: writing the trace: {e}");
            return ExitCode::from(1);
        }
        (&PER_LAYER[..], values)
    } else {
        let mut values = Tally::default();
        values.add("setup_s", setup_s);
        values.add("throughput_per_s", outcome.throughput_per_s);
        values.add("latency_p50_ms", outcome.latency_p50_ms);
        values.add("latency_p99_ms", outcome.latency_p99_ms);
        values.add("peak_rss_mb", outcome.peak_rss_mb);
        values.add("certified_clean_pct", 100.0 - checks.false_alarm_pct());
        let raw = [
            raw_setup_s,
            outcome.raw_throughput_per_s,
            outcome.raw_latency_p50_ms,
            outcome.raw_latency_p99_ms,
        ];
        if outcome.ref_ms > 0.0 {
            println!(
                "times at nominal host speed (reference kernel {:.3} ms here, {REF_NOMINAL_MS} ms nominal); raw in brackets",
                outcome.ref_ms
            );
        }
        for (i, (name, unit)) in END_TO_END.into_iter().enumerate() {
            match raw.get(i) {
                Some(r) => println!("{name:24} {:>14.4} {unit:4} [{r:.4}]", values.get(name)),
                None => println!("{name:24} {:>14.4} {unit}", values.get(name)),
            }
        }
        println!("failed_pct               {:>14.4} %", checks.failed_pct());
        println!(
            "false_alarm_pct          {:>14.4} %",
            checks.false_alarm_pct()
        );
        println!(
            "latency samples {} over {} whole passes",
            outcome.samples, outcome.passes
        );
        (&END_TO_END[..], values)
    };
    println!(
        "{}",
        result_line(correct, checks.attempted, checks.failed, names, &values)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The per-layer table, plus the per-input detail the sizing record and
/// the hot-spot check read.
fn layer_table(values: &Tally, l: &Layered) -> String {
    let mut out = String::new();
    for (name, unit) in PER_LAYER {
        out.push_str(&format!("{name:32} {:>14.4} {unit}\n", values.get(name)));
    }
    for i in &l.per_input {
        if i.label == "dining_philosophers(24)" {
            let analyze = iwa_perfbench::stats::median(&i.analyze_ms);
            let layers = iwa_perfbench::stats::median(&i.layers_ms);
            out.push_str(&format!(
                "hot spot 2: {} analyze_model {:.3} ms, layer spans {:.3} ms, residual {:.3} ms\n",
                i.label,
                analyze,
                layers,
                analyze - layers
            ));
        }
    }
    out
}

fn write_trace(args: &Args, rec: &Recorder, l: &Layered, table: &str) -> std::io::Result<()> {
    let dir = package_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let labels = |op: u64| l.labels.get(op as usize).cloned().unwrap_or_default();
    let doc = serde_json::to_string(&rec.to_chrome(&labels))
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    std::fs::write(dir.join(format!("{stem}.trace.json")), doc)?;
    std::fs::write(dir.join(format!("{stem}.layers.txt")), table)?;
    println!(
        "trace written to {}",
        Path::new("perfbench/out")
            .join(format!("{stem}.trace.json"))
            .display()
    );
    Ok(())
}

//! `periodbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one line per metric, then the result as one JSON object on the
//! last line. Exits non-zero when a period fails an output check.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use dspp_telemetry::{Recorder, Tracer};
use periodbench::breakdown::Breakdown;
use periodbench::report::{end_to_end, per_layer, result_json, retime_generation, Layers, Metric};
use periodbench::run::{drive, peak_rss_mb, Budget, RunLog};
use periodbench::workload::{setup, Options, Workload};

/// Set-ups timed per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 25;

/// Flight-recorder capacity of the traced run.
const TRACE_CAPACITY: usize = 1 << 19;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from("periodbench/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds needs a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let usage = "usage: periodbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";
    Ok(Args {
        workload: workload.ok_or(usage)?,
        seed: seed.ok_or(usage)?,
        seconds: seconds.ok_or(usage)?,
        trace: trace.ok_or(usage)?,
        out_dir,
    })
}

/// Untraced end-to-end run: repeated set-up, then closed-loop periods.
fn end_to_end_run(args: &Args) -> Result<(RunLog, Vec<Metric>), String> {
    let opts = Options::production(Recorder::enabled());
    let mut setup_s = Vec::new();
    let mut bench = None;
    for _ in 0..SETUP_REPEATS {
        drop(bench.take());
        let t0 = Instant::now();
        bench = Some(setup(args.workload, args.seed, &opts)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up");
    let log = drive(
        &mut bench,
        Budget::Timed {
            min_periods: args.workload.min_periods(),
            seconds: args.seconds,
            cycle: args.workload.cycle(),
        },
    );
    let metrics = end_to_end(&setup_s, &log);
    Ok((log, metrics))
}

/// Traced run: an untraced half, then the same periods again with the
/// span tracer on. Writes the Chrome trace and the breakdown.
fn traced_run(args: &Args) -> Result<(RunLog, Vec<Metric>), String> {
    let mut plain = setup(
        args.workload,
        args.seed,
        &Options::production(Recorder::enabled()),
    )?;
    let untraced = drive(
        &mut plain,
        Budget::Timed {
            min_periods: args.workload.min_periods(),
            seconds: args.seconds / 2.0,
            cycle: args.workload.cycle(),
        },
    );
    drop(plain);
    let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;

    let tracer = Tracer::enabled(TRACE_CAPACITY);
    let telemetry = Recorder::enabled().with_tracer(tracer.clone());
    let mut bench = setup(
        args.workload,
        args.seed,
        &Options::production(telemetry.clone()),
    )?;
    let mut traced = drive(&mut bench, Budget::Periods(untraced.attempted()));
    if tracer.dropped() > 0 {
        traced.problems.push(format!(
            "flight recorder evicted {} records; raise TRACE_CAPACITY",
            tracer.dropped()
        ));
    }
    let breakdown = Breakdown::from_records(&tracer.records());
    let generate_ms = retime_generation(&bench, &traced).unwrap_or_else(|e| {
        traced.problems.push(e);
        Vec::new()
    });
    let snapshot = telemetry
        .snapshot()
        .expect("an enabled recorder always has a snapshot");
    let metrics = per_layer(&Layers {
        workload: args.workload,
        untraced: &untraced,
        peak_rss_mb: rss,
        traced: &traced,
        breakdown: &breakdown,
        snapshot: &snapshot,
        generate_ms: &generate_ms,
    });

    let stem = format!("{}-seed{}", args.workload.name(), args.seed);
    std::fs::create_dir_all(&args.out_dir).map_err(|e| e.to_string())?;
    let title = format!(
        "{}: seed {}, {} traced periods",
        args.workload.name(),
        args.seed,
        traced.samples.len()
    );
    std::fs::write(
        args.out_dir.join(format!("{stem}.breakdown.txt")),
        breakdown.render(&title),
    )
    .map_err(|e| e.to_string())?;
    std::fs::write(
        args.out_dir.join(format!("{stem}.trace.json")),
        tracer.to_chrome_trace(),
    )
    .map_err(|e| e.to_string())?;
    eprint!("{}", breakdown.render(&title));

    let mut log = untraced;
    log.problems.extend(traced.problems);
    log.failed += traced.failed;
    Ok((log, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("periodbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        traced_run(&args)
    } else {
        end_to_end_run(&args)
    };
    let (log, metrics) = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("periodbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for problem in &log.problems {
        eprintln!("periodbench: {problem}");
    }
    for metric in &metrics {
        println!("{:<32} {:>16.6} {}", metric.name, metric.value, metric.unit);
    }
    println!(
        "{}",
        result_json(log.correct(), log.attempted(), log.failed, &metrics)
    );
    if log.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! The repo's benchmark. One command, three uses:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — the driver's
//!   contract: run one workload in this process, print a report and, as
//!   the last line of standard output, the result object. `--trace 0`
//!   reports the end-to-end metrics, `--trace 1` the per-layer ledger.
//! * no `--workload` — every workload, untraced then traced, each in a
//!   child process of its own (so peaks are per workload).
//! * `--repeat N` — every workload N times untraced; prints each
//!   end-to-end metric's (max − min)/median beside its bound and exits 1
//!   when one is exceeded. `--list` prints the vocabulary.
//!
//! See README.md for what is measured, on which clock, and why.

use std::process::{Command, ExitCode};

mod alloc;
mod gen;
mod hygiene;
mod ledger;
mod objects;
mod probes;
mod report;
mod spans;
mod spec;
mod stats;
mod workloads;
mod yardstick;

use alloc::Snapshot;
use gen::Rng;
use report::Report;
use spans::Recorder;
use workloads::{Exec, Workload};
use yardstick::SetupSample;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds 1..60] [--trace 0|1] [--repeat N] [--list]";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: Option<usize>,
    list: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::spec().seconds,
        trace: false,
        repeat: None,
        list: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--list" => a.list = true,
            "--workload" => {
                let w = value()?;
                if spec::workload(w).is_none() {
                    return Err(format!("unknown workload `{w}`"));
                }
                a.workload = Some(w.clone());
            }
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                a.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a whole number")?;
                if !(1..=60).contains(&a.seconds) {
                    return Err("--seconds must be 1 to 60".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--repeat" => {
                let n: usize = value()?
                    .parse()
                    .map_err(|_| "--repeat takes a whole number")?;
                if !(2..=100).contains(&n) {
                    return Err("--repeat must be 2 to 100".into());
                }
                a.repeat = Some(n);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.repeat.is_some() && (a.trace || a.workload.is_some()) {
        return Err("--repeat runs every workload untraced; drop --trace and --workload".into());
    }
    Ok(a)
}

/// The harness must not allocate inside a timed phase: push samples into
/// a preallocated buffer around an empty op and count.
fn harness_allocates_nothing() -> bool {
    let mut samples: Vec<u64> = Vec::with_capacity(1024);
    let (_, calls, _) = alloc::count(|| {
        for i in 0..1024u64 {
            let t = std::time::Instant::now();
            std::hint::black_box(i);
            samples.push(t.elapsed().as_nanos() as u64);
        }
    });
    std::hint::black_box(&samples);
    calls == 0
}

/// Takes the run's fresh set-ups, each between two yardstick bursts.
struct SetupSampler<'a> {
    wl: &'a dyn Workload,
    fresh: Exec<'a>,
    /// The burst that followed the previous set-up, if nothing ran since.
    last_burst: Option<f64>,
    samples: Vec<SetupSample>,
}

impl SetupSampler<'_> {
    fn take(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let before = match self.last_burst.take() {
            Some(floor) => floor,
            None => rec.span("yardstick", |_| yardstick::burst(0.0)),
        };
        let (out, heap_allocs) = rec.span("setup", |_| {
            let heap0 = Snapshot::now();
            let out = self.wl.execute(&self.fresh);
            (out, Snapshot::now().since(&heap0).0)
        });
        let seconds = out?.setup_s;
        // an eighth of the set-up's own time, so long set-ups get long bursts
        let after = rec.span("yardstick", |_| yardstick::burst(seconds / 8.0));
        self.last_burst = Some(after);
        self.samples.push(SetupSample {
            seconds,
            yard_s: before.min(after),
            heap_allocs,
        });
        Ok(())
    }
}

/// Run one workload in this process.
fn run_one(wl: &dyn Workload, args: &Args, machine: &hygiene::Machine) -> Result<Report, String> {
    let mut rec = Recorder::new(wl.name());
    let mut rng = Rng::new(args.seed);
    let mut ops = wl.plan(&mut rng, args.seconds);
    let tracer = args
        .trace
        .then(|| tempi_trace::Tracer::new(wl.trace_level()));
    if args.trace {
        // the tracer keeps every event: a traced scale world runs fewer ops
        ops.truncate(wl.traced_ops().min(ops.len()));
    }
    // a traced run reports no set-up time: three fresh set-ups give
    // `harness.setup_spread`
    let setups = if args.trace { 3 } else { wl.setups() };
    // A third of the set-ups before the measured run and the rest after it,
    // so the samples straddle the timed phase. (A fresh world cannot be
    // spawned midway through another world's timed phase.)
    let before = setups.div_ceil(3);
    let mut sampler = SetupSampler {
        wl,
        fresh: Exec {
            seed: args.seed,
            ops: &[],
            tracer: None,
        },
        last_burst: None,
        samples: Vec::with_capacity(setups),
    };

    let self_test = harness_allocates_nothing();
    for _ in 0..before {
        sampler.take(&mut rec)?;
    }
    let exec = Exec {
        seed: args.seed,
        ops: &ops,
        tracer: tracer.clone(),
    };
    // the peaks are the measured run's, not an earlier set-up's or a
    // yardstick burst's
    alloc::reset_peak();
    let rss_mark_reset = hygiene::reset_vm_hwm();
    let mut out = rec.span("run", |_| wl.execute(&exec))?;
    let run_ns = rec.last_ns("run");
    rec.add_under("run", "run.setup", 0, out.timed_ns.0);
    rec.add_under("run", "run.timed", out.timed_ns.0, out.timed_ns.1);
    rec.add_under("run", "run.oracles_and_side_passes", out.timed_ns.1, run_ns);
    sampler.last_burst = None; // seconds old by now
    for _ in before..setups {
        sampler.take(&mut rec)?;
    }
    if !self_test {
        out.complain("the harness allocated around an empty op");
    }
    let samples = sampler.samples;

    let mut notes = vec![
        format!(
            "workload={} seed={} seconds={} trace={} ops={} ops_hash={:016x}",
            wl.name(),
            args.seed,
            args.seconds,
            args.trace as u8,
            ops.len(),
            gen::ops_hash(&ops)
        ),
        format!("{} rss_mark_reset={rss_mark_reset}", machine.header()),
    ];
    notes.extend(out.complaints.iter().map(|c| format!("WRONG: {c}")));
    let seconds = || samples.iter().map(|s| s.seconds);
    let min_setup = seconds().fold(f64::INFINITY, f64::min);
    let max_setup = seconds().fold(0.0, f64::max);
    let yard_floor = (samples.iter().map(|s| s.yard_s)).fold(f64::INFINITY, f64::min);

    let metrics = if let Some(tracer) = &tracer {
        let mut l = ledger::Ledger::default();
        ledger::fill_from_facts(&mut l, &out);
        let events = tracer.events();
        ledger::fill_from_trace(&mut l, &events, &out.facts, ops.len() as u64);
        drop(events);
        if !out.host_ns.is_empty() {
            let (p1, p25, p50, p75) = stats::floor_and_quartiles(&mut out.host_ns);
            l.set("harness.host_floor_ns_per_op", p1);
            l.set("harness.host_median_ns_per_op", p50);
            l.set("harness.host_iqr_over_median", (p75 - p25) / p50);
        }
        l.set("harness.setup_spread", (max_setup - min_setup) / min_setup);
        l.set("harness.yardstick_floor_us", yard_floor * 1e6);
        notes.extend(rec.span("probes", |rec| probes::run(wl.name(), &mut l, rec))?);
        l.metrics()
    } else {
        // every set-up makes the same calls; were one to differ, the fewest
        // is the work itself
        let setup_heap_allocs = samples.iter().map(|s| s.heap_allocs).min().unwrap_or(0);
        let (metrics, more) =
            report::end_to_end(&out, yardstick::setup_s(&samples), setup_heap_allocs);
        notes.extend(more);
        notes.push(format!(
            "setup_s is the 10th percentile of {} fresh set-ups scaled to the reference yardstick ({:.0} us; this run's floor {:.0} us); unscaled minimum {min_setup:.6} s",
            samples.len(),
            yardstick::REFERENCE_S * 1e6,
            yard_floor * 1e6,
        ));
        notes.push(format!(
            "set-ups, host s / yardstick us / heap allocs: {}",
            samples
                .iter()
                .map(|s| format!("{:.4}/{:.0}/{}", s.seconds, s.yard_s * 1e6, s.heap_allocs))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        metrics
    };
    if args.trace {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/{}.spans.json", wl.name());
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, rec.to_json().to_string()));
        // the spans are a side artifact: losing them does not void the run
        notes.push(match written {
            Ok(()) => format!("harness spans written to {path}"),
            Err(e) => format!("harness spans NOT written to {path}: {e}"),
        });
    }
    let report = Report {
        attempted: out.attempted,
        failed: out.failed,
        correct: out.correct && out.failed == 0,
        metrics,
        notes,
    };
    report.check_finite()?;
    Ok(report)
}

fn print_report(r: &Report) {
    for n in &r.notes {
        println!("# {n}");
    }
    println!(
        "# attempted={} failed={} correct={}",
        r.attempted, r.failed, r.correct
    );
    for m in &r.metrics {
        println!("{:<56} {:>20} {}", m.name, m.value, m.unit);
    }
    println!("{}", r.result_line());
}

/// Run one workload in a child process and read its result line back.
fn run_child(workload: &str, args: &Args, trace: bool, echo: bool) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if echo {
        print!("{stdout}");
    }
    if !out.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("{workload} printed nothing"))?;
    report::parse_result_line(last)
}

/// Every workload, untraced then traced, each in its own process.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    for w in &spec::spec().workloads {
        for trace in [false, true] {
            let r = run_child(&w.name, args, trace, true)?;
            all_correct &= r.correct && r.failed == 0;
        }
    }
    Ok(all_correct)
}

/// `--repeat N`: the benchmark checks its own promise.
fn self_check(args: &Args, n: usize) -> Result<bool, String> {
    let mut within = true;
    println!(
        "# --repeat {n}: (max - min) / median of each end-to-end metric, seed {}",
        args.seed
    );
    println!(
        "{:<16} {:<24} {:>12} {:>8}  verdict",
        "workload", "metric", "spread", "bound"
    );
    for w in &spec::spec().workloads {
        let mut runs = Vec::with_capacity(n);
        for _ in 0..n {
            let r = run_child(&w.name, args, false, false)?;
            if !r.correct || r.failed > 0 {
                return Err(format!(
                    "{}: failed={} correct={}",
                    w.name, r.failed, r.correct
                ));
            }
            runs.push(r);
        }
        for e in &spec::spec().end_to_end {
            let values: Vec<f64> = runs
                .iter()
                .map(|r| {
                    r.metric(&e.name)
                        .ok_or(format!("{} lacks {}", w.name, e.name))
                })
                .collect::<Result<_, _>>()?;
            let spread = stats::range_over_median(&values);
            let ok = spread <= e.bound;
            within &= ok;
            println!(
                "{:<16} {:<24} {:>12.6} {:>8}  {}",
                w.name,
                e.name,
                spread,
                e.bound,
                if ok { "ok" } else { "EXCEEDED" }
            );
        }
    }
    Ok(within)
}

fn main() -> ExitCode {
    let machine = hygiene::enter();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        print!("{}", spec::list());
        return ExitCode::SUCCESS;
    }
    let verdict = if let Some(n) = args.repeat {
        self_check(&args, n)
    } else if let Some(name) = &args.workload {
        let wl = workloads::by_name(name).expect("parse_args checked the name");
        run_one(wl.as_ref(), &args, &machine).map(|r| {
            print_report(&r);
            // a wrong answer is reported, not hidden behind an exit code:
            // the driver reads `correct` and `failed`
            true
        })
    } else {
        run_all(&args)
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse_args(&argv("--workload pack_zoo --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("pack_zoo"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
        let d = parse_args(&[]).unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.trace),
            (spec::DEFAULT_SEED, spec::spec().seconds, false)
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--seconds 61",
            "--trace 2",
            "--repeat 1",
            "--repeat 3 --trace 1",
            "--seed",
            "--frobnicate",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad} parsed");
        }
    }

    #[test]
    fn the_harness_allocates_nothing_around_an_empty_op() {
        // the counter sees every thread, and the other tests allocate: one
        // clean window shows the harness itself allocates nothing
        assert!((0..100).any(|_| harness_allocates_nothing()));
    }
}

//! Benchmark of complete Smart Blocks reconfigurations, end to end and
//! layer by layer.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One invocation runs one workload (see [`workload::WORKLOADS`]) for
//! `--seconds` of host time, reconfiguration after reconfiguration, each
//! taking its simulator and tie-break seeds from `--seed` and its index,
//! and prints as the last line of standard output one JSON object:
//! `{"correct": bool, "attempted": n, "failed": n, "metrics": {..}}`.
//!
//! * `--trace 0` runs every reconfiguration through the public driver
//!   (`ReconfigurationDriver::run_des`, what the examples and sweeps call)
//!   and reports the end-to-end metrics over the run's reconfigurations:
//!   `reconfig_ms` (host time of the fastest complete reconfiguration),
//!   `event_rate` (simulated events per host second in the event loop,
//!   best draw), `sim_ms` (simulated protocol time, median) and `setup_s`
//!   (host time outside the event loop — instance, rule catalogue, world
//!   and simulator construction, report — median).  The two host-time
//!   throughput figures take the best draw rather than the median: every
//!   draw does the same work to within 0.1% of its events, and on a shared
//!   host contention only ever adds time, in bursts of seconds that move
//!   a 10 s median by up to 30% while the best draw moves by a few
//!   percent.
//! * `--trace 1` runs the same draws through an instrumented copy of the
//!   DES deployment and splits each reconfiguration's host time across
//!   the five layers — kernel, harness, election, world, oracle — next to
//!   their work counts (see [`layers`]).
//!
//! Every reconfiguration is checked ([`workload::Workload::check`]); a
//! failed check counts it as failed and makes `correct` false, and so does
//! a re-run of the first draw that does not reproduce its counters and
//! move log exactly.
//!
//! Which end-to-end metric each layer should move: kernel, harness and
//! election costs scale with events, so they move `event_rate` and
//! `reconfig_ms` on every workload; world and oracle costs scale with
//! distance evaluations (N per election) and weigh most on `serpentine`,
//! whose ribbon turns make the Eq. 9 probes expensive; the harness
//! dominates `reliable_lossy`, where every payload is sequenced,
//! acknowledged and timed; `setup_s` moves only with work done before the
//! first event, and `sim_ms` only when the protocol itself changes.

mod layers;
mod workload;

use sb_core::driver::ReconfigurationReport;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Draw, Workload};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What one invocation reports.
#[derive(Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    errors: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Counts one failed reconfiguration.
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        self.error(error);
    }

    /// Records a failed check.
    pub fn error(&mut self, error: String) {
        eprintln!("perfbench: {error}");
        self.errors.push(error);
    }

    fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty() && finite,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median (mean of the middle pair for an even count; NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(Workload::named(&value).ok_or_else(|| {
                    format!("unknown workload {value:?} (known: {})", names.join(", "))
                })?);
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed {value:?} is not an unsigned integer"))?;
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("--seconds {value:?} is not in (0, 600]"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} is not 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        layers::run(args.workload, args.seed, args.seconds)
    } else {
        end_to_end(args.workload, args.seed, args.seconds)
    };
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}

/// One reconfiguration through the public driver, timed.
struct Timed {
    report: ReconfigurationReport,
    total_s: f64,
    setup_s: f64,
}

fn run_timed(w: Workload, draw: Draw) -> Timed {
    let start = Instant::now();
    let report = w.driver(draw).run_des();
    let total = start.elapsed();
    Timed {
        total_s: total.as_secs_f64(),
        setup_s: total.saturating_sub(report.wall_time).as_secs_f64(),
        report,
    }
}

fn end_to_end(w: Workload, seed: u64, seconds: f64) -> RunResult {
    let mut result = RunResult::default();
    // Untimed: lets the allocator and caches settle before the first
    // timed draw.
    let warm = run_timed(w, Draw::warm_up(seed));
    if let Err(e) = w.check(&warm.report) {
        result.error(format!("warm-up draw: {e}"));
    }
    let (mut totals, mut rates, mut sims, mut setups) = (vec![], vec![], vec![], vec![]);
    let mut first = None;
    let start = Instant::now();
    for index in 0u64.. {
        if index > 0 && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let t = run_timed(w, Draw::new(seed, index));
        result.attempted += 1;
        if let Err(e) = w.check(&t.report) {
            result.fail(format!("draw {index}: {e}"));
        }
        let events = t.report.events_processed.unwrap_or(0) as f64;
        totals.push(t.total_s * 1e3);
        rates.push(events / t.report.wall_time.as_secs_f64());
        sims.push(t.report.sim_time_us.unwrap_or(0) as f64 / 1e3);
        setups.push(t.setup_s);
        if index == 0 {
            first = Some(t.report);
        }
    }
    let first = first.expect("draw 0 always runs");
    let again = w.driver(Draw::new(seed, 0)).run_des();
    if again.metrics != first.metrics
        || again.move_log != first.move_log
        || again.events_processed != first.events_processed
    {
        result.error("re-running draw 0 did not reproduce its counters and move log".into());
    }
    result.metrics = vec![
        Metric::new(
            "reconfig_ms",
            totals.iter().copied().fold(f64::INFINITY, f64::min),
            "ms",
        ),
        Metric::new(
            "event_rate",
            rates.iter().copied().fold(0.0, f64::max),
            "1/s",
        ),
        Metric::new("sim_ms", median(&sims), "ms"),
        Metric::new("setup_s", median(&setups), "s"),
    ];
    result
}

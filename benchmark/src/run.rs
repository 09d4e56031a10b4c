//! The measurement protocol: what one `run` of one workload does.
//!
//! **Timed run** (`--trace 0`). A round times one pass over the workload's
//! primary inputs, then one over its alt inputs. There are at least
//! [`MIN_ROUNDS`] rounds, and more while another whole round still fits in
//! `--seconds`. An input's latency is the median of its timings across
//! rounds; every reported rate and percentile is computed from those
//! per-input medians. The set-up routine is executed [`SETUP_SAMPLES`]
//! times, spread over the run — before each of the first rounds and after
//! the last; `setup_s` is the median, and only the first product is kept.
//! One extra, untimed pass with the counting allocator on gives
//! `peak_heap_mb`: the median over its inputs of each one's peak.
//!
//! **Traced run** (`--trace 1`). One set-up with spans, then pairs of an
//! untraced and a traced pass over the same inputs (one pair, more while a
//! whole pair still fits in `--seconds`), the workload's traced-only
//! comparisons, and the probes.

use crate::json::Json;
use crate::metrics::{self, TracedInputs, END_TO_END};
use crate::spans::{layer_totals, spans_to_json, Tracer};
use crate::stats::{median, noise_ratio, percentile, Percentile};
use crate::workload::{self, Workload};
use crate::{alloc, probes};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Rounds every timed run makes at least.
pub const MIN_ROUNDS: usize = 3;
/// Set-up executions of a timed run.
pub const SETUP_SAMPLES: usize = 5;
/// Primary inputs the memory pass covers.
pub const MEMORY_PASS_INPUTS: usize = 30;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Result set to append the run's record to.
    pub append: Option<PathBuf>,
}

/// Where result and span files go unless told otherwise.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Which of a workload's two passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    Primary,
    Alt,
}

/// Timings and outputs of one pass's inputs across rounds.
struct Samples {
    /// Host seconds, `[input][round]`.
    secs: Vec<Vec<f64>>,
    /// Work units per input (identical in every round).
    work: Vec<u64>,
    /// First fingerprint seen per input.
    fingerprints: Vec<Option<u64>>,
}

impl Samples {
    fn new(inputs: usize) -> Self {
        Samples {
            secs: vec![Vec::new(); inputs],
            work: vec![0; inputs],
            fingerprints: vec![None; inputs],
        }
    }

    /// Per-input median latency.
    fn medians(&self) -> Vec<f64> {
        self.secs.iter().map(|s| median(s)).collect()
    }

    /// `Σ work ÷ Σ per-input median latency`.
    fn rate(&self) -> f64 {
        self.work.iter().sum::<u64>() as f64 / self.medians().iter().sum::<f64>()
    }

    /// `Σ work ÷ Σ latency` of one round alone.
    fn round_rate(&self, round: usize) -> f64 {
        let secs: f64 = self.secs.iter().map(|s| s[round]).sum();
        self.work.iter().sum::<u64>() as f64 / secs
    }
}

/// One workload, set up, with everything its operations have produced so
/// far: timings, first-seen outputs, and the tally of checked operations.
struct Session {
    workload: Box<dyn Workload>,
    primary: Samples,
    alt: Samples,
    attempted: u64,
    failed: u64,
}

impl Session {
    /// Set the workload up (the kept set-up); returns how long that took.
    fn set_up(args: &RunArgs, tracer: &Tracer) -> Result<(Session, f64), String> {
        let (workload, secs) = timed_set_up(args, tracer)?;
        let (attempted, failed) = workload.setup_checks();
        let session = Session {
            primary: Samples::new(workload.primary_len()),
            alt: Samples::new(workload.alt_len()),
            workload,
            attempted,
            failed,
        };
        Ok((session, secs))
    }

    /// Run `inputs` of one pass, recording timings when `record` is set and
    /// checking every output either way: the operation's own checks, the
    /// same fingerprint as the first time this input ran, and — where the
    /// workload says alt mirrors primary — the same fingerprint as the
    /// primary input of the same index. Returns the wall time.
    fn pass(&mut self, pass: Pass, inputs: Range<usize>, tracer: &Tracer, record: bool) -> f64 {
        let start = Instant::now();
        for i in inputs {
            tracer.next_op();
            let (outcome, samples) = match pass {
                Pass::Primary => (self.workload.primary(i, tracer), &mut self.primary),
                Pass::Alt => (self.workload.alt(i, tracer), &mut self.alt),
            };
            let first = *samples.fingerprints[i].get_or_insert(outcome.fingerprint);
            samples.work[i] = outcome.work;
            if record {
                samples.secs[i].push(outcome.secs);
            }
            let mirrored = pass == Pass::Primary
                || !self.workload.alt_mirrors_primary()
                || self.primary.fingerprints[i] == Some(outcome.fingerprint);
            self.attempted += 1;
            self.failed += u64::from(!(outcome.ok && first == outcome.fingerprint && mirrored));
        }
        start.elapsed().as_secs_f64()
    }

    /// One pass over the primary inputs, then one over the alt inputs;
    /// returns the wall time.
    fn round(&mut self, tracer: &Tracer, record: bool) -> f64 {
        tracer.enter("primary");
        let primary = self.pass(
            Pass::Primary,
            0..self.workload.primary_len(),
            tracer,
            record,
        );
        tracer.enter("alt");
        primary + self.pass(Pass::Alt, 0..self.workload.alt_len(), tracer, record)
    }

    fn print_header(&self, args: &RunArgs, kind: &str) {
        println!(
            "== {} · seed {} · {kind} run (host time; the simulated model is unvalidated)",
            args.workload, args.seed
        );
        println!(
            "   rustc: {} · nproc: {} · config digest: {:016x}",
            env!("BENCH_RUSTC_VERSION"),
            nproc(),
            self.workload.config_digest()
        );
    }

    /// Print the metrics and the tally, and build the run's record from the
    /// environment, `details` and the metrics.
    fn finish(
        &self,
        args: &RunArgs,
        metrics: Vec<(&'static str, &'static str, f64)>,
        details: Vec<(&'static str, Json)>,
    ) -> RunResult {
        println!(
            "   ops failed / attempted: {} / {}",
            self.failed, self.attempted
        );
        let mut record = vec![
            ("workload", Json::str(&args.workload)),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds)),
            ("trace", Json::Bool(args.trace)),
            ("rustc", Json::str(env!("BENCH_RUSTC_VERSION"))),
            ("nproc", Json::Num(nproc() as f64)),
            (
                "model",
                Json::str("unvalidated: PAPER.md is a stub, no accuracy figure is given"),
            ),
            (
                "config_digest",
                Json::Str(format!("{:016x}", self.workload.config_digest())),
            ),
            (
                "primary_inputs",
                Json::Num(self.workload.primary_len() as f64),
            ),
            ("alt_inputs", Json::Num(self.workload.alt_len() as f64)),
        ];
        record.extend(details);
        record.extend([
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(metrics.iter().map(|(n, _, v)| (*n, Json::Num(*v)))),
            ),
        ]);
        RunResult {
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            record: Json::obj(record),
        }
    }
}

fn timed_set_up(args: &RunArgs, tracer: &Tracer) -> Result<(Box<dyn Workload>, f64), String> {
    let start = Instant::now();
    let workload = workload::set_up(&args.workload, args.seed, tracer)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    Ok((workload, start.elapsed().as_secs_f64()))
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

fn print_metrics(metrics: &[(&'static str, &'static str, f64)]) {
    for (name, unit, value) in metrics {
        println!("{name} = {value} {unit}");
    }
}

fn joined(values: impl IntoIterator<Item = String>) -> String {
    values.into_iter().collect::<Vec<_>>().join(", ")
}

/// A finished run: the contract line's contents plus the full record.
pub struct RunResult {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed an output check.
    pub failed: u64,
    /// `(name, unit, value)` of every reported metric.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// The run's full record, for result sets.
    pub record: Json,
}

impl RunResult {
    /// No operation failed an output check.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one JSON object the contract wants as the last line of stdout.
    pub fn contract_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, unit, value)| {
                    (
                        *name,
                        Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                    )
                })),
            ),
        ])
    }
}

/// Run one workload as `args` say, printing the report as it goes.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    let result = if args.trace {
        traced_run(args)?
    } else {
        timed_run(args)?
    };
    if let Some(path) = &args.append {
        append_record(path, &result.record)?;
    }
    Ok(result)
}

fn timed_run(args: &RunArgs) -> Result<RunResult, String> {
    let off = Tracer::off();
    let counted_before = alloc::counted_calls();
    let (mut session, first_setup) = Session::set_up(args, &off)?;
    let mut setups = vec![first_setup];

    let mut round_walls: Vec<f64> = Vec::new();
    let mut machine_ref = Vec::new();
    loop {
        // All but the last set-up go before a round, the last after the
        // final one, so the samples span the run.
        if !round_walls.is_empty() && setups.len() < SETUP_SAMPLES - 1 {
            setups.push(timed_set_up(args, &off)?.1);
        }
        machine_ref.push(probes::machine_reference_ms());
        let wall = session.round(&off, true);
        round_walls.push(wall);
        let measured: f64 = round_walls.iter().sum();
        if round_walls.len() >= MIN_ROUNDS && measured + wall > args.seconds {
            break;
        }
    }
    while setups.len() < SETUP_SAMPLES {
        setups.push(timed_set_up(args, &off)?.1);
    }
    // Every timing above is only valid if the counting allocator stayed
    // off; that counts as one more checked operation.
    let allocator_stayed_off = alloc::counted_calls() == counted_before;
    session.attempted += 1;
    session.failed += u64::from(!allocator_stayed_off);

    // Each input's own peak, then the median: a simulated run's peak sits on
    // one of a few levels (a hash table doubled or it did not), and a
    // maximum over inputs would flip with whichever seed holds the rare
    // high one.
    let memory_inputs = session.workload.primary_len().min(MEMORY_PASS_INPUTS);
    let heap_peaks: Vec<alloc::HeapPeak> = (0..memory_inputs)
        .map(|i| alloc::measure(|| session.pass(Pass::Primary, i..i + 1, &off, false)).1)
        .collect();
    let peak_bytes: Vec<f64> = heap_peaks.iter().map(|p| p.peak_bytes as f64).collect();
    let peak_heap_bytes = median(&peak_bytes);
    let counted_calls: u64 = heap_peaks.iter().map(|p| p.counted_calls).sum();

    let Session { primary, alt, .. } = &session;
    let rounds = round_walls.len();
    let medians = primary.medians();
    let p50 = percentile(&medians, 50.0);
    let p90 = percentile(&medians, 90.0);
    let values = [
        median(&setups),
        primary.rate(),
        alt.rate(),
        p50.value * 1e3,
        p90.value * 1e3,
        peak_heap_bytes / 1e6,
    ];
    let metrics: Vec<_> = END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit, _), value)| (*name, *unit, value))
        .collect();
    let (noise, alt_noise) = (noise_ratio(&primary.secs), noise_ratio(&alt.secs));

    session.print_header(args, "timed");
    println!(
        "   {rounds} rounds × ({} primary + {} alt inputs), {} set-ups, memory pass over {memory_inputs} inputs",
        primary.secs.len(),
        alt.secs.len(),
        setups.len()
    );
    print_metrics(&metrics);
    println!(
        "   work_per_s and alt_work_per_s count {}",
        session.workload.unit()
    );
    let describe = |p: Percentile| format!("{} samples, {} beyond", p.samples, p.beyond);
    println!(
        "   op_p50_ms: {}; op_p90_ms: {}",
        describe(p50),
        describe(p90)
    );
    let raw: Vec<f64> = primary.secs.iter().flatten().copied().collect();
    println!(
        "   raw timings (no per-input median): p50 {:.4} ms, p90 {:.4} ms over {} samples",
        percentile(&raw, 50.0).value * 1e3,
        percentile(&raw, 90.0).value * 1e3,
        raw.len()
    );
    let round_rates = |s: &Samples| joined((0..rounds).map(|r| format!("{:.1}", s.round_rate(r))));
    println!("   per-round work_per_s: {}", round_rates(primary));
    println!("   per-round alt_work_per_s: {}", round_rates(alt));
    println!(
        "   noise_ratio (Σ per-input max ÷ Σ per-input median − 1): primary {noise:.4}, alt {alt_noise:.4}"
    );
    println!(
        "   machine reference (fixed hash-map churn before each round; slow machine, slow run): \
         median {:.3} ms, worst {:.3} ms",
        median(&machine_ref),
        machine_ref.iter().copied().fold(f64::MIN, f64::max)
    );
    println!(
        "   set-up samples (s): {}",
        joined(setups.iter().map(|s| format!("{s:.3}")))
    );
    println!(
        "   peak heap per input (B): {}",
        joined(peak_bytes.iter().map(|b| format!("{b}")))
    );
    println!(
        "   {counted_calls} allocator calls counted in the memory pass; counting off during timed passes: {allocator_stayed_off}"
    );
    let fingerprints: Vec<u64> = primary
        .fingerprints
        .iter()
        .chain(&alt.fingerprints)
        .map(|f| f.unwrap_or(0))
        .collect();
    println!(
        "   output digest: {:016x}",
        workload::fold_words(&fingerprints)
    );

    let details = vec![
        ("rounds", Json::Num(rounds as f64)),
        ("setup_samples", Json::Num(setups.len() as f64)),
        ("p90_beyond", Json::Num(p90.beyond as f64)),
        ("peak_heap_bytes", Json::Num(peak_heap_bytes)),
        ("noise_ratio", Json::Num(noise)),
        ("alt_noise_ratio", Json::Num(alt_noise)),
        ("machine_ref_ms", Json::Num(median(&machine_ref))),
    ];
    Ok(session.finish(args, metrics, details))
}

fn traced_run(args: &RunArgs) -> Result<RunResult, String> {
    let tracer = Tracer::on();
    let off = Tracer::off();
    tracer.enter("setup");
    let (mut session, _) = Session::set_up(args, &tracer)?;

    let (mut untraced_wall, mut traced_wall, mut passes) = (0.0, 0.0, 0u64);
    loop {
        let untraced = session.round(&off, false);
        let traced = session.round(&tracer, false);
        untraced_wall += untraced;
        traced_wall += traced;
        passes += 1;
        if untraced_wall + traced_wall + untraced + traced > args.seconds {
            break;
        }
    }

    let extras = session.workload.traced_extras().unwrap_or_default();
    session.attempted += extras.attempted;
    session.failed += extras.failed;
    let probe_results = probes::run_all(metrics::probe_sizes(&tracer));

    let spans = tracer.spans();
    let metrics = metrics::derive_per_layer(&TracedInputs {
        tracer: &tracer,
        totals: &layer_totals(&spans),
        passes,
        probes: &probe_results,
        extras,
        trace_overhead_ratio: traced_wall / untraced_wall,
    });

    let dir = out_dir();
    let spans_path = dir.join(format!("spans-{}.json", args.workload));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&spans_path, spans_to_json(&spans).to_string()))
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;

    session.print_header(args, "traced");
    println!(
        "   {passes} untraced + {passes} traced passes over ({} primary + {} alt inputs); \
         a span-derived metric reads 0 where this workload never calls the layer",
        session.workload.primary_len(),
        session.workload.alt_len()
    );
    print_metrics(&metrics);
    println!(
        "   {} spans written to {}",
        spans.len(),
        spans_path.display()
    );

    let details = vec![
        ("passes", Json::Num(passes as f64)),
        ("spans", Json::Num(spans.len() as f64)),
    ];
    Ok(session.finish(args, metrics, details))
}

/// Append `record` to the result set at `path` (a JSON array of run
/// records), creating it if it does not exist.
fn append_record(path: &Path, record: &Json) -> Result<(), String> {
    let mut records = match std::fs::read_to_string(path) {
        Ok(text) => match Json::parse(&text)? {
            Json::Arr(items) => items,
            _ => return Err(format!("{} is not a result set", path.display())),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("reading {}: {e}", path.display())),
    };
    records.push(record.clone());
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("creating {}: {e}", parent.display()))?;
    }
    // One record per line keeps result sets diffable.
    let body: Vec<String> = records.iter().map(Json::to_string).collect();
    std::fs::write(path, format!("[\n{}\n]\n", body.join(",\n")))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

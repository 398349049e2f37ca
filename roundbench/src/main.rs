//! End-to-end round benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path roundbench/Cargo.toml -- \
//!     --workload <paper_train|paper_sv|cohort_scale|churn_durable|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` builds each seeded workload with `FlProtocol::new`, drives
//! it with `FlProtocol::run`, audits the chain with `replay_chain` and
//! certifies the cold WAL with `fast_sync`, repeating for `--seconds`;
//! it prints the end-to-end metrics, each call's time scaled by a
//! host-speed probe timed around it (`probe.rs`). `--trace 1` runs the
//! traced driver (`driver.rs`) instead and prints the per-layer metrics,
//! as wall times. Both modes
//! first pass a correctness gate on an untimed run. The last stdout line
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod driver;
mod probe;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use fedchain::audit::{fast_sync, replay_chain};
use fedchain::FlProtocol;
use fl_chain::durability::DurabilityConfig;
use fl_chain::Hash32;

use probe::Probe;
use stats::Summary;
use workload::Workload;

/// Worker threads for `numeric::par`. On a shared 2-vCPU host the
/// 2-thread fork-join times swing with the neighbours' load (back to back
/// on the same seeds, the run-to-run spread of `round_s` was 0.58 with 2
/// threads against 0.09 with 1), which no bound can absorb; one thread
/// keeps the figures steady. The metadata line records the cap.
const THREADS: usize = 1;
/// `FlProtocol::new` calls per iteration (all but the last are dropped):
/// set-up is short, so it gets more samples.
const SETUP_REPS: usize = 5;
/// Fewest timed iterations per run, whatever `--seconds` says.
const MIN_ITERS: usize = 3;
/// Fewest traced driver repetitions per run.
const MIN_TRACED: usize = 2;

/// Whether another repetition, after `done` of them in `elapsed`
/// seconds, is due: while fewer than `min`, or while one more of the
/// mean length so far still ends within `seconds`. A run thus measures
/// for about `seconds`, not up to one long repetition more.
fn another(done: usize, min: usize, elapsed: f64, seconds: f64) -> bool {
    done < min || elapsed + elapsed / done as f64 <= seconds
}
/// Lowest share of the traced driver's wall time its top-level spans
/// must cover.
const MIN_COVERAGE: f64 = 0.95;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// `replay_chain` and `fast_sync` only read, and they are short, so each
/// iteration times each of them at least `READ_REPS` times and for at
/// least `READ_SECONDS`: extra samples steady their medians.
const READ_REPS: usize = 3;
const READ_SECONDS: f64 = 0.25;

/// Repeats `read`, which returns one timed sample, per the rule above.
fn repeat_read(
    clock: &mut Clock,
    mut read: impl FnMut(&mut Clock) -> Result<Timed, String>,
) -> Result<Vec<Timed>, String> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < READ_REPS || start.elapsed().as_secs_f64() < READ_SECONDS {
        samples.push(read(clock)?);
    }
    Ok(samples)
}

/// One timed call: when it ran, in seconds since its clock's origin,
/// and its wall time.
#[derive(Debug, Clone, Copy)]
struct Timed {
    start: f64,
    end: f64,
    wall: f64,
}

/// Shortest span of probes, before and after a call, that estimates the
/// host's speed during it: the probe varies within a state, and a
/// second's worth of probes steadies the estimate. On a 120-second
/// `paper_sv` run, scaling by this window cut the interquartile spread
/// of per-call audit times from 0.26 to 0.12; a 2-second window gave
/// 0.13, and it scaled `fast_sync` worse (0.18 against 0.11).
const HOST_WINDOW_S: f64 = 0.5;
/// After each call the probe runs at least once and for at least this
/// share of the call's wall time, so that a long call, with few calls
/// around it, still has many probes on either side.
const PROBE_SHARE: f64 = 0.05;

/// Times the program's calls and runs the host-speed probe after each.
struct Clock {
    probe: Probe,
    origin: Instant,
    /// (start since `origin`, probe time) of every probe, in time order.
    probes: Vec<(f64, f64)>,
}

impl Clock {
    fn new() -> Self {
        let mut clock = Self {
            probe: Probe::new(),
            origin: Instant::now(),
            probes: Vec::new(),
        };
        clock.run_probe();
        clock
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn run_probe(&mut self) {
        let at = self.now();
        let p = self.probe.sample();
        self.probes.push((at, p));
    }

    fn time<T>(&mut self, call: impl FnOnce() -> T) -> (T, Timed) {
        let start = self.now();
        let out = call();
        let end = self.now();
        let wall = end - start;
        self.run_probe();
        while self.now() - end < wall * PROBE_SHARE {
            self.run_probe();
        }
        (out, Timed { start, end, wall })
    }

    /// `t`'s wall time on the nominal host: scaled by `NOMINAL_S` over
    /// the mean of the median probes before and after the call, each
    /// over `HOST_WINDOW_S` or the call's length if longer, so that a long
    /// call weighs the host's states on either side of it alike. An empty
    /// window before the call (untimed work since the last probe) falls
    /// back to the last probe; the one after never is, since a probe
    /// follows every call.
    fn scaled(&self, t: &Timed) -> f64 {
        let at = |time: f64| self.probes.partition_point(|&(at, _)| at < time);
        let median = |from: usize, to: usize| {
            let window: Vec<f64> = self.probes[from..to].iter().map(|&(_, p)| p).collect();
            Summary::of(&window).median
        };
        let start = at(t.start);
        let w = HOST_WINDOW_S.max(t.end - t.start);
        let before = median(at(t.start - w).min(start - 1), start);
        let after = median(at(t.end), at(t.end + w).max(at(t.end) + 1));
        t.wall * probe::NOMINAL_S / ((before + after) / 2.0)
    }
}

fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Outputs of one protocol run that must repeat bit for bit.
#[derive(Debug, Clone, PartialEq)]
struct Outputs {
    /// Tip digest of miner 0's chain.
    tip: Hash32,
    /// Digest of the tip, `per_owner_sv` bits and accuracy-trace bits.
    fingerprint: Hash32,
}

/// One iteration: the outputs and every timed sample, by metric.
struct Iteration {
    outputs: Outputs,
    samples: Vec<(&'static str, Timed)>,
}

/// Builds, runs, audits and fast-syncs `w` once, checking every output.
fn iteration(w: &Workload, dir: &Path, clock: &mut Clock) -> Result<Iteration, String> {
    let mut samples = Vec::new();
    let mut build = || -> Result<FlProtocol, String> {
        let (protocol, t) = clock.time(|| FlProtocol::new(w.config.clone()));
        samples.push(("setup_s", t));
        protocol.map_err(|e| format!("new: {e}"))
    };
    for _ in 1..SETUP_REPS {
        build()?;
    }
    let mut protocol = build()?;
    if w.durable {
        protocol
            .persist_to(dir, DurabilityConfig::default())
            .map_err(|e| format!("persist_to: {e}"))?;
    }

    let (report, run) = clock.time(|| protocol.run());
    let report = report.map_err(|e| format!("run: {e}"))?;
    let rounds = w.config.rounds as f64;
    let per_round = Timed {
        wall: run.wall / rounds,
        ..run
    };
    samples.push(("round_s", per_round));

    let expected = w.expected_blocks();
    check(report.blocks == expected, || {
        format!("{} blocks committed, expected {expected}", report.blocks)
    })?;
    check(report.failed_views == 0, || {
        format!("{} failed views", report.failed_views)
    })?;
    let store = protocol.engine().store_of(0).expect("miner 0 always mines");
    let tip = store.tip_digest();
    let outputs = Outputs {
        tip,
        fingerprint: Hash32::of(
            "roundbench/outputs",
            &(tip, &report.per_owner_sv, &report.accuracy_history),
        ),
    };

    let params = protocol.contract().params().clone();
    let test_set = protocol.test_set().clone();
    let sv_bits: Vec<u64> = report.per_owner_sv.iter().map(|v| v.to_bits()).collect();
    let audits = repeat_read(clock, |clock| {
        let (p, ts) = (params.clone(), test_set.clone());
        let (audit, elapsed) = clock.time(|| replay_chain(store, p, ts));
        let audit = audit.map_err(|e| format!("audit: {e}"))?;
        check(audit.clean, || "audit found a state-root mismatch".into())?;
        let audited: Vec<u64> = audit
            .final_contributions
            .iter()
            .map(|(_, v)| v.to_bits())
            .collect();
        check(audited == sv_bits, || {
            "audited contributions differ from per_owner_sv".into()
        })?;
        Ok(elapsed)
    })?;
    samples.extend(audits.into_iter().map(|t| ("audit_s", t)));

    // Workloads that do not persist while running write the chain out
    // now, untimed, so every workload has a cold directory to certify.
    if !w.durable {
        protocol
            .persist_to(dir, DurabilityConfig::default())
            .map_err(|e| format!("persist_to: {e}"))?;
    }
    drop(protocol);
    let syncs = repeat_read(clock, |clock| {
        let (p, ts) = (params.clone(), test_set.clone());
        let (synced, elapsed) = clock.time(|| fast_sync(dir, p, ts));
        let synced = synced.map_err(|e| format!("fast_sync: {e}"))?;
        check(
            synced.audit.clean && synced.tip_digest == tip && synced.blocks == expected,
            || "fast_sync did not certify the live tip".into(),
        )?;
        Ok(elapsed)
    })?;
    samples.extend(syncs.into_iter().map(|t| ("fast_sync_s", t)));
    Ok(Iteration { outputs, samples })
}

/// Peak resident set of this process, in MiB (Linux `VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Attempts, failures and per-metric samples of one run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
    samples: BTreeMap<String, (Vec<f64>, &'static str)>,
    /// Unscaled wall times of the probe-scaled metrics, by metric.
    wall: BTreeMap<String, Vec<f64>>,
}

impl Tally {
    fn record(&mut self, name: &str, unit: &'static str, value: f64) {
        self.samples
            .entry(name.to_string())
            .or_insert_with(|| (Vec::new(), unit))
            .0
            .push(value);
    }

    /// Records a timed call: its time on the nominal host as the
    /// metric's sample, its wall time for the metadata.
    fn record_timed(&mut self, name: &str, wall: f64, scaled: f64) {
        self.record(name, "s", scaled);
        self.wall.entry(name.to_string()).or_default().push(wall);
    }

    fn fail(&mut self, why: String) {
        eprintln!("check failed: {why}");
        self.failures.push(why);
    }

    /// Counts one attempt; a failed attempt is recorded and yields `None`.
    fn attempt<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        r.map_err(|e| self.fail(e)).ok()
    }
}

/// `--trace 0`: the gate iteration (which also warms the process up),
/// then timed iterations for `seconds`, each checked against the gate.
fn run_untraced(w: &Workload, seconds: f64, scratch: &Path, tally: &mut Tally) {
    let dir = scratch.join("wal");
    let mut clock = Clock::new();
    let gate = tally.attempt(iteration(w, &dir, &mut clock));
    let _ = std::fs::remove_dir_all(&dir);
    let Some(Iteration {
        outputs: reference, ..
    }) = gate
    else {
        return;
    };
    // Peak memory of one fresh new/run/audit/fast_sync pass, as a user
    // sees it: later iterations only add allocator fragmentation, which
    // grows with how many of them fit in the run.
    match peak_rss_mb() {
        Ok(mb) => tally.record("peak_rss_mb", "MiB", mb),
        Err(e) => tally.fail(e),
    }
    let start = Instant::now();
    let mut iters = 0;
    let mut timed = Vec::new();
    while another(iters, MIN_ITERS, start.elapsed().as_secs_f64(), seconds) {
        iters += 1;
        let result = iteration(w, &dir, &mut clock).and_then(|it| {
            check(it.outputs == reference, || {
                "a repeated run() gave a different tip, SV or accuracy trace".into()
            })
            .map(|()| it.samples)
        });
        let _ = std::fs::remove_dir_all(&dir);
        timed.extend(tally.attempt(result).unwrap_or_default());
    }
    // Scaled once the run is over, so that every call has the probes
    // after it in its window too.
    for (name, t) in timed {
        tally.record_timed(name, t.wall, clock.scaled(&t));
    }
    for &(_, p) in &clock.probes {
        tally.record("host.probe_s", "s", p);
    }
}

/// Span names whose summed self time is a per-layer metric (`<name>_s`).
const LAYER_SPANS: [&str; 15] = [
    "world.generate",
    "owner.new",
    "owner.escrow",
    "ml.train",
    "crypto.mask",
    "mempool.admit",
    "mempool.drain",
    "consensus.commit",
    "contract.submit",
    "contract.evaluate",
    "contract.recover",
    "contract.digest",
    "durability.append",
    "durability.snapshot",
    "durability.open",
];

/// Results printed with the metadata, not in the result line. Per-layer
/// times that are zero by construction on some workload (no escrow and no
/// recovery without dropouts, no snapshot on a chain shorter than the
/// snapshot cadence, `paper_sv`), since the result line's times are never
/// constant; and the host-speed probe, which measures no layer.
const METADATA_ONLY: [&str; 4] = [
    "owner.escrow_s",
    "contract.recover_s",
    "durability.snapshot_s",
    "host.probe_s",
];

/// Counters reported as per-layer metrics, with their units.
const LAYER_COUNTERS: [(&str, &str); 15] = [
    ("ml.train_calls", "count"),
    ("crypto.mask_calls", "count"),
    ("crypto.dh_agreements", "count"),
    ("mempool.admitted", "count"),
    ("mempool.rejected", "count"),
    ("consensus.blocks", "count"),
    ("consensus.txs", "count"),
    ("consensus.failed_views", "count"),
    ("consensus.executions", "count"),
    ("sv.utility_evals", "count"),
    ("sv.samples", "count"),
    ("durability.appends", "count"),
    ("durability.snapshots", "count"),
    ("durability.bytes", "bytes"),
    ("trace.spans", "count"),
];

/// `--trace 1`: the gate, then traced and untraced driver runs (in
/// alternating order) for `seconds`; per-layer metrics from the spans.
fn run_traced(w: &Workload, seconds: f64, scratch: &Path, tally: &mut Tally) -> String {
    let mut jsonl = String::new();
    let dir = scratch.join("wal");
    let gate = tally.attempt(iteration(w, &dir, &mut Clock::new()));
    let _ = std::fs::remove_dir_all(&dir);
    let Some(Iteration {
        outputs: reference, ..
    }) = gate
    else {
        return jsonl;
    };
    let drive = |traced: bool| {
        let _ = std::fs::remove_dir_all(&dir);
        let run = driver::drive(w, traced, &dir).and_then(|run| {
            check(run.tip == reference.tip, || {
                "traced driver missed FlProtocol::run's tip digest".into()
            })?;
            check(run.blocks == w.expected_blocks(), || {
                format!("driver committed {} blocks", run.blocks)
            })?;
            Ok(run)
        });
        let _ = std::fs::remove_dir_all(&dir);
        run
    };
    let start = Instant::now();
    let mut reps = 0;
    while another(reps, MIN_TRACED, start.elapsed().as_secs_f64(), seconds) {
        let (traced, plain) = if reps % 2 == 0 {
            let traced = drive(true);
            (traced, drive(false))
        } else {
            let plain = drive(false);
            (drive(true), plain)
        };
        let pair = traced
            .and_then(|t| plain.map(|p| (t, p)))
            .and_then(|(t, p)| {
                let coverage = trace::top_level_time(&t.spans) / t.wall_s;
                check(coverage >= MIN_COVERAGE, || {
                    format!("trace coverage {coverage:.3} below {MIN_COVERAGE}")
                })?;
                Ok((t, p.wall_s, coverage))
            });
        let Some((run, plain_wall, coverage)) = tally.attempt(pair) else {
            reps += 1;
            continue;
        };
        trace::write_jsonl(&mut jsonl, reps, &run.spans);
        reps += 1;
        let self_times = trace::self_times(&run.spans);
        for name in LAYER_SPANS {
            let v = self_times.get(name).copied().unwrap_or(0.0);
            tally.record(&format!("{name}_s"), "s", v);
        }
        for (name, unit) in LAYER_COUNTERS {
            let v = match name {
                "trace.spans" => run.spans.len() as u64,
                _ => run.counters.get(name).copied().unwrap_or(0),
            };
            tally.record(name, unit, v as f64);
        }
        tally.record("trace.coverage", "ratio", coverage);
        tally.record("trace.overhead_s", "s", run.wall_s - plain_wall);
    }
    jsonl
}

/// The directory this run may write to: under the Cargo target
/// directory, which the benchmark's checkout already ignores.
fn scratch_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    base.join("roundbench")
}

fn run_one(args: &Args) -> Result<bool, String> {
    let w = workload::generate(&args.workload, args.seed)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let root = scratch_dir();
    let scratch = root.join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;

    let mut tally = Tally::default();
    if args.trace {
        let jsonl = run_traced(&w, args.seconds, &scratch, &mut tally);
        let path = root.join(format!("spans-{}-seed{}.jsonl", w.name, args.seed));
        if let Err(e) = std::fs::write(&path, jsonl) {
            tally.fail(format!("write {}: {e}", path.display()));
        } else {
            eprintln!("spans written to {}", path.display());
        }
    } else {
        run_untraced(&w, args.seconds, &scratch, &mut tally);
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let correct = tally.failures.is_empty() && tally.attempted > 0;
    let mut summaries: Vec<(String, &str, Summary)> = Vec::new();
    for (name, (values, unit)) in &tally.samples {
        summaries.push((name.clone(), unit, Summary::of(values)));
    }
    let threads = numeric::par::max_threads();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let failed = tally.failures.len() as u64;
    let fail_ratio = failed as f64 / tally.attempted.max(1) as f64;

    println!(
        "workload {} seed {} trace {} threads {threads} cores {cores}",
        w.name, args.seed, args.trace as u8
    );
    let wall: BTreeMap<&str, Summary> = tally
        .wall
        .iter()
        .map(|(name, values)| (name.as_str(), Summary::of(values)))
        .collect();
    for (name, unit, s) in &summaries {
        let wall = wall
            .get(name.as_str())
            .map_or(String::new(), |w| format!(", wall median {:.6}", w.median));
        println!(
            "  {name:<28} {:>14.6} {unit:<6} (median of {}, q1 {:.6}, q3 {:.6}, spread {:.3}{wall})",
            s.median, s.n, s.q1, s.q3, s.spread
        );
    }
    println!(
        "  {:<28} {fail_ratio:>14.6} ratio  ({failed} of {} attempts)",
        "fail_ratio", tally.attempted
    );

    // Metadata line: every result with its sample count and dispersion.
    let mut meta = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"threads\":{threads},\"cores\":{cores},\"fail_ratio\":{fail_ratio},\"results\":{{",
        w.name, args.seed, args.trace as u8
    );
    let mut results = Vec::new();
    let mut metrics = Vec::new();
    for (name, unit, s) in &summaries {
        let wall = wall.get(name.as_str()).map_or(String::new(), |w| {
            format!(",\"wall_median\":{},\"wall_spread\":{}", w.median, w.spread)
        });
        results.push(format!(
            "\"{name}\":{{\"unit\":\"{unit}\",\"samples\":{},\"min\":{},\"q1\":{},\"median\":{},\"q3\":{},\"spread\":{}{wall}}}",
            s.n, s.min, s.q1, s.median, s.q3, s.spread
        ));
        if !METADATA_ONLY.contains(&name.as_str()) {
            metrics.push(format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                s.median
            ));
        }
    }
    meta.push_str(&results.join(","));
    meta.push_str("}}");
    println!("{meta}");
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        tally.attempted,
        metrics.join(",")
    );
    Ok(correct)
}

/// `--workload all`: each workload in its own process (so peak memory is
/// per workload), then one summary line.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut failed = 0;
    for name in workload::NAMES {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("spawn {name}: {e}"))?;
        if !status.success() {
            failed += 1;
        }
    }
    let correct = failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{}}}}",
        workload::NAMES.len()
    );
    Ok(correct)
}

fn main() -> ExitCode {
    numeric::par::set_max_threads(THREADS);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload <name|all> [--seed n] [--seconds s] [--trace 0|1]: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

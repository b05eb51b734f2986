//! `layerbench`: the repository's steady-state benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path layerbench/Cargo.toml -- \
//!     --workload cv-centered-local --seed 1 --seconds 5 --trace 0
//! ```
//!
//! Untraced (`--trace 0`) runs print the end-to-end metrics; traced
//! (`--trace 1`) runs print the per-layer metrics and the composition
//! check. Either way the last line of stdout is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md` for
//! the workloads and what each metric should move.

mod inputs;
mod replay;
mod run;

use presto_datasets::steps;
use presto_pipeline::real::RealExecutor;
use presto_pipeline::serve::MultisetChecksum;
use presto_pipeline::{Pipeline, Sample, Telemetry, TelemetrySnapshot};
use replay::{CallStats, ShardOutcome, ShardPlan, Tracer, LAYERS};
use run::{EpochOutcome, KeyIndex, Path, System, Workload, CROP, RESIZE, SHARDS, WORKLOADS};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where inputs are cached and spans are written, under the directory
/// the benchmark runs from.
const WORK_DIR: &str = ".layerbench";
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest measured epochs per phase, however long they take.
const MIN_EPOCHS: usize = 3;
/// Untimed epochs before measuring: at least one, and at least this long.
const WARMUP: Duration = Duration::from_secs(1);

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 5.0;
    let mut trace = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .copied()
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = value.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// The epoch seed of epoch `index` of a run.
fn epoch_seed(seed: u64, index: u64) -> u64 {
    inputs::mix(seed ^ 0xE90C_5EED_0000_0000 ^ index)
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time of the whole process, to the nanosecond,
/// threads that have already exited included (the engine's epoch
/// workers exit at the end of every epoch).
fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` for the whole call,
    // and the clock id is one every Linux kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always readable");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set size in MB (2^20 bytes), from `VmHWM`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A metric as printed: name, value, unit, and the basis it rests on.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    basis: String,
}

/// Everything a run reports.
#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    /// Printed like metrics but left out of the JSON: figures too noisy
    /// across runs to carry a bound (see the README).
    unbounded: Vec<Metric>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str, basis: String) {
        self.metrics.push(Metric {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            basis,
        });
    }

    fn epoch(&mut self, outcome: &EpochOutcome) {
        self.attempted += outcome.attempted;
        self.failed += outcome.failed;
        if let Some(e) = &outcome.error {
            self.problems.push(format!("epoch failed: {e}"));
        }
    }

    fn check(&mut self, ok: bool, what: String) {
        if !ok {
            self.problems.push(what);
        }
    }

    /// Every check passed and every attempted sample arrived intact.
    fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    fn print(&self) {
        for m in self.metrics.iter().chain(&self.unbounded) {
            println!("{:<34} {:>16.6} {:<6} {}", m.name, m.value, m.unit, m.basis);
        }
        let error_rate = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        println!(
            "{:<34} {:>16.6} {:<6} ({} failed of {} samples attempted)",
            "error_rate", error_rate, "ratio", self.failed, self.attempted
        );
        for p in &self.problems {
            println!("problem: {p}");
        }
        let correct = self.correct();
        println!("correct: {correct}");
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Replay every shard and return the consumer's multiset checksum plus
/// the per-shard outcomes, splitting shards over `threads` threads
/// when untraced.
fn replay_epoch(
    w: &Workload,
    pipeline: &Pipeline,
    inputs: &[Sample],
    shard_names: &[String],
    epoch_seed: u64,
    threads: usize,
    tracers: Option<(&mut Tracer, &mut Tracer)>,
) -> Result<(MultisetChecksum, Vec<ShardOutcome>), String> {
    let plan = ShardPlan {
        pipeline,
        split: w.split,
        codec: w.codec,
        served: w.path != Path::Local,
        epoch_seed,
    };
    // The engine stripes inputs over shards round-robin.
    let shard_inputs = |index: usize| -> Vec<&Sample> {
        inputs
            .iter()
            .skip(index)
            .step_by(shard_names.len())
            .collect()
    };
    let pool = presto_pipeline::BufferPool::new();
    let outcomes: Vec<Result<ShardOutcome, String>> = match tracers {
        Some((offline, online)) => (0..shard_names.len())
            .map(|i| {
                replay::replay_shard(
                    &plan,
                    i,
                    &shard_names[i],
                    &shard_inputs(i),
                    CROP,
                    &pool,
                    offline,
                    online,
                )
            })
            .collect(),
        None => std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads.max(1))
                .map(|t| {
                    let (plan, pool, shard_inputs) = (&plan, &pool, &shard_inputs);
                    scope.spawn(move || {
                        (t..shard_names.len())
                            .step_by(threads.max(1))
                            .map(|i| {
                                let (mut off, mut on) = (Tracer::new(false), Tracer::new(false));
                                replay::replay_shard(
                                    plan,
                                    i,
                                    &shard_names[i],
                                    &shard_inputs(i),
                                    CROP,
                                    pool,
                                    &mut off,
                                    &mut on,
                                )
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("replay thread"))
                .collect()
        }),
    };
    let outcomes: Vec<ShardOutcome> = outcomes.into_iter().collect::<Result<_, _>>()?;
    let mut checksum = MultisetChecksum::default();
    for o in &outcomes {
        checksum.merge(o.checksum);
    }
    Ok((checksum, outcomes))
}

/// Run epochs until `seconds` have passed and at least [`MIN_EPOCHS`]
/// ran; returns them and the process CPU time they took.
fn measure(
    seconds: f64,
    mut next: impl FnMut(u64) -> EpochOutcome,
) -> (Vec<EpochOutcome>, Duration) {
    let cpu0 = process_cpu();
    let t0 = Instant::now();
    let mut epochs = Vec::new();
    while epochs.len() < MIN_EPOCHS || t0.elapsed().as_secs_f64() < seconds {
        epochs.push(next(epochs.len() as u64));
    }
    (epochs, process_cpu().saturating_sub(cpu0))
}

/// One epoch of the workload's end-to-end path, untraced.
fn epoch(
    pipeline: &Pipeline,
    sys: &System,
    exec: &RealExecutor,
    keys: &KeyIndex,
    seed: u64,
    index: u64,
    with_checksum: bool,
) -> EpochOutcome {
    let es = epoch_seed(seed, index);
    match sys.endpoint() {
        None => run::local_epoch(exec, pipeline, sys, es, keys, with_checksum),
        Some(endpoint) => run::served_epoch(
            &endpoint,
            sys,
            &run::client_config(true, false),
            None,
            es,
            keys,
        ),
    }
}

/// Correctness gate, once per run and untimed: the engine's local
/// epoch, and the served one where there is one, must deliver the
/// multiset the harness computed itself.
fn check_digests(
    report: &mut Report,
    w: &Workload,
    pipeline: &Pipeline,
    sys: &System,
    keys: &KeyIndex,
    seed: u64,
    reference: MultisetChecksum,
) {
    let exec = RealExecutor::new(1);
    let local = run::local_epoch(&exec, pipeline, sys, epoch_seed(seed, 0), keys, true);
    report.epoch(&local);
    let digest = |o: &EpochOutcome| o.checksum.map(|c| c.digest()).unwrap_or(0);
    report.check(
        digest(&local) == reference.digest(),
        format!(
            "local digest {:016x} != reference {:016x}",
            digest(&local),
            reference.digest()
        ),
    );
    println!(
        "reference digest {:016x} over {} samples; local {:016x}",
        reference.digest(),
        reference.count,
        digest(&local)
    );
    if w.path != Path::Local {
        let served = epoch(pipeline, sys, &exec, keys, seed, 0, true);
        report.epoch(&served);
        report.check(
            digest(&served) == reference.digest(),
            format!(
                "{} digest {:016x} != local {:016x}",
                w.name,
                digest(&served),
                digest(&local)
            ),
        );
        println!("served digest {:016x}", digest(&served));
    }
}

/// The engine's stored size must equal what the harness's own
/// materialization of the same shards stored.
fn check_storage(report: &mut Report, sys: &System, replayed: &[ShardOutcome]) {
    let expected: u64 = replayed.iter().map(|o| o.stored_bytes).sum();
    let stored = sys.dataset.stored_bytes;
    report.check(
        stored == expected,
        format!("stored {stored} bytes, the replay stored {expected}"),
    );
}

/// Summaries over measured epochs.
fn sps_median(epochs: &[EpochOutcome]) -> f64 {
    median(&mut epochs.iter().map(EpochOutcome::sps).collect::<Vec<_>>())
}

fn elapsed_median(epochs: &[EpochOutcome]) -> f64 {
    median(
        &mut epochs
            .iter()
            .map(|e| e.elapsed.as_secs_f64())
            .collect::<Vec<_>>(),
    )
}

fn untraced(
    args: &Args,
    pipeline: &Pipeline,
    inputs: &[Sample],
    report: &mut Report,
) -> Result<(), String> {
    let w = &args.workload;
    let n = w.samples as u64;
    let keys = run::key_index(inputs);
    // Set up several times; keep the last system for the epochs.
    let mut setups = Vec::new();
    let mut sys = None;
    for _ in 0..SETUP_REPS {
        drop(sys.take());
        let (fresh, took) = run::setup(w, pipeline, inputs, None)?;
        setups.push(took.as_secs_f64());
        sys = Some(fresh);
    }
    let sys = sys.expect("at least one set-up");
    let names = sys.dataset.shards.clone();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (reference, replayed) = replay_epoch(
        w,
        pipeline,
        inputs,
        &names,
        epoch_seed(args.seed, 0),
        threads,
        None,
    )?;
    check_digests(report, w, pipeline, &sys, &keys, args.seed, reference);
    check_storage(report, &sys, &replayed);

    let exec = RealExecutor::new(1);
    let warmup_start = Instant::now();
    let mut index = 1;
    while index == 1 || warmup_start.elapsed() < WARMUP {
        report.epoch(&epoch(
            pipeline, &sys, &exec, &keys, args.seed, index, false,
        ));
        index += 1;
    }
    let (epochs, cpu) = measure(args.seconds, |i| {
        epoch(pipeline, &sys, &exec, &keys, args.seed, index + i, false)
    });
    for e in &epochs {
        report.epoch(e);
    }
    let delivered: u64 = epochs.iter().map(|e| e.attempted - e.failed).sum();
    let k = epochs.len();
    let basis = format!("(median of {k} epochs x {n} samples)");
    report.metric("sps", sps_median(&epochs), "1/s", basis.clone());
    let mut ttfs: Vec<f64> = epochs
        .iter()
        .filter_map(|e| e.ttfs.map(|t| t.as_secs_f64() * 1e3))
        .collect();
    report.unbounded.push(Metric {
        name: "ttfs_ms".into(),
        value: median(&mut ttfs),
        unit: "ms",
        basis,
    });
    report.metric(
        "cpu_us_per_sample",
        cpu.as_secs_f64() * 1e6 / delivered.max(1) as f64,
        "us",
        format!(
            "({:.2} s CPU over {delivered} samples, {k} epochs)",
            cpu.as_secs_f64()
        ),
    );
    report.metric(
        "setup_s",
        median(&mut setups),
        "s",
        format!("(median of {SETUP_REPS} set-ups of {n} samples: materialize + spawn)"),
    );
    report.metric(
        "storage_bytes",
        sys.dataset.stored_bytes as f64,
        "B",
        format!(
            "({} shards, split {}, {})",
            names.len(),
            w.split,
            w.codec.name()
        ),
    );
    report.metric(
        "peak_rss_mb",
        peak_rss_mb(),
        "MB",
        "(VmHWM of the whole run)".into(),
    );
    Ok(())
}

/// Shares of an engine snapshot's worker time no measured phase covers.
fn unattributed_share(snapshot: &TelemetrySnapshot) -> f64 {
    let total = snapshot.elapsed_ns as f64 * snapshot.threads.max(1) as f64;
    let idle: u64 = snapshot.workers.iter().map(|w| w.idle_ns).sum();
    if total == 0.0 {
        0.0
    } else {
        idle as f64 / total
    }
}

fn traced(
    args: &Args,
    pipeline: &Pipeline,
    inputs: &[Sample],
    report: &mut Report,
) -> Result<(), String> {
    let w = &args.workload;
    let keys = run::key_index(inputs);
    let (sys, _) = run::setup(w, pipeline, inputs, None)?;
    let names = sys.dataset.shards.clone();

    // The traced replay: one thread, every shard, spans around every call.
    let mut offline = Tracer::new(true);
    let mut online = Tracer::new(true);
    let t0 = Instant::now();
    let (replayed, outcomes) = replay_epoch(
        w,
        pipeline,
        inputs,
        &names,
        epoch_seed(args.seed, 0),
        1,
        Some((&mut offline, &mut online)),
    )?;
    println!("traced replay: {:.2} s", t0.elapsed().as_secs_f64());
    let bad: u64 = outcomes.iter().map(|o| o.bad_samples).sum();
    report.check(
        bad == 0,
        format!("{bad} replayed samples have the wrong shape"),
    );
    check_digests(report, w, pipeline, &sys, &keys, args.seed, replayed);
    check_storage(report, &sys, &outcomes);

    // Untraced epochs: the denominator of the composition check.
    let exec = RealExecutor::new(1);
    let (plain, _) = measure(args.seconds / 2.0, |i| {
        epoch(pipeline, &sys, &exec, &keys, args.seed, 1 + i, false)
    });
    plain.iter().for_each(|e| report.epoch(e));
    let plain_s = elapsed_median(&plain);

    // Fleet only: the same shards straight from the worker, to isolate
    // the relay.
    let mut relay_ms_per_batch = 0.0;
    let mut relay_s = 0.0;
    if w.path == Path::Fleet {
        let worker = sys.worker.as_ref().expect("fleet has a worker");
        let direct_addr = worker.addr().to_string();
        let (direct, _) = measure(args.seconds / 2.0, |i| {
            run::served_epoch(
                &direct_addr,
                &sys,
                &run::client_config(false, false),
                None,
                epoch_seed(args.seed, 1 + i),
                &keys,
            )
        });
        direct.iter().for_each(|e| report.epoch(e));
        let batches = plain.iter().map(|e| e.batches).max().unwrap_or(1).max(1);
        relay_s = (plain_s - elapsed_median(&direct)).max(0.0);
        relay_ms_per_batch = relay_s * 1e3 / batches as f64;
    }

    // Telemetry-attached epochs: the engine's own snapshot and, on the
    // fleet, the fleet trace's wait split.
    let engine_tel = Telemetry::new();
    let client_tel = Telemetry::new();
    let (tel_epochs, snapshot, waits) = match w.path {
        Path::Local => {
            let exec = RealExecutor::new(1).with_telemetry(Arc::clone(&engine_tel));
            let (epochs, _) = measure(args.seconds / 2.0, |i| {
                epoch(pipeline, &sys, &exec, &keys, args.seed, 1 + i, false)
            });
            (epochs, engine_tel.last_epoch(), None)
        }
        Path::Fleet => {
            let worker = run::spawn_worker(
                pipeline,
                &sys.dataset,
                &sys.store,
                Some(Arc::clone(&engine_tel)),
            )?;
            let daemon = run::spawn_daemon(&worker)?;
            let endpoint = daemon.addr().to_string();
            let config = run::client_config(true, true);
            let before = engine_tel.serve().snapshot();
            let (epochs, _) = measure(args.seconds / 2.0, |i| {
                run::served_epoch(
                    &endpoint,
                    &sys,
                    &config,
                    Some(&client_tel),
                    epoch_seed(args.seed, 1 + i),
                    &keys,
                )
            });
            let after = engine_tel.serve().snapshot();
            drop(daemon);
            worker.stop();
            // The client's gauges reset each epoch; the worker's add up.
            let last = epochs.last().map_or(1.0, |e| e.elapsed.as_secs_f64());
            let total: f64 = epochs.iter().map(|e| e.elapsed.as_secs_f64()).sum();
            let client = client_tel.serve().snapshot();
            let waits = (
                client.gap_wait_ns as f64 / 1e9 / last,
                (after.produce_ns - before.produce_ns) as f64 / 1e9 / total,
                (after.credit_wait_ns - before.credit_wait_ns) as f64 / 1e9 / total,
            );
            (epochs, engine_tel.last_epoch(), Some(waits))
        }
    };
    tel_epochs.iter().for_each(|e| report.epoch(e));
    let tel_s = elapsed_median(&tel_epochs);

    // Per-call figures from the traced replay. Offline calls (steps
    // before the split, encode, write, compress, put) and online ones
    // (the rest) are recorded apart; a figure over "both" pools them.
    let off = offline.stats();
    let on = online.stats();
    let get =
        |map: &BTreeMap<String, CallStats>, name: &str| map.get(name).copied().unwrap_or_default();
    let both = |name: &str| {
        let (a, b) = (get(&off, name), get(&on, name));
        CallStats {
            calls: a.calls + b.calls,
            ns: a.ns + b.ns,
            bytes: a.bytes + b.bytes,
        }
    };
    let handoff = get(&on, "dataplane.handoff");
    let decodes: u64 = outcomes.iter().map(|o| o.decodes).sum();
    let shared: u64 = outcomes.iter().map(|o| o.shared_decodes).sum();
    let wire: u64 = outcomes.iter().map(|o| o.wire_bytes).sum();
    let step = |name: &str| both(&format!("step.{name}")).mean_ns();
    let replayed = [
        ("store.get_us", get(&on, "store.get").mean_ns() / 1e3, "us"),
        ("store.put_ms", get(&off, "store.put").mean_ns() / 1e6, "ms"),
        (
            "codecs.inflate_mb_s",
            get(&on, "codecs.decompress").mb_per_s(),
            "MB/s",
        ),
        (
            "codecs.deflate_mb_s",
            both("codecs.compress").mb_per_s(),
            "MB/s",
        ),
        (
            "record.read_mb_s",
            get(&on, "record.next").mb_per_s(),
            "MB/s",
        ),
        ("record.write_mb_s", both("record.write").mb_per_s(), "MB/s"),
        (
            "record.records",
            get(&on, "record.next").calls as f64,
            "count",
        ),
        (
            "sample.decode_ns",
            get(&on, "sample.decode").mean_ns(),
            "ns",
        ),
        ("sample.encode_ns", both("sample.encode").mean_ns(), "ns"),
        (
            "sample.shared_ratio",
            shared as f64 / decodes.max(1) as f64,
            "ratio",
        ),
        ("step.decoded.ns", step("decoded"), "ns"),
        ("step.resized.ns", step("resized"), "ns"),
        ("step.pixel-centered.ns", step("pixel-centered"), "ns"),
        ("step.random-crop.ns", step("random-crop"), "ns"),
        // Per sample: a hand-off span's byte count is its sample count.
        (
            "dataplane.handoff_ns",
            handoff.ns as f64 / handoff.bytes.max(1) as f64,
            "ns",
        ),
    ];
    let basis = format!(
        "(traced replay of {} shards, {} samples)",
        names.len(),
        w.samples
    );
    for (name, value, unit) in replayed {
        report.metric(name, value, unit, basis.clone());
    }
    let tel_basis = format!("(telemetry attached, {} epochs)", tel_epochs.len());
    let pool_hits = snapshot
        .as_ref()
        .map_or(0.0, |s| s.data_plane.pool_hit_rate());
    report.metric(
        "dataplane.pool_hit_ratio",
        pool_hits,
        "ratio",
        tel_basis.clone(),
    );
    let replayed = [
        (
            "serve.frame_write_mb_s",
            get(&on, "serve.write_frame").mb_per_s(),
            "MB/s",
        ),
        (
            "serve.frame_read_mb_s",
            get(&on, "serve.read_frame").mb_per_s(),
            "MB/s",
        ),
        (
            "serve.checksum_mb_s",
            get(&on, "serve.checksum").mb_per_s(),
            "MB/s",
        ),
        (
            "serve.wire_bytes_per_sample",
            wire as f64 / w.samples as f64,
            "B",
        ),
    ];
    for (name, value, unit) in replayed {
        report.metric(name, value, unit, basis.clone());
    }
    let (gap, produce, credit) = waits.unwrap_or_default();
    report.metric("serve.gap_share", gap, "ratio", tel_basis.clone());
    report.metric("serve.produce_share", produce, "ratio", tel_basis.clone());
    report.metric(
        "serve.credit_wait_share",
        credit,
        "ratio",
        tel_basis.clone(),
    );
    let relay_basis = "(fleet epoch minus direct served epoch, medians)";
    report.metric(
        "tenant.relay_ms_per_batch",
        relay_ms_per_batch,
        "ms",
        relay_basis.into(),
    );

    // Composition: do the layers' self times add up to the epoch?
    let mut self_ns = online.self_ns();
    if relay_s > 0.0 {
        self_ns.insert("pipeline.tenant", (relay_s * 1e9) as u64);
    }
    let layer_sum: u64 = self_ns.values().sum();
    let explained = layer_sum as f64 / 1e9 / plain_s;
    let unattributed = snapshot.as_ref().map_or(0.0, unattributed_share);
    let untraced_basis = format!("(untraced epoch median of {} epochs)", plain.len());
    report.metric("real.explained_share", explained, "ratio", untraced_basis);
    report.metric(
        "telemetry.unattributed_share",
        unattributed,
        "ratio",
        tel_basis.clone(),
    );
    report.metric(
        "telemetry.overhead_pct",
        (tel_s / plain_s - 1.0) * 100.0,
        "%",
        tel_basis,
    );
    for layer in LAYERS {
        let ms = self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6;
        report.metric(
            format!("layer.{layer}.self_ms"),
            ms,
            "ms",
            "(self time, one epoch)".into(),
        );
    }
    let top = self_ns
        .iter()
        .max_by_key(|(_, ns)| **ns)
        .map_or("none", |(layer, _)| layer);
    println!(
        "composition: real.explained_share {explained:.3} vs telemetry.unattributed_share \
         {unattributed:.3} (untraced epoch {:.1} ms, layer self time {:.1} ms, top layer {top})",
        plain_s * 1e3,
        layer_sum as f64 / 1e6
    );

    let dir = std::path::Path::new(WORK_DIR).join("traces");
    for (tracer, phase) in [(&offline, "offline"), (&online, "online")] {
        let path = dir.join(format!("{}-seed{}-{phase}.jsonl", w.name, args.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("spans: {}", path.display());
    }
    Ok(())
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("layerbench: {e}");
            eprintln!(
                "usage: layerbench --workload <{}> --seed <n> [--seconds <s>] [--trace 0|1]",
                WORKLOADS.map(|w| w.name).join("|")
            );
            std::process::exit(2);
        }
    };
    let w = &args.workload;
    let pipeline = steps::executable_cv_pipeline(RESIZE, CROP);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t0 = Instant::now();
    let dir = std::path::Path::new(WORK_DIR).join("inputs");
    let (inputs, cached) = inputs::load(&dir, args.seed, w.samples, threads);
    println!(
        "layerbench {} seed {} trace {}: {} inputs drawn from the {} image universe in {:.2} s \
         (outside every metric); {threads} CPUs, {SHARDS} shards",
        w.name,
        args.seed,
        u8::from(args.trace),
        inputs.len(),
        if cached { "cached" } else { "freshly encoded" },
        t0.elapsed().as_secs_f64(),
    );
    let mut report = Report::default();
    let result = if args.trace {
        traced(&args, &pipeline, &inputs, &mut report)
    } else {
        untraced(&args, &pipeline, &inputs, &mut report)
    };
    if let Err(e) = result {
        eprintln!("layerbench: {e}");
        std::process::exit(1);
    }
    report.print();
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: usize = 64;

    fn run(name: &str, seed: u64, trace: bool) -> Report {
        let mut workload = *WORKLOADS.iter().find(|w| w.name == name).expect("known");
        workload.samples = SMALL;
        let args = Args {
            workload,
            seed,
            seconds: 0.0,
            trace,
        };
        let pipeline = steps::executable_cv_pipeline(RESIZE, CROP);
        let inputs = inputs::generate(&inputs::keys(seed, SMALL), 2);
        let mut report = Report::default();
        let result = if trace {
            traced(&args, &pipeline, &inputs, &mut report)
        } else {
            untraced(&args, &pipeline, &inputs, &mut report)
        };
        result.expect("run completes");
        assert!(report.correct(), "{name}: {:?}", report.problems);
        report
    }

    fn value(report: &Report, name: &str) -> f64 {
        report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("no metric {name}"))
            .value
    }

    /// The `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..start + json[start..].find(']').expect("list ends")];
        let field = |entry: &str, key: &str| -> String {
            let at = entry.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
            let rest = &entry[at..];
            let open = rest.find('"').expect("value") + 1;
            rest[open..open + rest[open..].find('"').expect("closing quote")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    #[test]
    fn counts_repeat_for_a_seed_and_storage_follows_the_seed() {
        // Tensor samples have fixed shapes, so record counts and wire
        // bytes are fixed by the sample count; the compressed dataset's
        // size is the one count that depends on the inputs' content.
        let encoded = Sample::from_tensors(
            0,
            vec![
                presto_tensor::Tensor::from_vec(vec![CROP, CROP, 3], vec![0f32; CROP * CROP * 3])
                    .expect("tensor"),
            ],
        )
        .encode()
        .len();
        let per_batch = SMALL / SHARDS; // one BATCH frame per shard
        let frame = 12 + 1 + 4 + 4 + 1 + 8 + 8 + per_batch * (16 + encoded) + 4;
        for name in ["cv-centered-local", "cv-resized-gzip-fleet"] {
            let a = run(name, 1, true);
            let b = run(name, 1, true);
            for metric in ["record.records", "serve.wire_bytes_per_sample"] {
                assert_eq!(value(&a, metric), value(&b, metric), "{name} {metric}");
            }
            let served = name.contains("fleet");
            let records = if served { 2 * SMALL } else { SMALL };
            assert_eq!(value(&a, "record.records"), records as f64, "{name}");
            let wire = if served {
                frame as f64 / per_batch as f64
            } else {
                0.0
            };
            assert_eq!(value(&a, "serve.wire_bytes_per_sample"), wire, "{name}");
        }
        for name in ["cv-centered-local", "cv-resized-gzip-fleet"] {
            let a = value(&run(name, 1, false), "storage_bytes");
            let b = value(&run(name, 1, false), "storage_bytes");
            let c = value(&run(name, 2, false), "storage_bytes");
            assert_eq!(a, b, "{name}");
            if name.contains("gzip") {
                assert_ne!(a, c, "{name}: compressed size follows the inputs");
            } else {
                assert_eq!(a, c, "{name}: raw tensors have a fixed size");
            }
        }
    }

    #[test]
    fn reported_metrics_are_exactly_the_declared_ones() {
        let valid_name = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let valid_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for (section, trace) in [("end_to_end", false), ("per_layer", true)] {
            let expected = declared(section);
            for w in WORKLOADS {
                let report = run(w.name, 3, trace);
                let got: Vec<(String, String)> = report
                    .metrics
                    .iter()
                    .map(|m| (m.name.clone(), m.unit.to_string()))
                    .collect();
                assert_eq!(got, expected, "{} {section}", w.name);
                for m in &report.metrics {
                    assert!(
                        valid_name(&m.name) && valid_unit(m.unit),
                        "{} {}",
                        m.name,
                        m.unit
                    );
                    assert!(m.value.is_finite());
                }
            }
        }
    }
}

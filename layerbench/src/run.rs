//! The system under test, driven only through public APIs: set-up
//! (materialization plus any serve worker or fleet daemon), one epoch
//! through the local streaming engine or over the wire, and the
//! per-epoch correctness checks.

use presto_codecs::{Codec, Level};
use presto_pipeline::real::{Materialized, MemStore, RealExecutor};
use presto_pipeline::serve::{
    serve_epoch, MultisetChecksum, ServeClientConfig, ServeWorker, ServeWorkerConfig, TenantSpec,
};
use presto_pipeline::tenant::{FleetDaemon, FleetDaemonConfig};
use presto_pipeline::{BlobStore, Pipeline, Resilience, Sample, Strategy, Telemetry};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::replay::shape_ok;

/// Resize and crop of `executable_cv_pipeline(64, 56)`.
pub const RESIZE: usize = 64;
pub const CROP: usize = 56;
/// Prefetch buffer of the local streaming engine, in samples.
pub const PREFETCH: usize = 16;
/// Shards per dataset (the engine's default strategy).
pub const SHARDS: usize = 8;

/// How the consumer reaches the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `RealExecutor::new(1).stream_epoch` in this process.
    Local,
    /// One `ServeWorker` on loopback behind one `FleetDaemon`; the
    /// client is one tenant of weight 1 on one `serve_epoch` connection.
    Fleet,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub samples: usize,
    pub split: usize,
    pub codec: Codec,
    pub path: Path,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "cv-centered-local",
        samples: 4096,
        split: 3,
        codec: Codec::None,
        path: Path::Local,
    },
    // Gzip is served through the fleet, not streamed locally. A local
    // gzip epoch is inflate alone, whose speed on a shared 2-vCPU VM
    // wanders by ±15% over tens of seconds: ten local runs spread by
    // 0.27 of their median. The relay bounds the fleet epoch, which keeps
    // `sps` steady and leaves the worker's inflate in `cpu_us_per_sample`.
    Workload {
        name: "cv-resized-gzip-fleet",
        samples: 1024,
        split: 2,
        codec: Codec::Gzip(Level::DEFAULT),
        path: Path::Fleet,
    },
];

/// A materialized dataset plus whatever serves it. Dropping it stops
/// the daemon first, then the worker, and joins their threads.
pub struct System {
    pub daemon: Option<FleetDaemon>,
    pub worker: Option<ServeWorker>,
    pub dataset: Materialized,
    pub store: Arc<MemStore>,
}

impl System {
    /// The address a client connects to, on the fleet path.
    pub fn endpoint(&self) -> Option<String> {
        self.daemon.as_ref().map(|d| d.addr().to_string())
    }
}

/// Materialize `inputs` and start the workload's serve path. Returns
/// the system and its set-up time (materialization plus spawns).
pub fn setup(
    w: &Workload,
    pipeline: &Pipeline,
    inputs: &[Sample],
    worker_telemetry: Option<Arc<Telemetry>>,
) -> Result<(System, Duration), String> {
    let t0 = Instant::now();
    let store = Arc::new(MemStore::new());
    let strategy = Strategy::at_split(w.split)
        .with_threads(1)
        .with_shards(SHARDS)
        .with_compression(w.codec);
    let (dataset, _) = RealExecutor::new(1)
        .materialize(pipeline, &strategy, inputs, store.as_ref())
        .map_err(|e| format!("materialize: {e}"))?;
    let worker = match w.path {
        Path::Local => None,
        Path::Fleet => Some(spawn_worker(pipeline, &dataset, &store, worker_telemetry)?),
    };
    let daemon = worker.as_ref().map(spawn_daemon).transpose()?;
    let elapsed = t0.elapsed();
    Ok((
        System {
            daemon,
            worker,
            dataset,
            store,
        },
        elapsed,
    ))
}

pub fn spawn_worker(
    pipeline: &Pipeline,
    dataset: &Materialized,
    store: &Arc<MemStore>,
    telemetry: Option<Arc<Telemetry>>,
) -> Result<ServeWorker, String> {
    ServeWorker::spawn(
        "127.0.0.1:0",
        pipeline,
        dataset,
        Arc::clone(store) as Arc<dyn BlobStore>,
        Resilience::default(),
        telemetry,
        ServeWorkerConfig::default(),
    )
    .map_err(|e| format!("serve worker: {e}"))
}

pub fn spawn_daemon(worker: &ServeWorker) -> Result<FleetDaemon, String> {
    FleetDaemon::spawn(
        "127.0.0.1:0",
        &[worker.addr().to_string()],
        FleetDaemonConfig::default(),
        None,
    )
    .map_err(|e| format!("fleet daemon: {e}"))
}

/// Client settings: one connection, tracing as asked, and a tenant
/// identity when talking to a fleet daemon.
pub fn client_config(fleet: bool, tracing: bool) -> ServeClientConfig {
    ServeClientConfig {
        tracing,
        tenant: fleet.then(|| TenantSpec::new("layerbench", 1)),
        ..ServeClientConfig::default()
    }
}

/// Each input key of a run, mapped to its position in the inputs.
pub type KeyIndex = HashMap<u64, usize>;

pub fn key_index(inputs: &[Sample]) -> KeyIndex {
    inputs.iter().enumerate().map(|(i, s)| (s.key, i)).collect()
}

/// Per-epoch delivery check: every key of the run exactly once, every
/// sample a `[CROP, CROP, 3]` tensor.
#[derive(Debug)]
pub struct Checker<'a> {
    keys: &'a KeyIndex,
    seen: Vec<bool>,
    wrong: u64,
    duplicate: u64,
    started: Instant,
    first: Option<Duration>,
    checksum: Option<MultisetChecksum>,
}

impl<'a> Checker<'a> {
    pub fn new(keys: &'a KeyIndex, with_checksum: bool) -> Self {
        Checker {
            keys,
            seen: vec![false; keys.len()],
            wrong: 0,
            duplicate: 0,
            started: Instant::now(),
            first: None,
            checksum: with_checksum.then(MultisetChecksum::default),
        }
    }

    /// The consumer: note the first arrival, touch the tensor shape,
    /// account the key.
    pub fn take(&mut self, sample: &Sample) {
        if self.first.is_none() {
            self.first = Some(self.started.elapsed());
        }
        match self.keys.get(&sample.key).map(|&i| &mut self.seen[i]) {
            None => self.wrong += 1,
            Some(seen) if *seen => self.duplicate += 1,
            Some(seen) => {
                *seen = true;
                if !shape_ok(sample, CROP) {
                    self.wrong += 1;
                }
            }
        }
        if let Some(checksum) = &mut self.checksum {
            checksum.add(sample);
        }
    }

    /// Missing, duplicate and wrong samples.
    pub fn failed(&self) -> u64 {
        let missing = self.seen.iter().filter(|s| !**s).count() as u64;
        missing + self.duplicate + self.wrong
    }
}

/// What one epoch delivered and how long it took.
#[derive(Debug, Clone)]
pub struct EpochOutcome {
    pub elapsed: Duration,
    /// Time from the epoch call to the first sample in the consumer.
    pub ttfs: Option<Duration>,
    pub attempted: u64,
    pub failed: u64,
    /// Multiset checksum: the consumer's own when asked for locally,
    /// the client's report when served.
    pub checksum: Option<MultisetChecksum>,
    /// BATCH frames drained (served paths).
    pub batches: u64,
    pub error: Option<String>,
}

impl EpochOutcome {
    fn finish(checker: Checker, elapsed: Duration, error: Option<String>) -> Self {
        EpochOutcome {
            elapsed,
            ttfs: checker.first,
            attempted: checker.seen.len() as u64,
            failed: checker.failed(),
            checksum: checker.checksum,
            batches: 0,
            error,
        }
    }

    pub fn sps(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.elapsed.as_secs_f64()
    }
}

/// One streaming epoch on the local engine, pulled by this thread.
pub fn local_epoch(
    exec: &RealExecutor,
    pipeline: &Pipeline,
    sys: &System,
    epoch_seed: u64,
    keys: &KeyIndex,
    with_checksum: bool,
) -> EpochOutcome {
    let mut checker = Checker::new(keys, with_checksum);
    let store = Arc::clone(&sys.store) as Arc<dyn BlobStore>;
    let started = checker.started;
    let mut error = None;
    match exec.stream_epoch(pipeline, &sys.dataset, store, PREFETCH, epoch_seed) {
        Ok(mut stream) => {
            for item in &mut stream {
                match item {
                    Ok(sample) => checker.take(&sample),
                    Err(e) => {
                        error = Some(e.to_string());
                        break;
                    }
                }
            }
            if let Err(e) = stream.join() {
                error.get_or_insert(e.to_string());
            }
        }
        Err(e) => error = Some(e.to_string()),
    }
    EpochOutcome::finish(checker, started.elapsed(), error)
}

/// One epoch over the wire from `endpoint`, consumed by the client's
/// delivery callback.
pub fn served_epoch(
    endpoint: &str,
    sys: &System,
    config: &ServeClientConfig,
    telemetry: Option<&Telemetry>,
    epoch_seed: u64,
    keys: &KeyIndex,
) -> EpochOutcome {
    let checker = Mutex::new(Checker::new(keys, false));
    let started = Instant::now();
    checker.lock().expect("checker lock").started = started;
    let report = serve_epoch(
        &[endpoint.to_string()],
        &sys.dataset.shards,
        epoch_seed,
        config,
        telemetry,
        |sample| checker.lock().expect("checker lock").take(sample),
    );
    let elapsed = started.elapsed();
    let checker = checker.into_inner().expect("checker lock");
    match report {
        Ok(report) => {
            let mut out = EpochOutcome::finish(checker, elapsed, None);
            out.checksum = Some(report.checksum);
            out.batches = report.batches;
            out
        }
        Err(e) => EpochOutcome::finish(checker, elapsed, Some(e.to_string())),
    }
}

//! The harness's own pass over the pipeline, through public calls only.
//!
//! [`replay_shard`] re-does what materialization and one online epoch
//! do to a shard, one public call at a time: step `apply`, sample
//! `encode`, record `write`, codec `compress`, store `put`, then store
//! `get`, codec `decompress`, record `next`, sample `decode_shared`,
//! the online steps seeded by `shard_rng_seed(epoch_seed, shard)`, and
//! the hand-off (the prefetch ring locally; wire encode, `write_frame`,
//! `read_frame`, client decode and the multiset checksum when served).
//!
//! It serves twice. Untraced, it is the correctness reference: the
//! harness computes the epoch's multiset checksum from the inputs
//! itself, without the engine's materialization or scheduling. Traced,
//! a [`Tracer`] records a span around every call; [`Tracer::self_ns`]
//! turns them into per-layer self time.

use bytes::Bytes;
use presto_codecs::Codec;
use presto_pipeline::dataplane;
use presto_pipeline::serve::{read_frame, wire_codec, wire_codec_tag, write_frame, Frame};
use presto_pipeline::serve::{MultisetChecksum, ServeWorkerConfig};
use presto_pipeline::{
    shard_rng_seed, BlobStore, BufferPool, MemStore, Payload, Pipeline, Sample, SampleBundle,
    DEFAULT_BUNDLE_SIZE,
};
use presto_tensor::{RecordReader, RecordWriter};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Marks a span without a parent.
const ROOT: u32 = u32::MAX;

/// One timed call: what, when, under which span, for which sample, and
/// how many bytes it processed (0 when not meaningful).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: u16,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub sample: u64,
    pub bytes: u64,
}

/// In-memory span recorder. Disabled, it records nothing and never
/// reads the clock.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    names: Vec<String>,
    spans: Vec<Span>,
}

/// Count, total time and total bytes of the spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CallStats {
    pub calls: u64,
    pub ns: u64,
    pub bytes: u64,
}

impl CallStats {
    /// Mean nanoseconds per call (0 without calls).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        self.ns as f64 / self.calls as f64
    }

    /// Throughput in MB/s (10^6 bytes) over the calls' busy time.
    pub fn mb_per_s(&self) -> f64 {
        if self.ns == 0 {
            return 0.0;
        }
        self.bytes as f64 / 1e6 / (self.ns as f64 / 1e9)
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Interned id of a span name.
    pub fn id(&mut self, name: &str) -> u16 {
        match self.names.iter().position(|n| n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name.to_string());
                (self.names.len() - 1) as u16
            }
        }
    }

    /// Start a timed call.
    pub fn begin(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Close a call started by [`Tracer::begin`] as a span.
    pub fn end(&mut self, t0: Option<Instant>, name: u16, parent: u32, sample: u64, bytes: u64) {
        if let Some(t0) = t0 {
            let end_ns = self.origin.elapsed().as_nanos() as u64;
            let start_ns = (t0 - self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                sample,
                bytes,
            });
        }
    }

    /// Open a top-level span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: u16) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: ROOT,
            sample: 0,
            bytes: 0,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, span: u32) {
        if let Some(s) = self.spans.get_mut(span as usize) {
            s.end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Per-name call statistics.
    pub fn stats(&self) -> BTreeMap<String, CallStats> {
        let mut out: BTreeMap<String, CallStats> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(self.names[s.name as usize].clone()).or_default();
            e.calls += 1;
            e.ns += s.end_ns - s.start_ns;
            e.bytes += s.bytes;
        }
        out
    }

    /// Self time per layer: each span's duration minus the time its
    /// children cover, summed by [`layer_of`] its name. Spans of no
    /// layer (the harness's own shard and epoch spans) are left out.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(c) = child_ns.get_mut(s.parent as usize) {
                *c += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            if let Some(layer) = layer_of(&self.names[s.name as usize]) {
                *out.entry(layer).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(children);
            }
        }
        out
    }

    /// Write every span as one JSON line:
    /// `{"name", "start_ns", "end_ns", "parent", "sample", "bytes"}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"sample\":{},\"bytes\":{}}}",
                self.names[s.name as usize], s.start_ns, s.end_ns, parent, s.sample, s.bytes
            )?;
        }
        out.flush()
    }
}

/// The layers, named by module, in report order.
pub const LAYERS: [&str; 8] = [
    "store",
    "codecs",
    "tensor.record",
    "pipeline.sample",
    "datasets.steps",
    "pipeline.dataplane",
    "pipeline.serve",
    "pipeline.tenant",
];

/// The layer a span name belongs to (`None` for harness spans).
pub fn layer_of(name: &str) -> Option<&'static str> {
    let prefix = name.split('.').next().unwrap_or(name);
    Some(match prefix {
        "store" => "store",
        "codecs" => "codecs",
        "record" => "tensor.record",
        "sample" => "pipeline.sample",
        "step" => "datasets.steps",
        "dataplane" => "pipeline.dataplane",
        "serve" => "pipeline.serve",
        _ => return None,
    })
}

/// What one replayed shard looks like on its way to the consumer.
pub struct ShardPlan<'a> {
    pub pipeline: &'a Pipeline,
    pub split: usize,
    pub codec: Codec,
    /// Go through the serve path (wire encode, frames, client decode)
    /// instead of the local prefetch ring.
    pub served: bool,
    pub epoch_seed: u64,
}

/// What a replayed shard produced.
#[derive(Debug, Default, Clone, Copy)]
pub struct ShardOutcome {
    /// Multiset checksum of the samples the consumer received.
    pub checksum: MultisetChecksum,
    /// Bytes the shard occupies in the store.
    pub stored_bytes: u64,
    /// BATCH frame bytes put on the wire (served only).
    pub wire_bytes: u64,
    /// Records read back by `RecordReader::next`.
    pub records: u64,
    /// `Sample` decodes, and those whose payload aliased the frame.
    pub decodes: u64,
    pub shared_decodes: u64,
    /// Consumer-side check failures (wrong shape).
    pub bad_samples: u64,
}

/// The `[56, 56, 3]` model-input shape every delivered sample must have.
pub fn shape_ok(sample: &Sample, crop: usize) -> bool {
    match &sample.payload {
        Payload::Tensors(ts) => ts.len() == 1 && ts[0].shape() == [crop, crop, 3],
        _ => false,
    }
}

/// Replay one shard: offline steps and materialization into
/// `offline`'s spans, then one online epoch of it into `online`'s.
#[allow(clippy::too_many_arguments)]
pub fn replay_shard(
    plan: &ShardPlan,
    shard_index: usize,
    shard_name: &str,
    inputs: &[&Sample],
    crop: usize,
    pool: &BufferPool,
    offline: &mut Tracer,
    online: &mut Tracer,
) -> Result<ShardOutcome, String> {
    let steps = plan.pipeline.steps();
    let mut out = ShardOutcome::default();
    let store = MemStore::new();

    // Offline: steps [0, split), encode, frame, compress, put. The
    // offline steps are deterministic, so their RNG never matters.
    let id_encode = offline.id("sample.encode");
    let id_write = offline.id("record.write");
    let id_compress = offline.id("codecs.compress");
    let id_put = offline.id("store.put");
    let offline_ids: Vec<u16> = steps[..plan.split]
        .iter()
        .map(|s| offline.id(&format!("step.{}", s.spec.name)))
        .collect();
    let id_shard = offline.id("shard");
    let shard_span = offline.open(id_shard);
    let mut rng = SmallRng::seed_from_u64(0);
    let mut writer = RecordWriter::new();
    for input in inputs {
        let mut sample = (*input).clone();
        for (step, &id) in steps[..plan.split].iter().zip(&offline_ids) {
            let exec = step.exec.as_deref().ok_or("step without implementation")?;
            let t = offline.begin();
            sample = exec.apply(sample, &mut rng).map_err(|e| e.to_string())?;
            offline.end(t, id, shard_span, input.key, 0);
        }
        let t = offline.begin();
        let encoded = sample.encode();
        offline.end(t, id_encode, shard_span, input.key, encoded.len() as u64);
        let t = offline.begin();
        writer.write(&encoded);
        offline.end(t, id_write, shard_span, input.key, encoded.len() as u64);
    }
    let framed = writer.finish();
    let t = offline.begin();
    let compressed = plan.codec.compress(&framed);
    offline.end(t, id_compress, shard_span, 0, framed.len() as u64);
    let t = offline.begin();
    store
        .put(shard_name, &compressed)
        .map_err(|e| e.to_string())?;
    offline.end(t, id_put, shard_span, 0, compressed.len() as u64);
    out.stored_bytes = compressed.len() as u64;
    offline.close(shard_span);
    drop((framed, compressed));

    // Online: get, inflate, read records, decode, online steps, hand off.
    let id_get = online.id("store.get");
    let id_decompress = online.id("codecs.decompress");
    let id_next = online.id("record.next");
    let id_decode = online.id("sample.decode");
    let online_ids: Vec<u16> = steps[plan.split..]
        .iter()
        .map(|s| online.id(&format!("step.{}", s.spec.name)))
        .collect();
    let id_shard = online.id("shard");
    let shard_span = online.open(id_shard);
    let mut rng = SmallRng::seed_from_u64(shard_rng_seed(plan.epoch_seed, shard_name));
    let t = online.begin();
    let blob = store.get(shard_name).map_err(|e| e.to_string())?;
    online.end(t, id_get, shard_span, 0, blob.len() as u64);
    // As the engine does: uncompressed shards are used as stored;
    // compressed ones inflate into pooled scratch sealed as one frame.
    let frame: Bytes = match plan.codec {
        Codec::None => blob,
        codec => {
            let t = online.begin();
            let (mut scratch, _hit) = pool.get_bytes(blob.len().saturating_mul(3));
            codec
                .decompress_into(&blob, &mut scratch)
                .map_err(|e| e.to_string())?;
            let sealed = Bytes::copy_from_slice(&scratch);
            pool.put_bytes(scratch);
            online.end(t, id_decompress, shard_span, 0, sealed.len() as u64);
            sealed
        }
    };
    let mut finished = Vec::with_capacity(inputs.len());
    let mut reader = RecordReader::new(&frame);
    loop {
        let t = online.begin();
        let Some(record) = reader.next() else { break };
        let record = record.map_err(|e| e.to_string())?;
        out.records += 1;
        online.end(t, id_next, shard_span, 0, record.len() as u64);
        let t = online.begin();
        let (mut sample, shared) =
            Sample::decode_shared(&frame, record).map_err(|e| e.to_string())?;
        online.end(t, id_decode, shard_span, sample.key, record.len() as u64);
        out.decodes += 1;
        out.shared_decodes += u64::from(shared);
        for (step, &id) in steps[plan.split..].iter().zip(&online_ids) {
            let exec = step.exec.as_deref().ok_or("step without implementation")?;
            let t = online.begin();
            sample = exec.apply(sample, &mut rng).map_err(|e| e.to_string())?;
            online.end(t, id, shard_span, sample.key, 0);
        }
        finished.push(sample);
    }
    let delivered = if plan.served {
        serve_hand_off(shard_index, finished, online, shard_span, &mut out)?
    } else {
        ring_hand_off(finished, pool, online, shard_span)
    };
    out.bad_samples = delivered.iter().filter(|s| !shape_ok(s, crop)).count() as u64;
    if !plan.served {
        // The served path's client already folded its samples in.
        for sample in &delivered {
            out.checksum.add(sample);
        }
    }
    online.close(shard_span);
    Ok(out)
}

/// Local hand-off: bundles of `DEFAULT_BUNDLE_SIZE` samples in pooled
/// containers through a one-lane prefetch ring, as the streaming
/// engine's worker and consumer do.
fn ring_hand_off(
    finished: Vec<Sample>,
    pool: &BufferPool,
    tr: &mut Tracer,
    parent: u32,
) -> Vec<Sample> {
    let id_pool = tr.id("dataplane.pool");
    let id_handoff = tr.id("dataplane.handoff");
    let (mut senders, receiver) = dataplane::ring::<SampleBundle>(1, 16);
    let sender = senders.pop().expect("one lane");
    let mut delivered = Vec::with_capacity(finished.len());
    let mut finished = finished.into_iter().peekable();
    while finished.peek().is_some() {
        let t = tr.begin();
        let (mut container, _hit) = pool.get_bundle(DEFAULT_BUNDLE_SIZE);
        tr.end(t, id_pool, parent, 0, 0);
        container.extend(finished.by_ref().take(DEFAULT_BUNDLE_SIZE));
        let count = container.len() as u64;
        let t = tr.begin();
        let sent = sender.try_send(SampleBundle::from_container(container));
        let bundle = receiver.recv();
        tr.end(t, id_handoff, parent, 0, count);
        assert!(sent.is_ok(), "a drained one-lane ring has room");
        let mut bundle = bundle.expect("the bundle just sent");
        delivered.append(&mut bundle.samples);
        let t = tr.begin();
        pool.put_bundle(bundle.samples);
        tr.end(t, id_pool, parent, 0, 0);
    }
    delivered
}

/// Served hand-off: the worker's per-batch encode, framing and wire
/// write, then the client's frame read, decode and commit, with the
/// default worker batch size and wire codec.
fn serve_hand_off(
    shard_index: usize,
    finished: Vec<Sample>,
    tr: &mut Tracer,
    parent: u32,
    out: &mut ShardOutcome,
) -> Result<Vec<Sample>, String> {
    let config = ServeWorkerConfig::default();
    let id_encode = tr.id("sample.encode");
    let id_write = tr.id("record.write");
    let id_compress = tr.id("codecs.compress");
    let id_decompress = tr.id("codecs.decompress");
    let id_frame_write = tr.id("serve.write_frame");
    let id_frame_read = tr.id("serve.read_frame");
    let id_next = tr.id("record.next");
    let id_decode = tr.id("sample.decode");
    let id_checksum = tr.id("serve.checksum");
    let mut received = Vec::with_capacity(finished.len());
    let mut wire = Vec::new();
    for chunk in finished.chunks(config.batch_samples.max(1)) {
        let mut block = RecordWriter::new();
        for sample in chunk {
            let t = tr.begin();
            let encoded = sample.encode();
            tr.end(t, id_encode, parent, sample.key, encoded.len() as u64);
            let t = tr.begin();
            block.write(&encoded);
            tr.end(t, id_write, parent, sample.key, encoded.len() as u64);
        }
        let encoded = block.finish();
        let t = tr.begin();
        let block = config.wire_codec.compress(&encoded);
        tr.end(t, id_compress, parent, 0, encoded.len() as u64);
        let frame = Frame::Batch2 {
            shard: shard_index as u32,
            count: chunk.len() as u32,
            codec: wire_codec_tag(config.wire_codec),
            span_id: 0,
            t_send: 0,
            block,
        };
        wire.clear();
        let t = tr.begin();
        let wire_bytes = write_frame(&mut wire, &frame).map_err(|e| e.to_string())?;
        tr.end(t, id_frame_write, parent, 0, wire_bytes);
        out.wire_bytes += wire_bytes;

        let t = tr.begin();
        let read = read_frame(&mut wire.as_slice()).map_err(|e| e.to_string())?;
        tr.end(t, id_frame_read, parent, 0, wire_bytes);
        let Some(Frame::Batch2 { codec, block, .. }) = read else {
            return Err("replayed BATCH frame did not read back".into());
        };
        let codec = wire_codec(codec).map_err(|e| e.to_string())?;
        let t = tr.begin();
        let framed = codec.decompress(&block).map_err(|e| e.to_string())?;
        tr.end(t, id_decompress, parent, 0, framed.len() as u64);
        let mut records = RecordReader::new(&framed);
        loop {
            let t = tr.begin();
            let Some(record) = records.next() else { break };
            let record = record.map_err(|e| e.to_string())?;
            tr.end(t, id_next, parent, 0, record.len() as u64);
            out.records += 1;
            let t = tr.begin();
            let sample = Sample::decode(record).map_err(|e| e.to_string())?;
            tr.end(t, id_decode, parent, sample.key, record.len() as u64);
            out.decodes += 1;
            received.push(sample);
        }
    }
    // The client folds each committed sample into its multiset
    // checksum before delivering it.
    for sample in &received {
        let t = tr.begin();
        out.checksum.add(sample);
        tr.end(t, id_checksum, parent, sample.key, sample.nbytes() as u64);
    }
    Ok(received)
}

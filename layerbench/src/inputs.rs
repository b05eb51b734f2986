//! Seeded benchmark inputs: `natural_image(96, 80, key)` JPEGs.
//!
//! A run's keys are the first `n` of a seeded shuffle of a fixed key
//! universe `0..UNIVERSE`, so each seed draws its own dataset (its own
//! images, in its own order and shard placement), and the same seed
//! always draws the same one.
//!
//! Encoding an image costs ~5 ms of CPU, so 4096 of them would take
//! longer than a measured run. The first run in a directory therefore
//! encodes the whole universe once and caches it in
//! `.layerbench/inputs/`; every later run, of any seed and workload,
//! reads its images from there. Generation and loading happen before
//! any clock starts and are reported on their own line, never inside a
//! metric.

use presto_datasets::generators;
use presto_formats::image::jpg;
use presto_pipeline::{Payload, Sample};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::io::Write;
use std::path::Path;

/// Source image size, as the repository's CV examples use.
const IMAGE_WIDTH: usize = 96;
const IMAGE_HEIGHT: usize = 80;
const JPEG_QUALITY: u8 = 85;
/// Image keys every seed draws from: twice the largest workload.
pub const UNIVERSE: usize = 8192;
const MAGIC: &[u8; 8] = b"LBINPUT2";
const CACHE_FILE: &str = "universe.bin";

/// SplitMix64 finalizer: spreads a small seed over all 64 bits.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `n` distinct keys of `seed`, in input order.
pub fn keys(seed: u64, n: usize) -> Vec<u64> {
    assert!(n <= UNIVERSE, "at most {UNIVERSE} inputs per run");
    let mut rng = SmallRng::seed_from_u64(mix(seed));
    let mut all: Vec<u64> = (0..UNIVERSE as u64).collect();
    for i in 0..n {
        let j = rng.gen_range(i..UNIVERSE);
        all.swap(i, j);
    }
    all.truncate(n);
    all
}

/// Encode the images of `keys` on `threads` threads, in order.
pub fn generate(keys: &[u64], threads: usize) -> Vec<Sample> {
    let chunk = keys.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = keys
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|&key| {
                            let image = generators::natural_image(IMAGE_WIDTH, IMAGE_HEIGHT, key);
                            Sample::from_bytes(key, jpg::encode(&image, JPEG_QUALITY))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread"))
            .collect()
    })
}

/// The inputs of `seed`: `n` samples drawn from the universe cached in
/// `dir`, which is generated (and cached) first if it is missing.
/// Returns the inputs and whether the universe came from the cache.
pub fn load(dir: &Path, seed: u64, n: usize, threads: usize) -> (Vec<Sample>, bool) {
    let path = dir.join(CACHE_FILE);
    let (universe, cached) = match read_cache(&path) {
        Some(universe) => (universe, true),
        None => {
            let all: Vec<u64> = (0..UNIVERSE as u64).collect();
            let universe = generate(&all, threads);
            // A failed cache write only costs the next run a regeneration.
            if let Err(e) = write_cache(&path, &universe) {
                eprintln!("layerbench: cannot cache inputs at {}: {e}", path.display());
            }
            (universe, false)
        }
    };
    let inputs = keys(seed, n)
        .into_iter()
        .map(|k| universe[k as usize].clone())
        .collect();
    (inputs, cached)
}

fn write_cache(path: &Path, universe: &[Sample]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    for sample in universe {
        let Payload::Bytes(bytes) = &sample.payload else {
            unreachable!("inputs are encoded JPEG bytes");
        };
        buf.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        buf.extend_from_slice(bytes);
    }
    // Write-then-rename so a concurrent or interrupted run never sees a
    // half-written cache file.
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    let mut file = fs::File::create(&tmp)?;
    file.write_all(&buf)?;
    file.sync_all()?;
    fs::rename(&tmp, path)
}

/// The cached universe, or `None` when the file is missing or malformed.
fn read_cache(path: &Path) -> Option<Vec<Sample>> {
    let data = fs::read(path).ok()?;
    let mut rest = data.strip_prefix(MAGIC)?;
    let mut universe = Vec::with_capacity(UNIVERSE);
    for key in 0..UNIVERSE as u64 {
        let (len, tail) = rest.split_first_chunk::<8>()?;
        let len = usize::try_from(u64::from_le_bytes(*len)).ok()?;
        if len > tail.len() {
            return None;
        }
        let (bytes, tail) = tail.split_at(len);
        universe.push(Sample::from_bytes(key, bytes.to_vec()));
        rest = tail;
    }
    rest.is_empty().then_some(universe)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_draw_distinct_repeatable_keys() {
        let a = keys(1, 4096);
        assert_eq!(a, keys(1, 4096));
        assert_eq!(keys(1, 1024), a[..1024]);
        assert_ne!(keys(2, 64), a[..64]);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len());
    }

    #[test]
    fn cache_round_trips_and_rejects_truncation() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.layerbench/test")
            .join(format!("inputs-{}", std::process::id()));
        let path = dir.join(CACHE_FILE);
        let universe: Vec<Sample> = (0..UNIVERSE as u64)
            .map(|k| Sample::from_bytes(k, k.to_le_bytes().to_vec()))
            .collect();
        write_cache(&path, &universe).expect("cache written");
        assert_eq!(read_cache(&path), Some(universe));
        let data = fs::read(&path).expect("cache file");
        fs::write(&path, &data[..data.len() - 1]).expect("truncate");
        assert_eq!(read_cache(&path), None);
        let _ = fs::remove_dir_all(&dir);
    }
}

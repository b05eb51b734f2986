//! Property tests: compression invariants over arbitrary inputs.

use presto_codecs::checksum::{Adler32, Crc32, Crc32c};
use presto_codecs::deflate::deflate;
use presto_codecs::inflate::inflate;
use presto_codecs::{Codec, Level};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// deflate ∘ inflate is the identity at every level.
    #[test]
    fn deflate_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..8192),
                         level in 0u8..=9) {
        let compressed = deflate(&data, Level(level));
        let decompressed = inflate(&compressed).unwrap();
        prop_assert_eq!(decompressed, data);
    }

    /// Highly structured inputs round-trip too (these exercise the
    /// match-heavy paths far more than uniform random bytes).
    #[test]
    fn deflate_roundtrip_structured(seed in any::<u16>(), reps in 1usize..200,
                                    level in 1u8..=9) {
        let unit: Vec<u8> = (0..16).map(|i| (seed >> (i % 16)) as u8).collect();
        let mut data = Vec::new();
        for _ in 0..reps {
            data.extend_from_slice(&unit);
        }
        let compressed = deflate(&data, Level(level));
        prop_assert_eq!(inflate(&compressed).unwrap(), data);
    }

    /// GZIP and ZLIB containers round-trip and verify checksums.
    #[test]
    fn container_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        for codec in [Codec::Gzip(Level::DEFAULT), Codec::Zlib(Level::FAST)] {
            let framed = codec.compress(&data);
            prop_assert_eq!(codec.decompress(&framed).unwrap(), data.clone());
        }
    }

    /// Decompressing arbitrary garbage must error, never panic.
    #[test]
    fn inflate_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = inflate(&data);
        let _ = Codec::Gzip(Level::DEFAULT).decompress(&data);
        let _ = Codec::Zlib(Level::DEFAULT).decompress(&data);
    }

    /// Checksums are deterministic and chunking-independent. Inputs
    /// reach past 3 × 4 KiB, where CRC-32C switches to three streams.
    #[test]
    fn checksums_chunking_independent(data in proptest::collection::vec(any::<u8>(), 0..13_000),
                                      split in 0usize..13_000) {
        let split = split.min(data.len());
        let (a, b) = data.split_at(split);
        let mut crc = Crc32::new();
        crc.update(a);
        crc.update(b);
        prop_assert_eq!(crc.finish(), Crc32::checksum(&data));
        let mut crc32c = Crc32c::new();
        crc32c.update(a);
        crc32c.update(b);
        prop_assert_eq!(crc32c.finish(), Crc32c::checksum(&data));
        let mut adler = Adler32::new();
        adler.update(a);
        adler.update(b);
        prop_assert_eq!(adler.finish(), Adler32::checksum(&data));
    }

    /// A single-bit flip in the gzip trailer (CRC-32 or ISIZE) is always
    /// detected. (Flips elsewhere may land in ignored header fields or
    /// bit-alignment padding, so only the trailer gives a strict
    /// guarantee.)
    #[test]
    fn gzip_trailer_bitflip_detected(data in proptest::collection::vec(any::<u8>(), 64..512),
                                     flip_byte in 0usize..8, flip_bit in 0u8..8) {
        let mut framed = Codec::Gzip(Level::DEFAULT).compress(&data);
        let idx = framed.len() - 8 + flip_byte;
        framed[idx] ^= 1 << flip_bit;
        prop_assert!(Codec::Gzip(Level::DEFAULT).decompress(&framed).is_err());
    }

    /// Any corruption of a gzip member never yields wrong bytes
    /// silently claiming to be the original: it either errors or decodes
    /// to the original (flip hit dead bits like padding).
    #[test]
    fn gzip_bitflip_never_wrong_silently(data in proptest::collection::vec(any::<u8>(), 64..512),
                                         flip_byte in 10usize..64, flip_bit in 0u8..8) {
        let mut framed = Codec::Gzip(Level::DEFAULT).compress(&data);
        let idx = flip_byte % framed.len();
        if (4..10).contains(&idx) {
            return Ok(()); // ignored header fields
        }
        framed[idx] ^= 1 << flip_bit;
        if let Ok(out) = Codec::Gzip(Level::DEFAULT).decompress(&framed) {
            // The CRC-32 trailer catches any payload change, so a
            // successful decode must reproduce the original bytes.
            prop_assert_eq!(out, data);
        }
    }
}

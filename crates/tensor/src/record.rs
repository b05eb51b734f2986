//! `RecordBundle`: a TFRecord framed record stream.
//!
//! Layout per record (all integers little-endian):
//!
//! ```text
//! [len: u64][masked_crc32c(len): u32][payload: len bytes][masked_crc32c(payload): u32]
//! ```
//!
//! This is TFRecord's byte format: both checksums are CRC-32C, masked
//! as TFRecord masks them, so a stream written here reads as a TFRecord
//! file and vice versa. The paper concatenates datasets into such
//! streams to convert random file access into sequential reads (its
//! "concatenated" strategy), and the fixed per-record decode overhead
//! is the same as TFRecord's.
//!
//! Shard files and the serve wire protocol's frames share this framing;
//! [`encode_header`], [`decode_header`] and [`check_payload`] let code
//! that reads frames from a socket verify them without naming the CRC.

use presto_codecs::checksum::Crc32c;
use std::fmt;

/// Bytes of the `[len][len_crc]` header in front of every payload.
pub const HEADER_LEN: usize = 8 + 4;

/// Framing overhead added to every record, in bytes.
pub const RECORD_OVERHEAD: usize = HEADER_LEN + 4;

/// TFRecord's masked CRC-32C, `((c >> 15) | (c << 17)) + 0xA282EAD8`.
/// Rotating and offsetting the CRC keeps a stream that embeds its own
/// CRCs (a record of records) from checking trivially.
fn masked_crc(data: &[u8]) -> u32 {
    Crc32c::checksum(data)
        .rotate_right(15)
        .wrapping_add(0xA282_EAD8)
}

/// The header that frames a `len`-byte payload.
pub fn encode_header(len: u64) -> [u8; HEADER_LEN] {
    let len_bytes = len.to_le_bytes();
    let mut header = [0u8; HEADER_LEN];
    header[..8].copy_from_slice(&len_bytes);
    header[8..].copy_from_slice(&masked_crc(&len_bytes).to_le_bytes());
    header
}

/// The payload length `header` declares, when its CRC holds.
pub fn decode_header(header: &[u8; HEADER_LEN]) -> Result<u64, RecordError> {
    let (len_bytes, crc) = header.split_at(8);
    if masked_crc(len_bytes).to_le_bytes() != crc {
        return Err(RecordError::BadLengthCrc);
    }
    Ok(u64::from_le_bytes(
        len_bytes.try_into().expect("8-byte length"),
    ))
}

/// Check `payload` against the 4-byte CRC that follows it on the wire.
pub fn check_payload(payload: &[u8], crc: [u8; 4]) -> Result<(), RecordError> {
    if masked_crc(payload).to_le_bytes() != crc {
        return Err(RecordError::BadPayloadCrc);
    }
    Ok(())
}

/// Errors from reading a record stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// Stream ended mid-record.
    UnexpectedEof,
    /// The length header failed its CRC.
    BadLengthCrc,
    /// The payload failed its CRC.
    BadPayloadCrc,
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::UnexpectedEof => write!(f, "record stream truncated"),
            RecordError::BadLengthCrc => write!(f, "record length CRC mismatch"),
            RecordError::BadPayloadCrc => write!(f, "record payload CRC mismatch"),
        }
    }
}

impl std::error::Error for RecordError {}

/// Appends framed records to a byte buffer.
#[derive(Debug, Default)]
pub struct RecordWriter {
    buf: Vec<u8>,
    records: usize,
}

impl RecordWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-allocate for an expected total size.
    pub fn with_capacity(bytes: usize) -> Self {
        RecordWriter {
            buf: Vec::with_capacity(bytes),
            records: 0,
        }
    }

    /// Reuse an existing allocation (cleared first) instead of
    /// growing a fresh one — the buffer-pool path for hot encode
    /// loops.
    pub fn with_buffer(mut buf: Vec<u8>) -> Self {
        buf.clear();
        RecordWriter { buf, records: 0 }
    }

    /// Append one record.
    pub fn write(&mut self, payload: &[u8]) {
        self.buf
            .extend_from_slice(&encode_header(payload.len() as u64));
        self.buf.extend_from_slice(payload);
        self.buf
            .extend_from_slice(&masked_crc(payload).to_le_bytes());
        self.records += 1;
    }

    /// Number of records written.
    pub fn record_count(&self) -> usize {
        self.records
    }

    /// Total bytes including framing.
    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }

    /// Consume the writer, returning the framed stream.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Iterates over the records of a framed stream, verifying CRCs.
#[derive(Debug)]
pub struct RecordReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> RecordReader<'a> {
    /// Wrap a framed stream.
    pub fn new(data: &'a [u8]) -> Self {
        RecordReader { data, pos: 0 }
    }

    /// Read the next record, or `None` at a clean end of stream.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Result<&'a [u8], RecordError>> {
        if self.pos == self.data.len() {
            return None;
        }
        Some(self.read_one())
    }

    fn read_one(&mut self) -> Result<&'a [u8], RecordError> {
        let remaining = &self.data[self.pos..];
        let header = remaining
            .first_chunk::<HEADER_LEN>()
            .ok_or(RecordError::UnexpectedEof)?;
        let len = decode_header(header)?;
        let record = usize::try_from(len)
            .ok()
            .and_then(|len| remaining.get(HEADER_LEN..)?.get(..len.checked_add(4)?))
            .ok_or(RecordError::UnexpectedEof)?;
        let (payload, crc) = record.split_at(record.len() - 4);
        check_payload(payload, crc.try_into().expect("4-byte CRC"))?;
        self.pos += HEADER_LEN + record.len();
        Ok(payload)
    }

    /// Resynchronize after an error from [`RecordReader::next`]: skip
    /// the corrupt record and position the reader at the next intact
    /// frame boundary. Returns the number of bytes discarded.
    ///
    /// When the length header is intact (payload CRC failure) the frame
    /// boundary is still trustworthy, so exactly one record is skipped.
    /// When the header itself is damaged, the reader scans forward for
    /// the next offset that parses as a valid, in-bounds length header.
    /// Reaching the end of the stream discards the remaining bytes.
    pub fn resync(&mut self) -> usize {
        let start = self.pos;
        if let Some(len) = self.intact_header_at(self.pos) {
            self.pos += RECORD_OVERHEAD + len;
            return self.pos - start;
        }
        let mut pos = self.pos + 1;
        while pos < self.data.len() {
            if self.intact_header_at(pos).is_some() {
                self.pos = pos;
                return pos - start;
            }
            pos += 1;
        }
        self.pos = self.data.len();
        self.data.len() - start
    }

    /// The record length at `pos`, when a CRC-valid length header
    /// starts there and declares a record that fits in the stream.
    fn intact_header_at(&self, pos: usize) -> Option<usize> {
        let remaining = self.data.get(pos..)?;
        let len = usize::try_from(decode_header(remaining.first_chunk()?).ok()?).ok()?;
        let room = remaining.len().checked_sub(RECORD_OVERHEAD)?;
        (len <= room).then_some(len)
    }

    /// Collect all remaining records.
    pub fn read_all(&mut self) -> Result<Vec<&'a [u8]>, RecordError> {
        let mut out = Vec::new();
        while let Some(record) = self.next() {
            out.push(record?);
        }
        Ok(out)
    }
}

impl<'a> Iterator for RecordReader<'a> {
    type Item = Result<&'a [u8], RecordError>;

    fn next(&mut self) -> Option<Self::Item> {
        RecordReader::next(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_multiple_records() {
        let mut writer = RecordWriter::new();
        let payloads: Vec<Vec<u8>> = vec![vec![], vec![1], vec![2; 100], (0..255).collect()];
        for p in &payloads {
            writer.write(p);
        }
        assert_eq!(writer.record_count(), 4);
        let stream = writer.finish();
        let mut reader = RecordReader::new(&stream);
        let records = reader.read_all().unwrap();
        assert_eq!(records.len(), payloads.len());
        for (got, want) in records.iter().zip(&payloads) {
            assert_eq!(got, &want.as_slice());
        }
    }

    #[test]
    fn single_record_matches_tfrecord_bytes() {
        // Raw CRC-32C of the length bytes and of "abc", then masked.
        assert_eq!(Crc32c::checksum(&3u64.to_le_bytes()), 0x576C_35E3);
        assert_eq!(Crc32c::checksum(b"abc"), 0x364B_3FB7);
        let mut writer = RecordWriter::new();
        writer.write(b"abc");
        let mut want = vec![3, 0, 0, 0, 0, 0, 0, 0];
        want.extend_from_slice(&0x0E49_99B0u32.to_le_bytes());
        want.extend_from_slice(b"abc");
        want.extend_from_slice(&0x21F1_576Eu32.to_le_bytes());
        assert_eq!(want.len(), 19);
        assert_eq!(writer.finish(), want);
    }

    #[test]
    fn overhead_constant_matches_layout() {
        let mut writer = RecordWriter::new();
        writer.write(&[0u8; 10]);
        assert_eq!(writer.byte_len(), 10 + RECORD_OVERHEAD);
    }

    #[test]
    fn empty_stream_yields_nothing() {
        let mut reader = RecordReader::new(&[]);
        assert!(reader.next().is_none());
    }

    #[test]
    fn corrupt_length_crc_detected() {
        let mut writer = RecordWriter::new();
        writer.write(b"payload");
        let mut stream = writer.finish();
        stream[9] ^= 0xFF; // inside the length CRC
        let mut reader = RecordReader::new(&stream);
        assert_eq!(reader.next().unwrap(), Err(RecordError::BadLengthCrc));
    }

    #[test]
    fn corrupt_payload_detected() {
        let mut writer = RecordWriter::new();
        writer.write(b"payload");
        let mut stream = writer.finish();
        stream[12] ^= 0xFF; // first payload byte
        let mut reader = RecordReader::new(&stream);
        assert_eq!(reader.next().unwrap(), Err(RecordError::BadPayloadCrc));
    }

    #[test]
    fn truncation_detected() {
        let mut writer = RecordWriter::new();
        writer.write(&[7u8; 64]);
        let stream = writer.finish();
        for cut in 1..stream.len() {
            let mut reader = RecordReader::new(&stream[..cut]);
            let result = reader.next().unwrap();
            assert!(result.is_err(), "cut at {cut} should fail");
        }
    }

    /// A stream of n records with payloads [0], [1], ...
    fn stream(n: u8) -> Vec<u8> {
        let mut writer = RecordWriter::new();
        for i in 0..n {
            writer.write(&[i; 24]);
        }
        writer.finish()
    }

    #[test]
    fn resync_after_payload_corruption_skips_exactly_one_record() {
        let mut data = stream(5);
        let record_size = 24 + RECORD_OVERHEAD;
        data[2 * record_size + 15] ^= 0x10; // payload of record 2
        let mut reader = RecordReader::new(&data);
        let mut recovered = Vec::new();
        let mut skipped = 0;
        while let Some(record) = reader.next() {
            match record {
                Ok(payload) => recovered.push(payload[0]),
                Err(RecordError::BadPayloadCrc) => {
                    assert_eq!(reader.resync(), record_size);
                    skipped += 1;
                }
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(skipped, 1);
        assert_eq!(recovered, vec![0, 1, 3, 4]);
    }

    #[test]
    fn resync_after_header_corruption_scans_to_next_record() {
        let mut data = stream(5);
        let record_size = 24 + RECORD_OVERHEAD;
        data[record_size + 3] ^= 0xFF; // length field of record 1
        let mut reader = RecordReader::new(&data);
        let mut recovered = Vec::new();
        let mut skipped = 0;
        while let Some(record) = reader.next() {
            match record {
                Ok(payload) => recovered.push(payload[0]),
                Err(RecordError::BadLengthCrc) => {
                    assert_eq!(reader.resync(), record_size);
                    skipped += 1;
                }
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(skipped, 1);
        assert_eq!(recovered, vec![0, 2, 3, 4]);
    }

    #[test]
    fn resync_on_truncated_tail_consumes_the_rest() {
        let data = stream(3);
        let cut = data.len() - 5;
        let mut reader = RecordReader::new(&data[..cut]);
        assert!(reader.next().unwrap().is_ok());
        assert!(reader.next().unwrap().is_ok());
        assert_eq!(reader.next().unwrap(), Err(RecordError::UnexpectedEof));
        let discarded = reader.resync();
        assert!(discarded > 0);
        assert!(reader.next().is_none(), "reader must reach a clean end");
    }

    #[test]
    fn resync_any_single_bit_flip_loses_at_most_one_record() {
        // Robustness sweep: flip every bit position in a 4-record
        // stream; recovery must always retain ≥ 3 records.
        let data = stream(4);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                let mut reader = RecordReader::new(&corrupted);
                let mut ok = 0;
                while let Some(record) = reader.next() {
                    match record {
                        Ok(_) => ok += 1,
                        Err(_) => {
                            reader.resync();
                        }
                    }
                }
                assert!(ok >= 3, "flip at byte {byte} bit {bit} lost too much: {ok}");
            }
        }
    }

    #[test]
    fn iterator_interface() {
        let mut writer = RecordWriter::new();
        for i in 0..10u8 {
            writer.write(&[i]);
        }
        let stream = writer.finish();
        let sum: u32 = RecordReader::new(&stream)
            .map(|r| u32::from(r.unwrap()[0]))
            .sum();
        assert_eq!(sum, 45);
    }
}

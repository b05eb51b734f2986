//! Checksums: CRC-32 (IEEE 802.3, the GZIP trailer), CRC-32C
//! (Castagnoli, the checksum of TFRecord-style record framing) and
//! Adler-32 (the ZLIB trailer).
//!
//! [`Crc32c`] runs on the SSE4.2 `crc32` instruction when the CPU has it
//! (chosen at run time) and on a slicing-by-8 table otherwise; both give
//! identical results, which the tests below check.

/// Reflected IEEE 802.3 polynomial.
const IEEE_POLY: u32 = 0xEDB8_8320;
/// Reflected Castagnoli polynomial (the one SSE4.2 `crc32` computes).
const CASTAGNOLI_POLY: u32 = 0x82F6_3B78;

/// Slicing-by-8 table set for a reflected polynomial: `tables[0]` is the
/// classic Sarwate table, `tables[k][n]` advances the CRC of byte `n` by
/// `k` further zero bytes, letting [`slice8_update`] fold 8 input bytes
/// per iteration instead of one.
const fn crc_tables(poly: u32) -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { poly ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][n] = c;
        n += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut n = 0;
        while n < 256 {
            let prev = tables[k - 1][n];
            tables[k][n] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            n += 1;
        }
        k += 1;
    }
    tables
}

static IEEE_TABLES: [[u32; 256]; 8] = crc_tables(IEEE_POLY);
static CASTAGNOLI_TABLES: [[u32; 256]; 8] = crc_tables(CASTAGNOLI_POLY);

/// Advance the (pre-inverted) CRC register `c` over `data`.
fn slice8_update(t: &[[u32; 256]; 8], mut c: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        c ^= u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        c = t[7][(c & 0xFF) as usize]
            ^ t[6][((c >> 8) & 0xFF) as usize]
            ^ t[5][((c >> 16) & 0xFF) as usize]
            ^ t[4][(c >> 24) as usize]
            ^ t[3][chunk[4] as usize]
            ^ t[2][chunk[5] as usize]
            ^ t[1][chunk[6] as usize]
            ^ t[0][chunk[7] as usize];
    }
    for &byte in chunks.remainder() {
        c = t[0][((c ^ byte as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 with the reflected IEEE polynomial `0xEDB88320`, as GZIP
/// stores it.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Start a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feed bytes into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        self.state = slice8_update(&IEEE_TABLES, self.state, data);
    }

    /// Final checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }

    /// One-shot convenience.
    pub fn checksum(data: &[u8]) -> u32 {
        let mut crc = Crc32::new();
        crc.update(data);
        crc.finish()
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// CRC-32C with the reflected Castagnoli polynomial `0x82F63B78`
/// (RFC 3720 §B.4), the checksum TFRecord frames records with.
#[derive(Debug, Clone)]
pub struct Crc32c {
    state: u32,
}

impl Crc32c {
    /// Start a fresh checksum.
    pub fn new() -> Self {
        Crc32c { state: 0xFFFF_FFFF }
    }

    /// Feed bytes into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        self.state = crc32c_update(self.state, data);
    }

    /// Final checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }

    /// One-shot convenience.
    pub fn checksum(data: &[u8]) -> u32 {
        let mut crc = Crc32c::new();
        crc.update(data);
        crc.finish()
    }
}

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

/// Advance the CRC-32C register `c` over `data` with the fastest kernel
/// this CPU supports.
fn crc32c_update(c: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("sse4.2") {
        if data.len() >= x86::BLOCK && is_x86_feature_detected!("pclmulqdq") {
            // SAFETY: `sse4.2` and `pclmulqdq`, the two features the
            // kernel enables, were both detected on this CPU just above.
            return unsafe { x86::update_three_lanes(c, data) };
        }
        // SAFETY: `sse4.2`, the one feature the kernel enables, was
        // detected on this CPU just above.
        return unsafe { x86::update_one_lane(c, data) };
    }
    slice8_update(&CASTAGNOLI_TABLES, c, data)
}

/// SSE4.2 kernels. The `crc32` instruction has a latency of three cycles
/// but starts one per cycle, so long inputs run three independent
/// streams over adjacent 4 KiB lanes and merge them afterwards.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        _mm_clmulepi64_si128, _mm_crc32_u64, _mm_crc32_u8, _mm_cvtsi128_si64, _mm_cvtsi64_si128,
    };

    /// Bytes each of the three streams covers per block.
    const LANE: usize = 4096;
    /// Shortest input the three-stream kernel takes.
    pub(super) const BLOCK: usize = 3 * LANE;

    /// `x^(8·LANE − 33) mod P`. A carry-less product of two reflected
    /// 32-bit values carries one extra factor `x`, and `crc32(0, w)` one
    /// of `x^32`, so [`shift_lane`] multiplies by `x^(8·LANE)` in all:
    /// it advances a register over one lane of zero bytes.
    const LANE_SHIFT: u32 = x_pow_mod(8 * LANE as u32 - 33);

    /// `x^n mod P` for the reflected Castagnoli polynomial, in the reflected
    /// bit order of a CRC register (bit 31 holds `x^0`).
    const fn x_pow_mod(n: u32) -> u32 {
        let mut v = 0x8000_0000u32;
        let mut i = 0;
        while i < n {
            v = if v & 1 != 0 {
                (v >> 1) ^ super::CASTAGNOLI_POLY
            } else {
                v >> 1
            };
            i += 1;
        }
        v
    }

    fn word(bytes: &[u8]) -> u64 {
        u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"))
    }

    /// Advance the CRC-32C register `c` over `data`, one `crc32` stream.
    ///
    /// # Safety
    /// The CPU must support `sse4.2`.
    #[target_feature(enable = "sse4.2")]
    pub(super) unsafe fn update_one_lane(c: u32, data: &[u8]) -> u32 {
        let mut words = data.chunks_exact(8);
        let mut c = u64::from(c);
        for w in &mut words {
            c = _mm_crc32_u64(c, word(w));
        }
        let mut c = c as u32;
        for &byte in words.remainder() {
            c = _mm_crc32_u8(c, byte);
        }
        c
    }

    /// Advance the CRC-32C register `c` over `data`, three `crc32`
    /// streams per `BLOCK`.
    ///
    /// # Safety
    /// The CPU must support `sse4.2` and `pclmulqdq`.
    #[target_feature(enable = "sse4.2,pclmulqdq")]
    pub(super) unsafe fn update_three_lanes(c: u32, data: &[u8]) -> u32 {
        let mut blocks = data.chunks_exact(BLOCK);
        let mut c = c;
        for block in &mut blocks {
            let (a, rest) = block.split_at(LANE);
            let (b, z) = rest.split_at(LANE);
            let (mut ca, mut cb, mut cz) = (u64::from(c), 0u64, 0u64);
            for ((wa, wb), wz) in a
                .chunks_exact(8)
                .zip(b.chunks_exact(8))
                .zip(z.chunks_exact(8))
            {
                ca = _mm_crc32_u64(ca, word(wa));
                cb = _mm_crc32_u64(cb, word(wb));
                cz = _mm_crc32_u64(cz, word(wz));
            }
            // CRC is linear: the register over `a ‖ b` is `ca` advanced
            // over `b`'s length of zeros, XOR the register over `b` from 0.
            // SAFETY: `shift_lane` needs `sse4.2` and `pclmulqdq`, which
            // our caller detected (`crc32c_update`'s feature check).
            c = shift_lane(ca as u32) ^ cb as u32;
            // SAFETY: as above.
            c = shift_lane(c) ^ cz as u32;
        }
        // SAFETY: `update_one_lane` needs `sse4.2`, which our caller
        // detected (`crc32c_update`'s feature check).
        update_one_lane(c, blocks.remainder())
    }

    /// `c · x^(8·LANE) mod P`: the register `c` advanced over `LANE`
    /// zero bytes, by one carry-less multiply and one `crc32` reduction.
    ///
    /// # Safety
    /// The CPU must support `sse4.2` and `pclmulqdq`.
    #[target_feature(enable = "sse4.2,pclmulqdq")]
    unsafe fn shift_lane(c: u32) -> u32 {
        let product = _mm_clmulepi64_si128(
            _mm_cvtsi64_si128(i64::from(c)),
            _mm_cvtsi64_si128(i64::from(LANE_SHIFT)),
            0x00,
        );
        _mm_crc32_u64(0, _mm_cvtsi128_si64(product) as u64) as u32
    }
}

/// Adler-32 running checksum (RFC 1950 §8.2).
#[derive(Debug, Clone)]
pub struct Adler32 {
    a: u32,
    b: u32,
}

const ADLER_MOD: u32 = 65_521;
/// Largest n such that 255*n*(n+1)/2 + (n+1)*(MOD-1) fits in u32.
const ADLER_NMAX: usize = 5552;

impl Adler32 {
    /// Start a fresh checksum.
    pub fn new() -> Self {
        Adler32 { a: 1, b: 0 }
    }

    /// Feed bytes into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        for chunk in data.chunks(ADLER_NMAX) {
            for &byte in chunk {
                self.a += byte as u32;
                self.b += self.a;
            }
            self.a %= ADLER_MOD;
            self.b %= ADLER_MOD;
        }
    }

    /// Final checksum value.
    pub fn finish(&self) -> u32 {
        (self.b << 16) | self.a
    }

    /// One-shot convenience.
    pub fn checksum(data: &[u8]) -> u32 {
        let mut adler = Adler32::new();
        adler.update(data);
        adler.finish()
    }
}

impl Default for Adler32 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Reference vectors computed with zlib's crc32()/adler32().
    #[test]
    fn crc32_known_vectors() {
        assert_eq!(Crc32::checksum(b""), 0x0000_0000);
        assert_eq!(Crc32::checksum(b"a"), 0xE8B7_BE43);
        assert_eq!(Crc32::checksum(b"abc"), 0x3524_41C2);
        assert_eq!(Crc32::checksum(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            Crc32::checksum(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// CRC-32C over `data` on the portable table path alone.
    fn crc32c_table(data: &[u8]) -> u32 {
        slice8_update(&CASTAGNOLI_TABLES, 0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    // RFC 3720 §B.4 test vectors, plus the common check value.
    #[test]
    fn crc32c_known_vectors() {
        let ascending: Vec<u8> = (0x00..=0x1F).collect();
        let descending: Vec<u8> = (0x00..=0x1F).rev().collect();
        let vectors: [(&[u8], u32); 5] = [
            (&[0x00; 32], 0x8A91_36AA),
            (&[0xFF; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
            (&descending, 0x113F_DB5C),
            (b"123456789", 0xE306_9283),
        ];
        for (data, want) in vectors {
            assert_eq!(Crc32c::checksum(data), want, "dispatched, {data:02x?}");
            assert_eq!(crc32c_table(data), want, "table, {data:02x?}");
        }
    }

    #[test]
    fn crc32c_dispatched_matches_table() {
        // Every length across the single- and three-stream kernels, at
        // every alignment, one-shot and in random incremental splits.
        const MAX: usize = 3 * 4096 + 64;
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let buf: Vec<u8> = (0..MAX + 8).map(|_| next() as u8).collect();
        for offset in 0..8 {
            let data = &buf[offset..offset + MAX];
            // CRCs of every prefix, one table step per byte.
            let mut reference = Vec::with_capacity(MAX + 1);
            let mut c = 0xFFFF_FFFF;
            reference.push(c ^ 0xFFFF_FFFF);
            for byte in data {
                c = slice8_update(&CASTAGNOLI_TABLES, c, std::slice::from_ref(byte));
                reference.push(c ^ 0xFFFF_FFFF);
            }
            for (len, &want) in reference.iter().enumerate() {
                let prefix = &data[..len];
                assert_eq!(Crc32c::checksum(prefix), want, "len {len} offset {offset}");
                assert_eq!(
                    crc32c_table(prefix),
                    want,
                    "table, len {len} offset {offset}"
                );
                if len % 8 == offset {
                    let mut crc = Crc32c::new();
                    let mut rest = prefix;
                    while !rest.is_empty() {
                        let split = next() as usize % (rest.len() + 1);
                        let (head, tail) = rest.split_at(split);
                        crc.update(head);
                        rest = tail;
                    }
                    assert_eq!(crc.finish(), want, "split, len {len} offset {offset}");
                }
            }
        }
        // Several three-stream blocks in a row, where each block's merged
        // register seeds the next; 40 000 B is about one centered record.
        let long: Vec<u8> = (0..40_000 + 8).map(|_| next() as u8).collect();
        for len in [2 * 3 * 4096, 3 * 3 * 4096 + 7, 40_000] {
            for offset in 0..8 {
                let data = &long[offset..offset + len];
                let want = crc32c_table(data);
                assert_eq!(Crc32c::checksum(data), want, "len {len} offset {offset}");
                let (head, tail) = data.split_at(next() as usize % (len + 1));
                let mut crc = Crc32c::new();
                crc.update(head);
                crc.update(tail);
                assert_eq!(crc.finish(), want, "split, len {len} offset {offset}");
            }
        }
    }

    #[test]
    fn adler32_known_vectors() {
        assert_eq!(Adler32::checksum(b""), 0x0000_0001);
        assert_eq!(Adler32::checksum(b"a"), 0x0062_0062);
        assert_eq!(Adler32::checksum(b"abc"), 0x024d_0127);
        assert_eq!(Adler32::checksum(b"Wikipedia"), 0x11E6_0398);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i * 7 + 13) as u8).collect();
        let mut crc = Crc32::new();
        let mut crc32c = Crc32c::new();
        let mut adler = Adler32::new();
        for chunk in data.chunks(97) {
            crc.update(chunk);
            crc32c.update(chunk);
            adler.update(chunk);
        }
        assert_eq!(crc.finish(), Crc32::checksum(&data));
        assert_eq!(crc32c.finish(), Crc32c::checksum(&data));
        assert_eq!(adler.finish(), Adler32::checksum(&data));
    }

    #[test]
    fn adler32_long_input_does_not_overflow() {
        let data = vec![0xFFu8; 1 << 20];
        // Must not panic in debug (overflow checks) and must be stable.
        let c1 = Adler32::checksum(&data);
        let c2 = Adler32::checksum(&data);
        assert_eq!(c1, c2);
    }
}

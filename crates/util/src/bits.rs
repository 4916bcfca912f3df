//! Bit-level serialization: the substrate under the `mknn_net` wire format.
//!
//! [`BitWriter`] packs values LSB-first into a byte buffer at arbitrary bit
//! widths; [`BitReader`] mirrors it exactly. Variable-length integers use
//! LEB128-style 7-bit groups (so a small id costs one byte, a huge tick ten),
//! and signed values ride varints through the zigzag mapping. A layout is
//! written once against [`BitSink`]: driven into a [`BitWriter`] it produces
//! the bytes, driven into a [`BitCount`] it produces their exact length
//! without a buffer. Everything here is deterministic and allocation-light:
//! one `Vec<u8>` per writer, nothing per value.

/// Maps a signed value onto an unsigned one so small magnitudes of either
/// sign encode as short varints: `0, -1, 1, -2, 2, …` → `0, 1, 2, 3, 4, …`.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// Encoded size, in bits, of `v` as a LEB128-style varint: one 8-bit group
/// per started 7 bits of payload (zero still needs one group).
#[inline]
pub fn varint_bits(v: u64) -> usize {
    let payload = 64 - (v | 1).leading_zeros() as usize;
    8 * payload.div_ceil(7)
}

/// Encoded size, in bits, of `v` as a zigzag-mapped varint.
#[inline]
pub fn signed_bits(v: i64) -> usize {
    varint_bits(zigzag(v))
}

/// Where a bit layout is written. The method names mirror [`BitWriter`]'s
/// inherent API, so a layout generic over the sink reads like a plain
/// encoder; [`BitCount`] implements the same calls as pure arithmetic.
pub trait BitSink {
    /// Appends the low `n` bits of `value` (`n` ≤ 64, `value` canonical).
    fn write_bits(&mut self, value: u64, n: u32);
    /// Appends `v` as a LEB128-style varint ([`varint_bits`]`(v)` bits).
    fn write_varint(&mut self, v: u64);
    /// Appends `n` zero bits of modeled payload.
    fn write_zero_bits(&mut self, n: usize);
    /// Appends one bit.
    #[inline]
    fn write_bool(&mut self, b: bool) {
        self.write_bits(b as u64, 1);
    }
    /// Appends `v` as a zigzag-mapped varint ([`signed_bits`]`(v)` bits).
    #[inline]
    fn write_signed(&mut self, v: i64) {
        self.write_varint(zigzag(v));
    }
}

/// The sink that only measures: the bit length a [`BitWriter`] would reach
/// given the same calls.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BitCount(pub usize);

impl BitSink for BitCount {
    #[inline]
    fn write_bits(&mut self, _value: u64, n: u32) {
        self.0 += n as usize;
    }
    #[inline]
    fn write_varint(&mut self, v: u64) {
        self.0 += varint_bits(v);
    }
    #[inline]
    fn write_zero_bits(&mut self, n: usize) {
        self.0 += n;
    }
}

// `BitWriter::f` names the inherent method (inherent items win path
// resolution over trait items), so these forward rather than recurse.
impl BitSink for BitWriter {
    #[inline]
    fn write_bits(&mut self, value: u64, n: u32) {
        BitWriter::write_bits(self, value, n);
    }
    #[inline]
    fn write_varint(&mut self, v: u64) {
        BitWriter::write_varint(self, v);
    }
    #[inline]
    fn write_zero_bits(&mut self, n: usize) {
        BitWriter::write_zero_bits(self, n);
    }
}

/// Packs values LSB-first into a growable byte buffer.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    buf: Vec<u8>,
    bit_len: usize,
}

impl BitWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written so far.
    #[inline]
    pub fn bit_len(&self) -> usize {
        self.bit_len
    }

    /// The buffer written so far; the final partial byte (if any) is
    /// zero-padded in its unused high bits.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning the packed bytes and the exact bit
    /// length (`bytes.len() * 8 - bit_len < 8`).
    pub fn finish(self) -> (Vec<u8>, usize) {
        (self.buf, self.bit_len)
    }

    /// Appends the low `n` bits of `value` (LSB-first). `n` must be ≤ 64 and
    /// `value` must be canonical (no set bits above `n`).
    pub fn write_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= 64, "bit width {n} > 64");
        debug_assert!(
            n == 64 || value >> n == 0,
            "value {value:#x} does not fit in {n} bits"
        );
        let mut v = value;
        let mut left = n;
        while left > 0 {
            let byte = self.bit_len / 8;
            if byte == self.buf.len() {
                self.buf.push(0);
            }
            let off = (self.bit_len % 8) as u32;
            let take = (8 - off).min(left);
            let mask = (1u64 << take) - 1; // take ≤ 8, never overflows
            self.buf[byte] |= ((v & mask) as u8) << off;
            v >>= take;
            self.bit_len += take as usize;
            left -= take;
        }
    }

    /// Appends one bit.
    #[inline]
    pub fn write_bool(&mut self, b: bool) {
        self.write_bits(b as u64, 1);
    }

    /// Appends `v` as a LEB128-style varint (7 payload bits + continuation
    /// bit per group), costing exactly [`varint_bits`]`(v)` bits.
    pub fn write_varint(&mut self, mut v: u64) {
        loop {
            let group = v & 0x7f;
            v >>= 7;
            let more = v != 0;
            self.write_bits(group | ((more as u64) << 7), 8);
            if !more {
                break;
            }
        }
    }

    /// Appends `v` as a zigzag-mapped varint, costing exactly
    /// [`signed_bits`]`(v)` bits.
    #[inline]
    pub fn write_signed(&mut self, v: i64) {
        self.write_varint(zigzag(v));
    }

    /// Appends `n` zero bits (modeled payload whose content the simulation
    /// does not carry, e.g. tunneled opaque bytes).
    pub fn write_zero_bits(&mut self, mut n: usize) {
        while n > 0 {
            let take = n.min(64) as u32;
            self.write_bits(0, take);
            n -= take as usize;
        }
    }
}

/// Reads values LSB-first from a byte buffer written by [`BitWriter`].
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// A reader over `buf`, starting at bit 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Number of bits consumed so far.
    #[inline]
    pub fn bits_read(&self) -> usize {
        self.pos
    }

    /// Bits left to read. `pos` never passes the end, so this cannot
    /// underflow — and comparing a requested length against it cannot
    /// overflow, however large a hostile length prefix is.
    #[inline]
    fn remaining(&self) -> usize {
        self.buf.len() * 8 - self.pos
    }

    /// Reads `n` bits (LSB-first). `None` once the buffer is exhausted.
    pub fn read_bits(&mut self, n: u32) -> Option<u64> {
        debug_assert!(n <= 64, "bit width {n} > 64");
        if n as usize > self.remaining() {
            return None;
        }
        let mut v = 0u64;
        let mut got = 0u32;
        while got < n {
            let byte = self.pos / 8;
            let off = (self.pos % 8) as u32;
            let take = (8 - off).min(n - got);
            let mask = (1u64 << take) - 1;
            let bits = (self.buf[byte] as u64 >> off) & mask;
            v |= bits << got;
            got += take;
            self.pos += take as usize;
        }
        Some(v)
    }

    /// Reads one bit.
    #[inline]
    pub fn read_bool(&mut self) -> Option<bool> {
        self.read_bits(1).map(|b| b != 0)
    }

    /// Reads a varint written by [`BitWriter::write_varint`]. `None` on a
    /// truncated buffer or an over-long encoding (more than ten groups, or
    /// a tenth group carrying payload above bit 63).
    pub fn read_varint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        for group in 0..10 {
            let byte = self.read_bits(8)?;
            if group == 9 && byte & 0x7e != 0 {
                return None;
            }
            v |= (byte & 0x7f) << (7 * group);
            if byte & 0x80 == 0 {
                return Some(v);
            }
        }
        None
    }

    /// Reads a zigzag-mapped varint written by [`BitWriter::write_signed`].
    #[inline]
    pub fn read_signed(&mut self) -> Option<i64> {
        self.read_varint().map(unzigzag)
    }

    /// Skips `n` bits of modeled payload. `None` if fewer remain.
    pub fn skip_bits(&mut self, n: usize) -> Option<()> {
        if n > self.remaining() {
            return None;
        }
        self.pos += n;
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::forall;
    use crate::rng::Rng;

    #[test]
    fn zigzag_round_trips_and_orders_small_magnitudes_first() {
        for v in [0i64, -1, 1, -2, 2, i64::MIN, i64::MAX, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert!(zigzag(3) < zigzag(-100));
    }

    #[test]
    fn varint_bits_matches_group_count() {
        assert_eq!(varint_bits(0), 8);
        assert_eq!(varint_bits(127), 8);
        assert_eq!(varint_bits(128), 16);
        assert_eq!(varint_bits((1 << 14) - 1), 16);
        assert_eq!(varint_bits(1 << 14), 24);
        assert_eq!(varint_bits(u64::MAX), 80);
    }

    #[test]
    fn bit_round_trip_fixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bool(true);
        w.write_bits(0xdead_beef, 32);
        w.write_bits(u64::MAX, 64);
        w.write_bits(0, 5);
        let bits = w.bit_len();
        assert_eq!(bits, 3 + 1 + 32 + 64 + 5);
        let (bytes, len) = w.finish();
        assert_eq!(len, bits);
        assert_eq!(bytes.len(), bits.div_ceil(8));
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3), Some(0b101));
        assert_eq!(r.read_bool(), Some(true));
        assert_eq!(r.read_bits(32), Some(0xdead_beef));
        assert_eq!(r.read_bits(64), Some(u64::MAX));
        assert_eq!(r.read_bits(5), Some(0));
        assert_eq!(r.bits_read(), bits);
    }

    #[test]
    fn reader_refuses_overrun() {
        let mut w = BitWriter::new();
        w.write_bits(0x3, 2);
        let (bytes, _) = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8), Some(0x3)); // zero-padded tail is readable
        assert_eq!(r.read_bits(1), None);
        let mut r2 = BitReader::new(&bytes);
        assert!(r2.skip_bits(9).is_none());
        assert!(r2.skip_bits(8).is_some());
    }

    #[test]
    fn hostile_lengths_and_overlong_varints_are_refused() {
        // A length near usize::MAX must be compared against what remains,
        // not added to the cursor (debug: overflow panic; release: wrap).
        let bytes = [0u8; 19];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3), Some(0));
        for n in [usize::MAX, usize::MAX - 2, usize::MAX / 8 * 8, 19 * 8 - 2] {
            assert!(r.skip_bits(n).is_none(), "skip {n}");
            assert_eq!(r.bits_read(), 3, "a refused skip must not move");
        }
        assert!(r.skip_bits(19 * 8 - 3).is_some());
        assert_eq!(r.read_bits(1), None);
        // u64::MAX is nine full groups and 0x01; a tenth group carrying
        // more would be shifted past bit 63, an eleventh is over-long.
        let varint = |tail: &[u8]| BitReader::new(&[&[0xff; 9], tail].concat()).read_varint();
        assert_eq!(varint(&[0x01]), Some(u64::MAX));
        for tail in [&[0x02][..], &[0x03], &[0x7f], &[0x40], &[0xff, 0x00]] {
            assert_eq!(varint(tail), None, "{tail:x?}");
        }
    }

    #[test]
    fn varint_round_trip_boundaries() {
        let cases = [0, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX];
        let mut w = BitWriter::new();
        for &v in &cases {
            let before = w.bit_len();
            w.write_varint(v);
            assert_eq!(w.bit_len() - before, varint_bits(v));
        }
        let (bytes, _) = w.finish();
        let mut r = BitReader::new(&bytes);
        for &v in &cases {
            assert_eq!(r.read_varint(), Some(v));
        }
    }

    #[test]
    fn random_mixed_streams_round_trip() {
        forall(200, |rng: &mut Rng| {
            let n = (rng.next_u64() % 40 + 1) as usize;
            let mut script = Vec::new();
            let mut w = BitWriter::new();
            for _ in 0..n {
                match rng.next_u64() % 4 {
                    0 => {
                        let width = (rng.next_u64() % 64 + 1) as u32;
                        let v = if width == 64 {
                            rng.next_u64()
                        } else {
                            rng.next_u64() & ((1u64 << width) - 1)
                        };
                        w.write_bits(v, width);
                        script.push((0u8, v, width as i64));
                    }
                    1 => {
                        let v = rng.next_u64() >> (rng.next_u64() % 64);
                        let before = w.bit_len();
                        w.write_varint(v);
                        assert_eq!(w.bit_len() - before, varint_bits(v));
                        script.push((1, v, 0));
                    }
                    2 => {
                        let v = (rng.next_u64() >> (rng.next_u64() % 64)) as i64;
                        let before = w.bit_len();
                        w.write_signed(v);
                        assert_eq!(w.bit_len() - before, signed_bits(v));
                        script.push((2, v as u64, 0));
                    }
                    _ => {
                        let b = rng.next_u64() & 1 == 1;
                        w.write_bool(b);
                        script.push((3, b as u64, 0));
                    }
                }
            }
            let total = w.bit_len();
            let (bytes, len) = w.finish();
            assert_eq!(len, total);
            // The same script driven into the counting sink measures the
            // length the writer reached.
            let mut count = BitCount(0);
            for &(op, v, width) in &script {
                match op {
                    0 => count.write_bits(v, width as u32),
                    1 => count.write_varint(v),
                    2 => count.write_signed(v as i64),
                    _ => count.write_bool(v != 0),
                }
            }
            assert_eq!(count.0, total);
            let mut r = BitReader::new(&bytes);
            for (op, v, width) in script {
                match op {
                    0 => assert_eq!(r.read_bits(width as u32), Some(v)),
                    1 => assert_eq!(r.read_varint(), Some(v)),
                    2 => assert_eq!(r.read_signed(), Some(v as i64)),
                    _ => assert_eq!(r.read_bool(), Some(v != 0)),
                }
            }
            assert_eq!(r.bits_read(), total);
        });
    }
}

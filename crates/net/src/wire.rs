//! The bit-packed wire format: the single sizing authority for every
//! message the workspace sends.
//!
//! Every [`UplinkMsg`], [`DownlinkMsg`] and [`ShardMsg`] variant implements
//! [`Wire`] by stating its layout twice and no more: [`Wire::put`] writes
//! it into any [`BitSink`], [`Wire::decode`] reads it back from a
//! [`BitReader`]. [`Wire::encode`] is `put` into a [`BitWriter`] and
//! [`Wire::wire_bits`] is `put` into a [`BitCount`] — the same function
//! run against a sink that only adds, so the hot-path byte accounting stays
//! buffer-free and what is billed cannot differ from what would be sent.
//! `crates/net/tests/wire_props.rs` pins `decode(encode(m)) == m` with
//! exact consumption for every variant, and the layout itself in a table
//! of literal bit lengths.
//!
//! Layout conventions:
//!
//! * ids, ticks and counts are LEB128-style varints ([`varint_bits`]),
//! * coordinates are quantized to a 1/[`QUANT_SCALE`] m lattice and carried
//!   as zigzag varints ([`quantize`]; worst-case error [`QUANT_ERROR`]),
//! * the one legitimately infinite field (`SetBand::outer`, the outermost
//!   non-answer band) spends a flag bit instead of a sentinel value,
//! * modeled-but-not-carried payloads (shard candidate entries, tunneled
//!   forwards) are written as zero bits of the modeled width, which the
//!   decoder skips.
//!
//! [`DownlinkMsg`] tags are 4 bits wide even though only six full-message
//! tags exist: codes 6..=10 belong to the delta/answer encodings of the
//! frame layer (`crate::downlink`), which shares this tag space so a framed
//! payload needs no second discriminator.

use crate::{DownlinkMsg, MsgKind, ShardMsg, UplinkMsg};
use mknn_geom::{Circle, ObjectId, Point, QueryId, Vector};
use mknn_util::bits::{BitCount, BitReader, BitSink, BitWriter};

/// Coordinate lattice density: positions are carried as multiples of
/// `1 / QUANT_SCALE` meters (9.8 mm steps at 256).
pub const QUANT_SCALE: f64 = 256.0;

/// Worst-case absolute error a quantized coordinate can carry
/// (half a lattice step).
pub const QUANT_ERROR: f64 = 0.5 / QUANT_SCALE;

/// Modeled link-layer overhead per *unframed* transmission, in bits:
/// addressing and sequencing the radio spends on every standalone packet.
/// Per-tick frames pay it once per frame instead — that amortization is the
/// point of frame batching.
pub const LINK_HEADER_BITS: usize = 16;

/// Tag width of [`UplinkMsg`] (6 variants).
pub(crate) const UP_TAG_BITS: u32 = 3;
/// Tag width of [`DownlinkMsg`] *and* the frame-layer delta encodings that
/// extend its tag space (codes 6..=10).
pub(crate) const DOWN_TAG_BITS: u32 = 4;
/// Tag width of [`ShardMsg`] (6 variants).
pub(crate) const SHARD_TAG_BITS: u32 = 3;
/// Width of an encoded [`MsgKind`] code (13 kinds).
pub(crate) const KIND_BITS: u32 = 4;

/// Modeled width of one `(object id, distance)` candidate entry inside a
/// shard partial-answer merge leg: a 2-byte id share plus a 3-byte
/// quantized distance.
pub const PARTIAL_ENTRY_BITS: usize = 40;

/// Modeled width of one member entry inside a query-state migration: id,
/// quantized last-known position, and lease bookkeeping.
pub const MEMBER_ENTRY_BITS: usize = 72;

/// Modeled width of one replayed object entry inside a post-crash recovery
/// sweep: id, quantized position and velocity — the same shape a
/// [`ShardMsg::Handoff`] carries, packed as a batch entry.
pub const RECOVER_ENTRY_BITS: usize = 72;

/// Snaps a coordinate onto the wire lattice. Non-finite inputs saturate
/// (`NaN` → 0) — only [`DownlinkMsg::SetBand`]'s `outer` legitimately
/// carries ∞ and it is flagged, not quantized.
#[inline]
pub fn quantize(x: f64) -> i64 {
    (x * QUANT_SCALE).round() as i64
}

/// Inverse of [`quantize`] (exact for lattice-aligned values).
#[inline]
pub fn dequantize(q: i64) -> f64 {
    q as f64 / QUANT_SCALE
}

/// A message that can be carried on the bit-packed wire.
///
/// An implementor states its layout in [`Wire::put`] and [`Wire::decode`];
/// the contract, property-tested for every variant, is
/// `decode(encode(m)) == m` for lattice-aligned coordinates, consuming
/// exactly `wire_bits(m)` bits.
pub trait Wire: Sized {
    /// The layout: writes this message's fields, in order, into `s`.
    fn put<S: BitSink>(&self, s: &mut S);
    /// Parses one message from `r`. `None` on truncation or an unknown tag.
    fn decode(r: &mut BitReader) -> Option<Self>;
    /// Appends this message's encoding to `w`.
    fn encode(&self, w: &mut BitWriter) {
        self.put(w);
    }
    /// Exact encoded length in bits: the layout run against a counting
    /// sink, so nothing is written.
    #[inline]
    fn wire_bits(&self) -> usize {
        let mut count = BitCount(0);
        self.put(&mut count);
        count.0
    }
}

// ---- field codecs ---------------------------------------------------------

#[inline]
pub(crate) fn write_point<S: BitSink>(w: &mut S, p: Point) {
    w.write_signed(quantize(p.x));
    w.write_signed(quantize(p.y));
}

#[inline]
pub(crate) fn read_point(r: &mut BitReader) -> Option<Point> {
    let x = r.read_signed()?;
    let y = r.read_signed()?;
    Some(Point::new(dequantize(x), dequantize(y)))
}

#[inline]
pub(crate) fn write_vector<S: BitSink>(w: &mut S, v: Vector) {
    w.write_signed(quantize(v.x));
    w.write_signed(quantize(v.y));
}

#[inline]
pub(crate) fn read_vector(r: &mut BitReader) -> Option<Vector> {
    let x = r.read_signed()?;
    let y = r.read_signed()?;
    Some(Vector::new(dequantize(x), dequantize(y)))
}

#[inline]
pub(crate) fn write_scalar<S: BitSink>(w: &mut S, s: f64) {
    w.write_signed(quantize(s));
}

#[inline]
pub(crate) fn read_scalar(r: &mut BitReader) -> Option<f64> {
    r.read_signed().map(dequantize)
}

/// A radius that may be `f64::INFINITY`: one flag bit, then the quantized
/// value only when finite.
#[inline]
pub(crate) fn write_radius_or_inf<S: BitSink>(w: &mut S, r: f64) {
    if r.is_infinite() && r > 0.0 {
        w.write_bool(true);
    } else {
        w.write_bool(false);
        write_scalar(w, r);
    }
}

#[inline]
pub(crate) fn read_radius_or_inf(r: &mut BitReader) -> Option<f64> {
    if r.read_bool()? {
        Some(f64::INFINITY)
    } else {
        read_scalar(r)
    }
}

impl MsgKind {
    /// Stable wire code: the kind's index in [`MsgKind::ALL`].
    pub(crate) fn code(self) -> u64 {
        MsgKind::ALL
            .iter()
            .position(|k| *k == self)
            .expect("kind in ALL") as u64
    }

    /// Inverse of [`MsgKind::code`].
    pub(crate) fn from_code(code: u64) -> Option<MsgKind> {
        MsgKind::ALL.get(code as usize).copied()
    }
}

// ---- uplinks --------------------------------------------------------------

const UP_POSITION: u64 = 0;
const UP_ENTER: u64 = 1;
const UP_LEAVE: u64 = 2;
const UP_BAND_CROSS: u64 = 3;
const UP_PROBE_REPLY: u64 = 4;
const UP_QUERY_MOVE: u64 = 5;

impl Wire for UplinkMsg {
    fn put<S: BitSink>(&self, w: &mut S) {
        match *self {
            UplinkMsg::Position { pos, vel } => {
                w.write_bits(UP_POSITION, UP_TAG_BITS);
                write_point(w, pos);
                write_vector(w, vel);
            }
            UplinkMsg::Enter {
                query,
                ver,
                pos,
                vel,
            } => {
                w.write_bits(UP_ENTER, UP_TAG_BITS);
                w.write_varint(query.0 as u64);
                w.write_varint(ver);
                write_point(w, pos);
                write_vector(w, vel);
            }
            UplinkMsg::Leave { query, ver, pos } => {
                w.write_bits(UP_LEAVE, UP_TAG_BITS);
                w.write_varint(query.0 as u64);
                w.write_varint(ver);
                write_point(w, pos);
            }
            UplinkMsg::BandCross {
                query,
                ver,
                pos,
                vel,
            } => {
                w.write_bits(UP_BAND_CROSS, UP_TAG_BITS);
                w.write_varint(query.0 as u64);
                w.write_varint(ver);
                write_point(w, pos);
                write_vector(w, vel);
            }
            UplinkMsg::ProbeReply { query, pos, vel } => {
                w.write_bits(UP_PROBE_REPLY, UP_TAG_BITS);
                w.write_varint(query.0 as u64);
                write_point(w, pos);
                write_vector(w, vel);
            }
            UplinkMsg::QueryMove { query, pos, vel } => {
                w.write_bits(UP_QUERY_MOVE, UP_TAG_BITS);
                w.write_varint(query.0 as u64);
                write_point(w, pos);
                write_vector(w, vel);
            }
        }
    }

    fn decode(r: &mut BitReader) -> Option<Self> {
        match r.read_bits(UP_TAG_BITS)? {
            UP_POSITION => Some(UplinkMsg::Position {
                pos: read_point(r)?,
                vel: read_vector(r)?,
            }),
            UP_ENTER => Some(UplinkMsg::Enter {
                query: QueryId(u32::try_from(r.read_varint()?).ok()?),
                ver: r.read_varint()?,
                pos: read_point(r)?,
                vel: read_vector(r)?,
            }),
            UP_LEAVE => Some(UplinkMsg::Leave {
                query: QueryId(u32::try_from(r.read_varint()?).ok()?),
                ver: r.read_varint()?,
                pos: read_point(r)?,
            }),
            UP_BAND_CROSS => Some(UplinkMsg::BandCross {
                query: QueryId(u32::try_from(r.read_varint()?).ok()?),
                ver: r.read_varint()?,
                pos: read_point(r)?,
                vel: read_vector(r)?,
            }),
            UP_PROBE_REPLY => Some(UplinkMsg::ProbeReply {
                query: QueryId(u32::try_from(r.read_varint()?).ok()?),
                pos: read_point(r)?,
                vel: read_vector(r)?,
            }),
            UP_QUERY_MOVE => Some(UplinkMsg::QueryMove {
                query: QueryId(u32::try_from(r.read_varint()?).ok()?),
                pos: read_point(r)?,
                vel: read_vector(r)?,
            }),
            _ => None,
        }
    }
}

// ---- downlinks ------------------------------------------------------------

pub(crate) const DOWN_INSTALL_REGION: u64 = 0;
pub(crate) const DOWN_REMOVE_REGION: u64 = 1;
pub(crate) const DOWN_PROBE: u64 = 2;
pub(crate) const DOWN_SET_BAND: u64 = 3;
pub(crate) const DOWN_CLEAR_BAND: u64 = 4;
pub(crate) const DOWN_ACK: u64 = 5;
// Codes 6..=10 are claimed by the frame layer (crate::downlink):
// RegionRefresh, RegionDelta, BandDelta, AnswerFull, AnswerDelta.

impl Wire for DownlinkMsg {
    fn put<S: BitSink>(&self, w: &mut S) {
        match *self {
            DownlinkMsg::InstallRegion {
                query,
                ver,
                center,
                vel,
                r_out,
            } => {
                w.write_bits(DOWN_INSTALL_REGION, DOWN_TAG_BITS);
                w.write_varint(query.0 as u64);
                w.write_varint(ver);
                write_point(w, center);
                write_vector(w, vel);
                write_scalar(w, r_out);
            }
            DownlinkMsg::RemoveRegion { query } => {
                w.write_bits(DOWN_REMOVE_REGION, DOWN_TAG_BITS);
                w.write_varint(query.0 as u64);
            }
            DownlinkMsg::Probe { query, zone } => {
                w.write_bits(DOWN_PROBE, DOWN_TAG_BITS);
                w.write_varint(query.0 as u64);
                write_point(w, zone.center);
                write_scalar(w, zone.radius);
            }
            DownlinkMsg::SetBand {
                query,
                ver,
                inner,
                outer,
            } => {
                w.write_bits(DOWN_SET_BAND, DOWN_TAG_BITS);
                w.write_varint(query.0 as u64);
                w.write_varint(ver);
                write_scalar(w, inner);
                write_radius_or_inf(w, outer);
            }
            DownlinkMsg::ClearBand { query } => {
                w.write_bits(DOWN_CLEAR_BAND, DOWN_TAG_BITS);
                w.write_varint(query.0 as u64);
            }
            DownlinkMsg::Ack { query, ver, kind } => {
                w.write_bits(DOWN_ACK, DOWN_TAG_BITS);
                w.write_varint(query.0 as u64);
                w.write_varint(ver);
                w.write_bits(kind.code(), KIND_BITS);
            }
        }
    }

    fn decode(r: &mut BitReader) -> Option<Self> {
        match r.read_bits(DOWN_TAG_BITS)? {
            DOWN_INSTALL_REGION => Some(DownlinkMsg::InstallRegion {
                query: QueryId(u32::try_from(r.read_varint()?).ok()?),
                ver: r.read_varint()?,
                center: read_point(r)?,
                vel: read_vector(r)?,
                r_out: read_scalar(r)?,
            }),
            DOWN_REMOVE_REGION => Some(DownlinkMsg::RemoveRegion {
                query: QueryId(u32::try_from(r.read_varint()?).ok()?),
            }),
            DOWN_PROBE => Some(DownlinkMsg::Probe {
                query: QueryId(u32::try_from(r.read_varint()?).ok()?),
                zone: Circle::new(read_point(r)?, read_scalar(r)?),
            }),
            DOWN_SET_BAND => Some(DownlinkMsg::SetBand {
                query: QueryId(u32::try_from(r.read_varint()?).ok()?),
                ver: r.read_varint()?,
                inner: read_scalar(r)?,
                outer: read_radius_or_inf(r)?,
            }),
            DOWN_CLEAR_BAND => Some(DownlinkMsg::ClearBand {
                query: QueryId(u32::try_from(r.read_varint()?).ok()?),
            }),
            DOWN_ACK => Some(DownlinkMsg::Ack {
                query: QueryId(u32::try_from(r.read_varint()?).ok()?),
                ver: r.read_varint()?,
                kind: MsgKind::from_code(r.read_bits(KIND_BITS)?)?,
            }),
            _ => None,
        }
    }
}

// ---- shard legs -----------------------------------------------------------

const SHARD_FANOUT: u64 = 0;
const SHARD_PARTIAL_ANSWER: u64 = 1;
const SHARD_HANDOFF: u64 = 2;
const SHARD_FORWARD: u64 = 3;
const SHARD_MIGRATE: u64 = 4;
const SHARD_RECOVER: u64 = 5;

impl Wire for ShardMsg {
    fn put<S: BitSink>(&self, w: &mut S) {
        match *self {
            ShardMsg::Fanout { query, zone } => {
                w.write_bits(SHARD_FANOUT, SHARD_TAG_BITS);
                w.write_varint(query.0 as u64);
                write_point(w, zone.center);
                write_scalar(w, zone.radius);
            }
            ShardMsg::PartialAnswer { query, count } => {
                w.write_bits(SHARD_PARTIAL_ANSWER, SHARD_TAG_BITS);
                w.write_varint(query.0 as u64);
                w.write_varint(count as u64);
                w.write_zero_bits(count * PARTIAL_ENTRY_BITS);
            }
            ShardMsg::Handoff { object, pos, vel } => {
                w.write_bits(SHARD_HANDOFF, SHARD_TAG_BITS);
                w.write_varint(object.0 as u64);
                write_point(w, pos);
                write_vector(w, vel);
            }
            ShardMsg::Forward {
                query,
                payload_bytes,
            } => {
                w.write_bits(SHARD_FORWARD, SHARD_TAG_BITS);
                w.write_varint(query.0 as u64);
                w.write_varint(payload_bytes as u64);
                w.write_zero_bits(payload_bytes * 8);
            }
            ShardMsg::Migrate { query, members } => {
                w.write_bits(SHARD_MIGRATE, SHARD_TAG_BITS);
                w.write_varint(query.0 as u64);
                w.write_varint(members as u64);
                w.write_zero_bits(members * MEMBER_ENTRY_BITS);
            }
            ShardMsg::Recover { shard, count } => {
                w.write_bits(SHARD_RECOVER, SHARD_TAG_BITS);
                w.write_varint(shard as u64);
                w.write_varint(count as u64);
                w.write_zero_bits(count * RECOVER_ENTRY_BITS);
            }
        }
    }

    fn decode(r: &mut BitReader) -> Option<Self> {
        match r.read_bits(SHARD_TAG_BITS)? {
            SHARD_FANOUT => Some(ShardMsg::Fanout {
                query: QueryId(u32::try_from(r.read_varint()?).ok()?),
                zone: Circle::new(read_point(r)?, read_scalar(r)?),
            }),
            SHARD_PARTIAL_ANSWER => {
                let query = QueryId(u32::try_from(r.read_varint()?).ok()?);
                let count = usize::try_from(r.read_varint()?).ok()?;
                r.skip_bits(count.checked_mul(PARTIAL_ENTRY_BITS)?)?;
                Some(ShardMsg::PartialAnswer { query, count })
            }
            SHARD_HANDOFF => Some(ShardMsg::Handoff {
                object: ObjectId(u32::try_from(r.read_varint()?).ok()?),
                pos: read_point(r)?,
                vel: read_vector(r)?,
            }),
            SHARD_FORWARD => {
                let query = QueryId(u32::try_from(r.read_varint()?).ok()?);
                let payload_bytes = usize::try_from(r.read_varint()?).ok()?;
                r.skip_bits(payload_bytes.checked_mul(8)?)?;
                Some(ShardMsg::Forward {
                    query,
                    payload_bytes,
                })
            }
            SHARD_MIGRATE => {
                let query = QueryId(u32::try_from(r.read_varint()?).ok()?);
                let members = usize::try_from(r.read_varint()?).ok()?;
                r.skip_bits(members.checked_mul(MEMBER_ENTRY_BITS)?)?;
                Some(ShardMsg::Migrate { query, members })
            }
            SHARD_RECOVER => {
                let shard = u32::try_from(r.read_varint()?).ok()?;
                let count = usize::try_from(r.read_varint()?).ok()?;
                r.skip_bits(count.checked_mul(RECOVER_ENTRY_BITS)?)?;
                Some(ShardMsg::Recover { shard, count })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_is_exact_on_lattice_and_bounded_off_it() {
        for q in [-1024i64, -1, 0, 1, 255, 256, 1 << 20] {
            assert_eq!(quantize(dequantize(q)), q);
        }
        for x in [0.1, -3.7, 12345.6789, 0.001953] {
            assert!((dequantize(quantize(x)) - x).abs() <= QUANT_ERROR);
        }
        assert_eq!(quantize(f64::NAN), 0); // saturating cast, accounting-safe
    }

    #[test]
    fn msg_kind_codes_round_trip() {
        for k in MsgKind::ALL {
            assert!(k.code() < 1 << KIND_BITS);
            assert_eq!(MsgKind::from_code(k.code()), Some(k));
        }
        assert_eq!(MsgKind::from_code(MsgKind::ALL.len() as u64), None);
    }

    #[test]
    fn unknown_tags_decode_to_none() {
        let mut w = BitWriter::new();
        w.write_bits(0b111, UP_TAG_BITS); // 7: unused uplink tag
        let (bytes, _) = w.finish();
        assert_eq!(UplinkMsg::decode(&mut BitReader::new(&bytes)), None);
        let mut w = BitWriter::new();
        w.write_bits(0b1111, DOWN_TAG_BITS); // 15: unused downlink tag
        let (bytes, _) = w.finish();
        assert_eq!(DownlinkMsg::decode(&mut BitReader::new(&bytes)), None);
        let mut w = BitWriter::new();
        w.write_bits(0b111, SHARD_TAG_BITS); // 7: unused shard tag
        let (bytes, _) = w.finish();
        assert_eq!(ShardMsg::decode(&mut BitReader::new(&bytes)), None);
    }

    #[test]
    fn truncated_buffers_decode_to_none() {
        let msg = DownlinkMsg::InstallRegion {
            query: QueryId(300),
            ver: 17,
            center: Point::new(100.0, -250.5),
            vel: Vector::new(1.5, -0.25),
            r_out: 42.0,
        };
        let mut w = BitWriter::new();
        msg.encode(&mut w);
        let (bytes, bits) = w.finish();
        assert_eq!(bits, msg.wire_bits());
        // Whole-byte truncations must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            let mut r = BitReader::new(&bytes[..cut]);
            assert_eq!(DownlinkMsg::decode(&mut r), None);
        }
        let mut ok = BitReader::new(&bytes);
        assert_eq!(DownlinkMsg::decode(&mut ok), Some(msg));
    }
}

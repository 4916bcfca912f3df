//! Tests for the bit-packed wire format: every message variant round-trips
//! through encode/decode consuming exactly `wire_bits`, the counting sink
//! behind `wire_bits` measures what the writer wrote bit for bit, a literal
//! table pins the layout itself, and the decoders refuse hostile prefixes.
//!
//! Coordinates are generated on the quantization lattice (multiples of
//! `1/QUANT_SCALE`, exactly representable in an f64), so decoded geometry is
//! *equal* to what was encoded, not merely close; the quantization error
//! bound for off-lattice values is covered by the unit tests in
//! `mknn_net::wire`.

use mknn_geom::{Circle, ObjectId, Point, QueryId, Vector};
use mknn_net::{
    AnswerUpdate, DownlinkMsg, FrameItem, MsgKind, ShardMsg, UplinkMsg, Wire, MEMBER_ENTRY_BITS,
    PARTIAL_ENTRY_BITS, QUANT_SCALE, RECOVER_ENTRY_BITS,
};
use mknn_util::bits::{BitReader, BitWriter};
use mknn_util::check::forall;
use mknn_util::Rng;
use std::fmt::Debug;

const CASES: u64 = 256;

/// A coordinate on the quantization lattice, spanning negative values and
/// magnitudes far beyond the simulation arena.
fn lattice(rng: &mut Rng) -> f64 {
    rng.gen_range(-2_560_000i64..2_560_000) as f64 / QUANT_SCALE
}

fn lattice_pt(rng: &mut Rng) -> Point {
    Point::new(lattice(rng), lattice(rng))
}

fn lattice_vec(rng: &mut Rng) -> Vector {
    Vector::new(lattice(rng), lattice(rng))
}

/// Ids spanning the full u32 range (not just small simulation ids), so the
/// varint length ladder is exercised end to end.
fn any_id(rng: &mut Rng) -> u32 {
    match rng.gen_range(0u32..4) {
        0 => rng.gen_range(0u32..16),
        1 => rng.gen_range(0u32..100_000),
        2 => u32::MAX - rng.gen_range(0u32..16),
        _ => rng.next_u64() as u32,
    }
}

fn any_ver(rng: &mut Rng) -> u64 {
    match rng.gen_range(0u32..3) {
        0 => rng.gen_range(0u64..100),
        1 => rng.next_u64() >> rng.gen_range(0u32..60),
        _ => u64::MAX - rng.gen_range(0u64..4),
    }
}

fn any_radius(rng: &mut Rng) -> f64 {
    rng.gen_range(0i64..2_560_000) as f64 / QUANT_SCALE
}

fn any_uplink(rng: &mut Rng) -> UplinkMsg {
    let query = QueryId(any_id(rng));
    match rng.gen_range(0u32..6) {
        0 => UplinkMsg::Position {
            pos: lattice_pt(rng),
            vel: lattice_vec(rng),
        },
        1 => UplinkMsg::Enter {
            query,
            ver: any_ver(rng),
            pos: lattice_pt(rng),
            vel: lattice_vec(rng),
        },
        2 => UplinkMsg::Leave {
            query,
            ver: any_ver(rng),
            pos: lattice_pt(rng),
        },
        3 => UplinkMsg::BandCross {
            query,
            ver: any_ver(rng),
            pos: lattice_pt(rng),
            vel: lattice_vec(rng),
        },
        4 => UplinkMsg::ProbeReply {
            query,
            pos: lattice_pt(rng),
            vel: lattice_vec(rng),
        },
        _ => UplinkMsg::QueryMove {
            query,
            pos: lattice_pt(rng),
            vel: lattice_vec(rng),
        },
    }
}

fn any_downlink(rng: &mut Rng) -> DownlinkMsg {
    let query = QueryId(any_id(rng));
    match rng.gen_range(0u32..6) {
        0 => DownlinkMsg::InstallRegion {
            query,
            ver: any_ver(rng),
            center: lattice_pt(rng),
            vel: lattice_vec(rng),
            r_out: any_radius(rng),
        },
        1 => DownlinkMsg::RemoveRegion { query },
        2 => DownlinkMsg::Probe {
            query,
            zone: Circle::new(lattice_pt(rng), any_radius(rng)),
        },
        3 => {
            let inner = any_radius(rng);
            // The outer radius exercises the infinity flag bit.
            let outer = if rng.gen_bool(0.25) {
                f64::INFINITY
            } else {
                inner + any_radius(rng)
            };
            DownlinkMsg::SetBand {
                query,
                ver: any_ver(rng),
                inner,
                outer,
            }
        }
        4 => DownlinkMsg::ClearBand { query },
        _ => DownlinkMsg::Ack {
            query,
            ver: any_ver(rng),
            kind: MsgKind::ALL[rng.gen_range(0usize..MsgKind::ALL.len())],
        },
    }
}

fn any_shard(rng: &mut Rng) -> ShardMsg {
    let query = QueryId(any_id(rng));
    match rng.gen_range(0u32..6) {
        0 => ShardMsg::Fanout {
            query,
            zone: Circle::new(lattice_pt(rng), any_radius(rng)),
        },
        1 => ShardMsg::PartialAnswer {
            query,
            count: rng.gen_range(0usize..500),
        },
        2 => ShardMsg::Handoff {
            object: ObjectId(any_id(rng)),
            pos: lattice_pt(rng),
            vel: lattice_vec(rng),
        },
        3 => ShardMsg::Forward {
            query,
            payload_bytes: rng.gen_range(0usize..200),
        },
        4 => ShardMsg::Migrate {
            query,
            members: rng.gen_range(0usize..100),
        },
        _ => ShardMsg::Recover {
            shard: rng.gen_range(0u64..64) as u32,
            count: rng.gen_range(0usize..500),
        },
    }
}

/// Encodes every row back to back into one buffer and decodes them in
/// sequence — frames carry messages with no padding between them, so
/// decoding must resynchronize on exact bit boundaries — checking each row's
/// stated bit length three ways: what the counting sink measures, what the
/// writer appended, and what the reader consumed.
fn pin<M: Wire + PartialEq + Debug>(rows: &[(M, usize)]) {
    let mut w = BitWriter::new();
    for (m, bits) in rows {
        assert_eq!(m.wire_bits(), *bits, "counted length of {m:?}");
        let before = w.bit_len();
        m.encode(&mut w);
        assert_eq!(w.bit_len() - before, *bits, "written length of {m:?}");
    }
    let (bytes, bits) = w.finish();
    assert_eq!(bytes.len(), bits.div_ceil(8));
    let mut r = BitReader::new(&bytes);
    for (m, bits) in rows {
        let before = r.bits_read();
        assert_eq!(M::decode(&mut r).as_ref(), Some(m));
        assert_eq!(r.bits_read() - before, *bits, "exact consumption: {m:?}");
    }
}

/// [`pin`] for generated messages: the stated length is the counted one.
fn round_trip<M: Wire + PartialEq + Debug>(msgs: Vec<M>) {
    let bits: Vec<_> = msgs.iter().map(Wire::wire_bits).collect();
    pin(&msgs.into_iter().zip(bits).collect::<Vec<_>>());
}

#[test]
fn uplink_messages_round_trip_exactly() {
    forall(CASES, |rng| round_trip(vec![any_uplink(rng)]));
}

#[test]
fn downlink_messages_round_trip_exactly() {
    forall(CASES, |rng| round_trip(vec![any_downlink(rng)]));
}

#[test]
fn shard_messages_round_trip_exactly() {
    forall(CASES, |rng| round_trip(vec![any_shard(rng)]));
}

#[test]
fn concatenated_messages_decode_in_sequence() {
    forall(CASES, |rng| {
        let n = rng.gen_range(1usize..10);
        round_trip((0..n).map(|_| any_downlink(rng)).collect());
    });
}

/// The layout itself, pinned by literals. `encode` and `wire_bits` are one
/// description (`Wire::put`) run against two sinks, so their agreeing says
/// nothing about the *format*; this table does. At least one row per variant
/// of all five `Wire` impls, boundary values included, each with its bit
/// length written out — a layout edit has to edit a number here.
///
/// Widths behind the numbers: `QueryId(300)` is a two-group varint (16) and
/// `u32::MAX` a five-group one (40), ver 17 one group (8) and `u64::MAX` ten
/// (80); `pos` quantizes to 25600 / -64128 (24 + 24), `vel` to 384 / -64
/// (16 + 8), the radius 42.0 to 10752 (24), ±10000.0 to four groups (32).
#[test]
#[rustfmt::skip] // one row per instance reads as the table it is
fn every_variant_round_trips_at_its_literal_length() {
    let (query, ver, far) = (QueryId(300), 17, QueryId(u32::MAX));
    let (pos, vel) = (Point::new(100.0, -250.5), Vector::new(1.5, -0.25));
    let (zone, kind) = (Circle::new(pos, 42.0), MsgKind::BandCross);
    let step = 1.0 / QUANT_SCALE;
    pin(&[ // 3-bit tag
        (UplinkMsg::Position { pos, vel }, 75),
        (UplinkMsg::Position { pos: Point::ORIGIN, vel: Vector::ZERO }, 35),
        (UplinkMsg::Enter { query, ver, pos, vel }, 99),
        (UplinkMsg::Enter { query: far, ver: u64::MAX, pos: Point::new(-step, step), vel: Vector::new(-step, step) }, 155),
        (UplinkMsg::Leave { query, ver, pos }, 75),
        (UplinkMsg::BandCross { query, ver, pos, vel }, 99),
        (UplinkMsg::ProbeReply { query, pos, vel }, 91),
        (UplinkMsg::QueryMove { query, pos, vel }, 91),
    ]);
    let install = DownlinkMsg::InstallRegion { query: QueryId(1), ver: 3, center: Point::new(25.5, 50.0), vel: Vector::new(1.0, 0.0), r_out: 120.0 };
    pin(&[ // 4-bit tag
        (DownlinkMsg::InstallRegion { query, ver, center: pos, vel, r_out: 42.0 }, 124),
        (DownlinkMsg::InstallRegion { query: far, ver: u64::MAX, center: Point::new(-10_000.0, 10_000.0), vel: Vector::ZERO, r_out: 0.0 }, 212),
        (DownlinkMsg::RemoveRegion { query: QueryId(1) }, 12),
        (DownlinkMsg::RemoveRegion { query: far }, 44),
        (DownlinkMsg::Probe { query, zone }, 92),
        (DownlinkMsg::SetBand { query, ver, inner: 42.0, outer: 100.0 }, 77),
        (DownlinkMsg::SetBand { query, ver, inner: 42.0, outer: f64::INFINITY }, 53), // flag bit, no radius
        (DownlinkMsg::SetBand { query: QueryId(0), ver: 0, inner: 0.0, outer: f64::INFINITY }, 29),
        (DownlinkMsg::ClearBand { query }, 20),
        (DownlinkMsg::Ack { query, ver, kind }, 32),
        (DownlinkMsg::Ack { query: QueryId(0), ver: u64::MAX, kind: MsgKind::AnswerPush }, 96),
    ]);
    pin(&[ // 3-bit tag; modeled entries ride as zero bits
        (ShardMsg::Fanout { query, zone }, 91),
        (ShardMsg::PartialAnswer { query, count: 3 }, 147),
        (ShardMsg::PartialAnswer { query: QueryId(0), count: 0 }, 19),
        (ShardMsg::Handoff { object: ObjectId(70_000), pos, vel }, 99),
        (ShardMsg::Forward { query, payload_bytes: 5 }, 67),
        (ShardMsg::Forward { query: QueryId(7), payload_bytes: 0 }, 19),
        (ShardMsg::Migrate { query, members: 2 }, 171),
        (ShardMsg::Migrate { query: far, members: 0 }, 51),
        (ShardMsg::Recover { shard: 3, count: 2 }, 163),
        (ShardMsg::Recover { shard: u32::MAX, count: 0 }, 51),
    ]);
    let full = AnswerUpdate::Full { query: QueryId(2), members: vec![ObjectId(4), ObjectId(1000), ObjectId(0)] };
    let delta = AnswerUpdate::Delta { query: QueryId(2), removed: vec![0, 7], added: vec![ObjectId(88)], order: None };
    pin(&[(full.clone(), 52), (delta.clone(), 53)]); // tags 9 and 10 of the downlink space
    // A rank list's length is implied by device state, so a reordering
    // delta has a length but no standalone decode.
    let reorder = AnswerUpdate::Delta { query: QueryId(2), removed: vec![0], added: vec![ObjectId(88)], order: Some(vec![2, 0, 1]) };
    assert_eq!(reorder.wire_bits(), 69);
    pin(&[ // full messages and answers keep their layout; deltas spend a presence bit per residual
        (FrameItem::Full(install), 108),
        (FrameItem::RegionRefresh { query: QueryId(12) }, 12),
        (FrameItem::RegionDelta { query: QueryId(12), dver: 5, dcx: -3, dcy: 2, dvx: 0, dvy: -256, dr: 128 }, 73),
        (FrameItem::BandDelta { query: QueryId(12), dver: 0, dinner: -512, douter: 512 }, 54),
        (FrameItem::ProbePing { query: QueryId(12) }, 12),
        (FrameItem::AckPing { query: QueryId(9), kind }, 16),
        (FrameItem::Answer(full), 52),
        (FrameItem::Answer(delta), 53),
    ]);
}

#[test]
fn a_few_variants_have_their_literal_bytes() {
    fn bytes_of<M: Wire>(m: M) -> Vec<u8> {
        let mut w = BitWriter::new();
        m.encode(&mut w);
        w.finish().0
    }
    // Tag 1 in the low nibble, then the one-group varint 1.
    let remove = DownlinkMsg::RemoveRegion { query: QueryId(1) };
    assert_eq!(bytes_of(remove), [0x11, 0x00]);
    // Tag 12, varint 9, then BandCross's kind code 3 in the top nibble.
    let (query, kind) = (QueryId(9), MsgKind::BandCross);
    assert_eq!(bytes_of(FrameItem::AckPing { query, kind }), [0x9c, 0x30]);
    // Tag 2 in three bits, then 01 | 02 | 80 02 (zigzag 256) | ff 01
    // (zigzag 255), all shifted up by the tag.
    let (query, ver, pos) = (QueryId(1), 2, Point::new(0.5, -0.5));
    assert_eq!(
        bytes_of(UplinkMsg::Leave { query, ver, pos }),
        [0x0a, 0x10, 0x00, 0x14, 0xf8, 0x0f, 0x00]
    );
}

#[test]
fn hostile_length_prefixes_decode_to_none() {
    // A shard leg cut off right after its length prefix: tag, a one-group
    // id, `count` as a varint — and none of the payload `count` promises.
    // Cursor-checked in the style of rotmguard's `try_get_*` parser: the
    // promise is compared against the bits that remain, in debug and
    // release alike.
    let decode_prefix = |tag: u64, count: usize| {
        let mut w = BitWriter::new();
        w.write_bits(tag, 3);
        w.write_varint(7);
        w.write_varint(count as u64);
        ShardMsg::decode(&mut BitReader::new(&w.finish().0))
    };
    // (tag, bits per counted entry): PartialAnswer, Forward, Migrate, Recover.
    let legs = [
        (1, PARTIAL_ENTRY_BITS),
        (3, 8),
        (4, MEMBER_ENTRY_BITS),
        (5, RECOVER_ENTRY_BITS),
    ];
    for (tag, entry_bits) in legs {
        // `fits` is the largest count whose bit length is still a usize: it
        // passes the decoder's `checked_mul`, and only the cursor check
        // stands between it and a wrapped position.
        let fits = usize::MAX / entry_bits;
        for count in [fits, fits + 1, fits - 1, usize::MAX, 1 << 40, 2] {
            assert_eq!(decode_prefix(tag, count), None, "tag {tag}, count {count}");
        }
        assert!(decode_prefix(tag, 0).is_some(), "nothing promised: whole");
    }
}

#[test]
fn over_long_varints_decode_to_none() {
    // An Ack whose 64-bit `ver` is nine full groups plus `tail`.
    let ack_with_ver_tail = |tail: &[u8]| {
        let mut w = BitWriter::new();
        w.write_bits(5, 4);
        w.write_varint(1);
        for &b in [0xff; 9].iter().chain(tail) {
            w.write_bits(b as u64, 8);
        }
        w.write_bits(0, 4);
        DownlinkMsg::decode(&mut BitReader::new(&w.finish().0))
    };
    let (query, kind) = (QueryId(1), MsgKind::Position);
    let ver = u64::MAX;
    assert_eq!(
        ack_with_ver_tail(&[0x01]),
        Some(DownlinkMsg::Ack { query, ver, kind })
    );
    // A tenth group with payload above bit 63, and an eleventh group.
    assert_eq!(ack_with_ver_tail(&[0x7f]), None);
    assert_eq!(ack_with_ver_tail(&[0x03]), None);
    assert_eq!(ack_with_ver_tail(&[0x81, 0x00]), None);
}

#[test]
fn size_bytes_is_the_wire_model_plus_link_header() {
    // Satellite check: the Wire trait is the single sizing authority —
    // `size_bytes` is a thin wrapper over measured bits, never separate
    // field arithmetic.
    forall(CASES, |rng| {
        let m = any_downlink(rng);
        let mut w = BitWriter::new();
        m.encode(&mut w);
        assert_eq!(
            m.size_bytes(),
            (mknn_net::LINK_HEADER_BITS + w.bit_len()).div_ceil(8)
        );
        let u = any_uplink(rng);
        let mut w = BitWriter::new();
        u.encode(&mut w);
        assert_eq!(
            u.size_bytes(),
            (mknn_net::LINK_HEADER_BITS + w.bit_len()).div_ceil(8)
        );
        let s = any_shard(rng);
        let mut w = BitWriter::new();
        s.encode(&mut w);
        assert_eq!(
            s.size_bytes(),
            (mknn_net::LINK_HEADER_BITS + w.bit_len()).div_ceil(8)
        );
    });
}

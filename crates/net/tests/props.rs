//! Property tests for the network substrate: counter conservation and the
//! byte model (mknn-util `check` harness).

use mknn_geom::{Circle, ObjectId, Point, QueryId, Vector};
use mknn_net::{DownlinkMsg, FaultPlan, MsgKind, NetStats, UplinkMsg};
use mknn_util::check::forall;
use mknn_util::Rng;

/// Cases per property (matches the former proptest default of 256).
const CASES: u64 = 256;

fn pt(rng: &mut Rng) -> Point {
    Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0))
}

fn uplink(rng: &mut Rng) -> UplinkMsg {
    let q = QueryId(rng.gen_range(0u32..8));
    let p = pt(rng);
    let ver = rng.gen_range(0u64..100);
    match rng.gen_range(0u32..6) {
        0 => UplinkMsg::Position {
            pos: p,
            vel: Vector::ZERO,
        },
        1 => UplinkMsg::Enter {
            query: q,
            ver,
            pos: p,
            vel: Vector::ZERO,
        },
        2 => UplinkMsg::Leave {
            query: q,
            ver,
            pos: p,
        },
        3 => UplinkMsg::BandCross {
            query: q,
            ver,
            pos: p,
            vel: Vector::ZERO,
        },
        4 => UplinkMsg::ProbeReply {
            query: q,
            pos: p,
            vel: Vector::ZERO,
        },
        _ => UplinkMsg::QueryMove {
            query: q,
            pos: p,
            vel: Vector::ZERO,
        },
    }
}

fn downlink(rng: &mut Rng) -> DownlinkMsg {
    let q = QueryId(rng.gen_range(0u32..8));
    let p = pt(rng);
    let ver = rng.gen_range(0u64..100);
    let r = rng.gen_range(0.0..50.0);
    match rng.gen_range(0u32..5) {
        0 => DownlinkMsg::InstallRegion {
            query: q,
            ver,
            center: p,
            vel: Vector::ZERO,
            r_out: r,
        },
        1 => DownlinkMsg::RemoveRegion { query: q },
        2 => DownlinkMsg::Probe {
            query: q,
            zone: Circle::new(p, r),
        },
        3 => DownlinkMsg::SetBand {
            query: q,
            ver,
            inner: r,
            outer: r + 1.0,
        },
        _ => DownlinkMsg::ClearBand { query: q },
    }
}

#[test]
fn uplink_byte_model_is_positive_and_bounded() {
    forall(CASES, |rng| {
        let m = uplink(rng);
        let s = m.size_bytes();
        // At least the link header, at most the old fixed-struct proxy:
        // bit-packing may only undercut the legacy model.
        assert!(s >= 3, "at least a link header: {s}");
        assert!(s <= 64, "no uplink should exceed 64 bytes: {s}");
    });
}

#[test]
fn downlink_byte_model_is_positive_and_bounded() {
    forall(CASES, |rng| {
        let m = downlink(rng);
        let s = m.size_bytes();
        assert!((3..=72).contains(&s), "{s}");
    });
}

#[test]
fn stats_totals_equal_sum_of_parts() {
    forall(CASES, |rng| {
        let n_ups = rng.gen_range(0usize..50);
        let ups: Vec<UplinkMsg> = (0..n_ups).map(|_| uplink(rng)).collect();
        let n_downs = rng.gen_range(0usize..50);
        let downs: Vec<DownlinkMsg> = (0..n_downs).map(|_| downlink(rng)).collect();
        let cells = rng.gen_range(1usize..20);

        let mut s = NetStats::default();
        let mut expect_msgs = 0u64;
        let mut expect_bytes = 0u64;
        for m in &ups {
            s.count_uplink(m.kind(), m.size_bytes());
            expect_msgs += 1;
            expect_bytes += m.size_bytes() as u64;
        }
        for (i, m) in downs.iter().enumerate() {
            match i % 2 {
                // Unicast and geocast bytes are charged where the engine
                // charges them: on the frames that carry the copies.
                0 => {
                    s.count_unicast(m.kind());
                    s.count_frame(m.size_bytes() as u64, 0);
                    expect_msgs += 1;
                    expect_bytes += m.size_bytes() as u64;
                }
                _ => {
                    s.count_geocast(m.kind(), cells);
                    s.count_frame((m.size_bytes() * cells) as u64, 0);
                    expect_msgs += cells as u64;
                    expect_bytes += (m.size_bytes() * cells) as u64;
                }
            }
        }
        assert_eq!(s.total_msgs(), expect_msgs);
        assert_eq!(s.total_bytes(), expect_bytes);
        // Per-kind tallies count logical messages: one per call.
        let logical: u64 = s.by_kind.values().sum();
        assert_eq!(logical, (ups.len() + downs.len()) as u64);
    });
}

#[test]
fn kind_is_stable_under_payload_changes() {
    forall(CASES, |rng| {
        let q = rng.gen_range(0u32..8);
        let ver = rng.gen_range(0u64..100);
        let p = pt(rng);
        let a = UplinkMsg::Enter {
            query: QueryId(q),
            ver,
            pos: p,
            vel: Vector::ZERO,
        };
        let b = UplinkMsg::Enter {
            query: QueryId(0),
            ver: 0,
            pos: Point::ORIGIN,
            vel: Vector::ZERO,
        };
        assert_eq!(a.kind(), b.kind());
        assert_eq!(a.kind(), MsgKind::Enter);
        // Sizes are content-dependent under varint encoding, but the
        // all-zero payload is the floor for the variant.
        assert!(b.size_bytes() <= a.size_bytes());
    });
}

#[test]
fn fault_counters_never_enter_the_conserved_totals() {
    // `total_msgs`/`total_bytes` count *transmissions*; drops, duplicates
    // and delays are observations about deliveries and must never feed the
    // conserved totals — only their own counters.
    forall(CASES, |rng| {
        let mut s = NetStats::default();
        let n_ups = rng.gen_range(0usize..40);
        for _ in 0..n_ups {
            let m = uplink(rng);
            s.count_uplink(m.kind(), m.size_bytes());
        }
        let msgs = s.total_msgs();
        let bytes = s.total_bytes();
        let drops = rng.gen_range(0u64..20);
        let dups = rng.gen_range(0u64..20);
        let delays = rng.gen_range(0u64..20);
        for _ in 0..drops {
            s.count_dropped();
        }
        for _ in 0..dups {
            s.count_duplicated();
        }
        for _ in 0..delays {
            s.count_delayed();
        }
        assert_eq!(s.total_msgs(), msgs, "drops must not change transmissions");
        assert_eq!(s.total_bytes(), bytes);
        assert_eq!(
            (s.dropped_msgs, s.dup_msgs, s.delayed_msgs),
            (drops, dups, delays)
        );
    });
}

/// A random *valid* fault plan: every draw stays inside the documented
/// knob ranges, so `validate` must accept it.
fn fault_plan(rng: &mut Rng) -> FaultPlan {
    let mut p = FaultPlan {
        up_loss: rng.gen_range(0.0..1.0),
        down_loss: rng.gen_range(0.0..1.0),
        ..FaultPlan::none()
    };
    p.up_dup = rng.gen_range(0.0..0.3);
    p.down_dup = p.up_dup;
    if rng.gen_bool(0.7) {
        p.delay_prob = rng.gen_range(0.0..1.0);
        p.max_delay = rng.gen_range(1u64..=5);
    }
    if rng.gen_bool(0.7) {
        p.offline_min = rng.gen_range(1u64..=4);
        p.offline_max = rng.gen_range(p.offline_min..=p.offline_min + 6);
        p.churn = rng.gen_range(0.0..0.05);
    }
    if rng.gen_bool(0.5) {
        p.crash_min = rng.gen_range(1u64..=8);
        p.crash_max = rng.gen_range(p.crash_min..=p.crash_min + 12);
        p.crash_count = rng.gen_range(1u64..=5) as u32;
    }
    if rng.gen_bool(0.5) {
        p.horizon = rng.gen_range(0u64..=1_000);
    }
    p.validate()
        .expect("generated knobs are valid by construction");
    p
}

#[test]
fn fault_plans_round_trip_through_json() {
    forall(CASES, |rng| {
        let p = fault_plan(rng);
        let s = mknn_util::to_string(&p);
        let back: FaultPlan = mknn_util::from_str(&s).unwrap_or_else(|e| panic!("{s}: {e}"));
        assert_eq!(back, p, "round trip through {s}");
    });
}

/// `expt --fault <JSON>` is the one text input the program reads: a cut or
/// corrupted document must fail with an error or decode to a plan that
/// passes `validate`, and never panic.
#[test]
fn fault_plan_decoder_survives_prefixes_and_byte_mutations() {
    const SIGNIFICANT: &[u8] = b"{}[]\":,.-+eE0123456789 \\nNItf";
    let decode = |bytes: &[u8]| {
        let text = String::from_utf8_lossy(bytes);
        if let Ok(p) = mknn_util::from_str::<FaultPlan>(&text) {
            assert_eq!(p.validate(), Ok(()), "decoded an invalid plan from {text}");
        }
    };
    forall(64, |rng| {
        let doc = mknn_util::to_string(&fault_plan(rng)).into_bytes();
        for end in 0..=doc.len() {
            decode(&doc[..end]);
        }
        for i in 0..doc.len() {
            let mut bad = doc.clone();
            bad[i] = match rng.gen_bool(0.5) {
                true => SIGNIFICANT[rng.gen_range(0..SIGNIFICANT.len())],
                false => rng.gen_range(0u32..256) as u8,
            };
            decode(&bad);
        }
    });
}

#[test]
fn message_sizes_grow_with_payload_magnitude() {
    // Varints charge for the bits actually carried: a message full of
    // large values costs at least as much as its all-small twin, and the
    // wire model is what `size_bytes` reports (single sizing authority).
    let a = UplinkMsg::Leave {
        query: QueryId(0),
        ver: 1,
        pos: Point::ORIGIN,
    };
    let b = UplinkMsg::Leave {
        query: QueryId(999),
        ver: u64::MAX,
        pos: Point::new(1e4, 1e4),
    };
    assert!(a.size_bytes() < b.size_bytes());
    let _ = ObjectId(3); // silence unused import lint in non-prop test
}

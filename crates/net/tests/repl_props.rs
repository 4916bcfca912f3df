//! Property tests for the scoped downlink's ack store (`ReplStore`): its
//! state is per (device, query) and blind to how stagings of different
//! devices interleave (mknn-util `check` harness).

use mknn_geom::{Circle, ObjectId, Point, QueryId, Vector};
use mknn_net::{Delivery, DownlinkMsg, MsgKind, NetStats, ReplStore};
use mknn_util::check::forall;
use mknn_util::Rng;
use std::collections::BTreeMap;

const TICKS: u64 = 12;

#[derive(Debug, Clone)]
enum Item {
    Proto(DownlinkMsg),
    Answer {
        query: QueryId,
        members: Vec<ObjectId>,
        ordered: bool,
    },
}

/// One staging: device, item, and what the fault layer did to the copy.
type Staging = (ObjectId, Item, Delivery);

/// A random item about `query` at version `tick`, drawn from every
/// `DownlinkMsg` variant plus ordered and unordered answers. Geometry sits
/// on a coarse lattice and moves slowly, so heartbeats, deltas and fulls
/// all occur.
fn item(rng: &mut Rng, query: QueryId, tick: u64) -> Item {
    let ver = tick - rng.gen_range(0u64..2).min(tick);
    let x = f64::from(rng.gen_range(0u32..4)) + ver as f64;
    let proto = match rng.gen_range(0u32..9) {
        0..=2 => DownlinkMsg::InstallRegion {
            query,
            ver,
            center: Point::new(x, 50.0),
            vel: Vector::new(1.0, f64::from(rng.gen_range(0u32..2))),
            r_out: 100.0 + f64::from(rng.gen_range(0u32..3)),
        },
        3 => DownlinkMsg::SetBand {
            query,
            ver,
            inner: 10.0 + x,
            outer: if rng.gen_bool(0.2) {
                f64::INFINITY
            } else {
                20.0 + x
            },
        },
        4 => DownlinkMsg::RemoveRegion { query },
        5 => DownlinkMsg::ClearBand { query },
        6 => DownlinkMsg::Probe {
            query,
            zone: Circle::new(Point::new(x, 0.0), 30.0),
        },
        7 => DownlinkMsg::Ack {
            query,
            ver,
            kind: if rng.gen_bool(0.5) {
                MsgKind::Enter
            } else {
                MsgKind::Leave
            },
        },
        _ => {
            let ordered = rng.gen_bool(0.5);
            let mut members: Vec<ObjectId> = (0..rng.gen_range(1usize..6))
                .map(|_| ObjectId(rng.gen_range(1000u32..1012)))
                .collect();
            members.sort_unstable_by_key(|m| m.0);
            members.dedup();
            if ordered {
                rng.shuffle(&mut members);
            }
            return Item::Answer {
                query,
                members,
                ordered,
            };
        }
    };
    Item::Proto(proto)
}

/// A multi-tick script: each tick stages fewer than `3 × devices` items to
/// random devices, each about one of that device's own one to three
/// queries. Query ids are shared across devices, so state handed to
/// the wrong device changes the encoding.
fn script(rng: &mut Rng, devices: u32) -> Vec<Vec<Staging>> {
    let queries: Vec<Vec<QueryId>> = (0..devices)
        .map(|_| {
            let mut qs: Vec<QueryId> = (0..rng.gen_range(1usize..4))
                .map(|_| QueryId(rng.gen_range(0u32..4)))
                .collect();
            qs.sort_unstable_by_key(|q| q.0);
            qs.dedup();
            qs
        })
        .collect();
    (1..=TICKS)
        .map(|tick| {
            let mut stagings = Vec::new();
            for _ in 0..rng.gen_range(0usize..3 * devices as usize) {
                let d = rng.gen_range(0..devices);
                let qs = &queries[d as usize];
                let q = qs[rng.gen_range(0..qs.len())];
                let delivery = match rng.gen_range(0u32..10) {
                    0..=6 => Delivery::Delivered,
                    7 | 8 => Delivery::Lost,
                    _ => Delivery::Offline,
                };
                stagings.push((ObjectId(d), item(rng, q, tick), delivery));
            }
            stagings
        })
        .collect()
}

/// Stages `stagings` as one tick and returns that tick's stats.
fn run_tick<'a>(
    store: &mut ReplStore,
    tick: u64,
    stagings: impl IntoIterator<Item = &'a Staging>,
) -> NetStats {
    let mut stats = NetStats::default();
    let mut b = store.begin_tick(tick);
    for (device, item, delivery) in stagings {
        match item {
            Item::Proto(msg) => b.stage(*device, *msg, *delivery),
            Item::Answer {
                query,
                members,
                ordered,
            } => b.stage_answer(*device, *query, members, *ordered, *delivery),
        }
    }
    b.flush_frames(&mut stats);
    stats
}

/// The same stagings with devices interleaved at random, each device's own
/// order kept.
fn interleave<'a>(rng: &mut Rng, stagings: &'a [Staging]) -> Vec<&'a Staging> {
    let mut queues: BTreeMap<u32, Vec<&Staging>> = BTreeMap::new();
    for s in stagings.iter().rev() {
        queues.entry(s.0 .0).or_default().push(s);
    }
    let mut out = Vec::with_capacity(stagings.len());
    while !queues.is_empty() {
        let d = *queues.keys().nth(rng.gen_range(0..queues.len())).unwrap();
        let queue = queues.get_mut(&d).unwrap();
        out.push(queue.pop().unwrap());
        if queue.is_empty() {
            queues.remove(&d);
        }
    }
    out
}

/// Reference model of what a device holds after a tick's commits: per
/// query, whether a region, band or answer is acked; plus the gap flag.
#[derive(Default)]
struct Held {
    queries: BTreeMap<u32, [bool; 3]>,
    gapped: bool,
}

impl Held {
    fn apply(&mut self, stagings: &[&Staging]) {
        for (_, item, delivery) in stagings {
            if *delivery != Delivery::Delivered {
                continue;
            }
            let (query, slot) = match item {
                Item::Answer { query, .. } => (*query, 2),
                Item::Proto(DownlinkMsg::InstallRegion { query, .. }) => (*query, 0),
                Item::Proto(DownlinkMsg::SetBand { query, .. }) => (*query, 1),
                Item::Proto(DownlinkMsg::RemoveRegion { query }) => {
                    self.queries.remove(&query.0);
                    continue;
                }
                Item::Proto(DownlinkMsg::ClearBand { query }) => {
                    if let Some(held) = self.queries.get_mut(&query.0) {
                        held[1] = false;
                    }
                    continue;
                }
                Item::Proto(DownlinkMsg::Probe { .. } | DownlinkMsg::Ack { .. }) => continue,
            };
            self.queries.entry(query.0).or_default()[slot] = true;
        }
        if stagings.iter().all(|s| s.2 == Delivery::Delivered) {
            self.gapped = false;
        } else if stagings.iter().any(|s| s.2 == Delivery::Offline) {
            self.gapped = true;
        }
        self.queries.retain(|_, held| held.iter().any(|h| *h));
    }

    fn holds_state(&self) -> bool {
        self.gapped || !self.queries.is_empty()
    }
}

/// Adds the counters a downlink flush charges.
fn add_flush(sum: &mut NetStats, s: &NetStats) {
    sum.frames += s.frames;
    sum.downlink_bytes += s.downlink_bytes;
    sum.frame_header_bytes += s.frame_header_bytes;
    sum.delta_full_fallbacks += s.delta_full_fallbacks;
    sum.ack_bytes += s.ack_bytes;
}

/// Runs `cases` scripts over `devices` devices spread across four queries,
/// checking every tick that (a) interleaving devices differently changes
/// nothing, (b) the shared store is the sum of one store per device, and
/// (c) exactly the devices holding state are tracked.
fn check_store(cases: u64, devices: u32) {
    forall(cases, |rng| {
        let script = script(rng, devices);
        let mut shared = ReplStore::new();
        let mut shuffled = ReplStore::new();
        let mut isolated: Vec<ReplStore> = (0..devices).map(|_| ReplStore::new()).collect();
        let mut held: Vec<Held> = (0..devices).map(|_| Held::default()).collect();
        for (t, stagings) in script.iter().enumerate() {
            let tick = t as u64 + 1;
            let stats = run_tick(&mut shared, tick, stagings);

            // (a) Interleaving devices differently changes nothing.
            let mixed = interleave(rng, stagings);
            let mixed_stats = run_tick(&mut shuffled, tick, mixed.iter().copied());
            assert_eq!(stats, mixed_stats, "tick {tick}: cross-device order leaked");

            // (b) The shared store is the sum of one store per device.
            let mut sum = NetStats::default();
            for (d, (store, held)) in isolated.iter_mut().zip(&mut held).enumerate() {
                let own: Vec<&Staging> = stagings.iter().filter(|s| s.0 .0 == d as u32).collect();
                add_flush(&mut sum, &run_tick(store, tick, own.iter().copied()));
                if !own.is_empty() {
                    held.apply(&own);
                }
            }
            assert_eq!(stats, sum, "tick {tick}: devices share ack state");

            // (c) Exactly the devices holding state are tracked.
            let holding = held.iter().filter(|h| h.holds_state()).count();
            assert_eq!(shared.tracked_devices(), holding, "tick {tick}");
        }
    });
}

#[test]
fn ack_store_is_per_device_and_blind_to_cross_device_order() {
    check_store(64, 20);
}

/// At 200 devices over four queries every per-query table holds dozens of
/// ids, so each tick inserts and drops entries mid-table.
#[test]
fn ack_store_holds_at_table_scale() {
    check_store(16, 200);
}

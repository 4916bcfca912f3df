//! Per-layer replays: the public calls `Simulation::step` makes into each
//! crate, made again from here on the same world and timed one layer at a
//! time. Nothing is added to the program — no span, counter or flag — so
//! what a replay cannot see (cache state shared between phases, allocator
//! reuse) shows up as `sim.untracked_residual_ms`, not as a guess.
//!
//! Every replay also checks what it replays: the world it steps must land
//! on the simulation's own positions, the oracle must agree with brute
//! force, every wire message must round-trip at the length `wire_bits`
//! claims, and the downlink must send one frame per staged device.

use crate::measure::{median, median_round_secs, median_rounds, timed};
use crate::workloads::WARM_TICKS;
use mknn_core::ShardCoordinator;
use mknn_geom::{Circle, ObjectId, Point, QueryId, Tick, Vector};
use mknn_index::{bruteforce, GridIndex, KdTree};
use mknn_mobility::World;
use mknn_net::{
    Delivery, DownlinkMsg, FaultyLink, MsgKind, NetStats, ReplStore, ShardMsg, UplinkMsg, Wire,
};
use mknn_sim::{SimConfig, SnapshotOracle};
use mknn_util::bits::{BitReader, BitWriter};
use mknn_util::Pool;
use std::fmt::Debug;
use std::hint::black_box;

/// Messages per round of the per-message replays (fault, shard routing,
/// varints): enough that one round dwarfs the stopwatch's own cost.
const BATCH: usize = 4096;

/// One workload's replays: collects metrics and failed checks.
pub struct Replay<'a> {
    config: &'a SimConfig,
    /// Host seconds each replay may spend measuring.
    budget: f64,
    /// `(name, value)` of every replayed metric so far.
    pub metrics: Vec<(&'static str, f64)>,
    /// One line per failed correctness check.
    pub failures: Vec<String>,
}

/// The scoped downlink's per-tick load, as the traced episode counted it.
#[derive(Debug, Clone, Copy)]
pub struct DownlinkLoad {
    /// Logical geocasts a tick.
    pub geocasts: usize,
    /// Devices each geocast reaches.
    pub recipients: usize,
    /// Unicasts a tick.
    pub unicasts: usize,
    /// Distinct devices framed a tick.
    pub devices: usize,
}

impl<'a> Replay<'a> {
    /// A replay set for `config`, each replay measuring for about `budget`
    /// host seconds.
    pub fn new(config: &'a SimConfig, budget: f64) -> Replay<'a> {
        Replay {
            config,
            budget,
            metrics: Vec::new(),
            failures: Vec::new(),
        }
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// A value `put` earlier.
    ///
    /// # Panics
    ///
    /// Panics when `name` has not been replayed yet.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} has not been replayed"))
            .1
    }

    /// The link the engine would build for this workload's plan.
    fn link(&self) -> Option<FaultyLink> {
        let fault = self.config.fault;
        (!fault.is_none()).then(|| FaultyLink::new(fault, self.config.workload.seed))
    }

    /// `mobility`, and the per-tick maintenance `step` does on `index` and
    /// `core` right after the world moves: builds the workload's world,
    /// steps it as many ticks as the simulation stepped, and times — on the
    /// ticks after warm-up — `World::step`, the grid upserts over
    /// `world.moved()`, and `track_object`/`track_query` at the workload's
    /// shard count. Returns the world, which must now equal `sim_world`.
    pub fn world(&mut self, sim_world: &World, ticks: Tick) -> World {
        let config = self.config;
        let spec = &config.workload;
        let build_secs = median_round_secs(self.budget, || {
            black_box(spec.build());
        });
        self.put("mobility.world_build_ms", build_secs * 1e3);

        let mut world = spec.build();
        let cells = config.geo_cells;
        let load_secs = median_round_secs(self.budget, || {
            black_box(GridIndex::bulk_load(
                world.bounds(),
                cells,
                cells,
                world.snapshot(),
            ));
        });
        self.put("index.grid_bulk_load_ms", load_secs * 1e3);

        // Seeded exactly as `Simulation::new` seeds them.
        let mut grid = GridIndex::bulk_load(world.bounds(), cells, cells, world.snapshot());
        let mut coord = ShardCoordinator::new(world.bounds(), config.shards);
        let mut link = self.link();
        let mut stats = NetStats::default();
        let focals: Vec<ObjectId> = config.focal_ids().into_iter().map(ObjectId).collect();
        for (i, &pos) in world.positions().iter().enumerate() {
            let id = ObjectId(i as u32);
            coord.track_object(id, pos, world.velocities()[i], &mut stats, None);
        }
        for (qi, &focal) in focals.iter().enumerate() {
            let pos = world.position(focal);
            coord.track_query(QueryId(qi as u32), pos, config.k, &mut stats, None);
        }

        let (mut step, mut upsert, mut track, mut moved) = (vec![], vec![], vec![], vec![]);
        for tick in 1..=ticks {
            let ((), step_secs) = timed(|| world.step());
            let ((), upsert_secs) = timed(|| {
                for &i in world.moved() {
                    grid.upsert(ObjectId(i), world.positions()[i as usize]);
                }
            });
            if let Some(link) = link.as_mut() {
                link.begin_tick(tick, world.len());
            }
            let ((), track_secs) = timed(|| {
                for &i in world.moved() {
                    coord.track_object(
                        ObjectId(i),
                        world.positions()[i as usize],
                        world.velocities()[i as usize],
                        &mut stats,
                        link.as_mut(),
                    );
                }
                for (qi, &focal) in focals.iter().enumerate() {
                    let pos = world.position(focal);
                    coord.track_query(QueryId(qi as u32), pos, config.k, &mut stats, link.as_mut());
                }
            });
            if tick > WARM_TICKS {
                step.push(step_secs);
                upsert.push(upsert_secs);
                track.push(track_secs);
                moved.push(world.moved().len() as f64);
            }
        }
        self.check(world.positions() == sim_world.positions(), || {
            format!("replayed world diverged from the simulation's after {ticks} ticks")
        });
        self.put("mobility.world_step_ms", median(&step) * 1e3);
        self.put(
            "mobility.moved_per_tick",
            moved.iter().sum::<f64>() / moved.len() as f64,
        );
        self.put("index.grid_upsert_ms", median(&upsert) * 1e3);
        self.put("core.shard_track_ms", median(&track) * 1e3);

        // Uplink routing: which shard consumes a device's message.
        let n = world.len();
        let q = focals.len();
        let route_secs = median_round_secs(self.budget, || {
            for i in 0..BATCH {
                let pos = world.positions()[i * n / BATCH];
                let query = Some(QueryId((i % q) as u32));
                black_box(coord.route_uplink(query, pos, 16, &mut stats, link.as_mut()));
            }
        });
        self.put(
            "core.shard_route_uplink_ns",
            route_secs / BATCH as f64 * 1e9,
        );
        world
    }

    /// `index` on the workload's population, and the oracle built on it:
    /// range and kNN lookups around every focal. Returns the mean number of
    /// devices a geocast-sized circle reaches.
    pub fn index(&mut self, world: &World) -> f64 {
        let config = self.config;
        let k = config.k;
        let cells = config.geo_cells;
        let grid = GridIndex::bulk_load(world.bounds(), cells, cells, world.snapshot());
        let focals: Vec<(ObjectId, Point)> = config
            .focal_ids()
            .into_iter()
            .map(|id| (ObjectId(id), world.position(ObjectId(id))))
            .collect();
        let q = focals.len() as f64;

        // The zone of a region install: 1.5 × the radius the server's own
        // estimate says holds k objects.
        let zones: Vec<Circle> = focals
            .iter()
            .map(|&(_, p)| Circle::new(p, 1.5 * grid.estimate_knn_radius(p, k)))
            .collect();
        let hits: usize = zones.iter().map(|z| grid.range(z).len()).sum();
        let range_secs = median_round_secs(self.budget, || {
            for z in &zones {
                black_box(grid.range(z));
            }
        });
        self.put("index.grid_range_us", range_secs / q * 1e6);
        self.put("index.grid_range_hits", hits as f64 / q);

        let knn_secs = median_round_secs(self.budget, || {
            for &(_, p) in &focals {
                black_box(grid.knn(p, k));
            }
        });
        self.put("index.grid_knn_us", knn_secs / q * 1e6);

        let tree_secs = median_round_secs(self.budget, || {
            black_box(KdTree::build(world.snapshot().collect()));
        });
        self.put("index.kdtree_build_ms", tree_secs * 1e3);
        let tree = KdTree::build(world.snapshot().collect());
        let tree_knn_secs = median_round_secs(self.budget, || {
            for &(_, p) in &focals {
                black_box(tree.knn(p, k));
            }
        });
        self.put("index.kdtree_knn_us", tree_knn_secs / q * 1e6);

        let oracle_secs = median_round_secs(self.budget, || {
            black_box(SnapshotOracle::build(world));
        });
        self.put("sim.oracle_build_ms", oracle_secs * 1e3);
        let oracle = SnapshotOracle::build(world);
        let oracle_knn_secs = median_round_secs(self.budget, || {
            for &(focal, p) in &focals {
                black_box(oracle.knn_excluding(p, k, focal));
            }
        });
        self.put("sim.oracle_knn_us", oracle_knn_secs / q * 1e6);
        for &(focal, p) in focals.iter().take(8) {
            let truth = bruteforce::knn(world.snapshot().filter(|&(id, _)| id != focal), p, k);
            self.check(oracle.knn_excluding(p, k, focal) == truth, || {
                format!("oracle kNN around {focal:?} differs from brute force")
            });
        }
        hits as f64 / q
    }

    /// `net`'s scoped downlink under the workload's own per-tick load:
    /// `begin_tick` → `stage` → `flush_frames` with region installs to each
    /// geocast's recipients and band updates to the unicast addressees,
    /// spread evenly over the device ids, every tick a new version so the
    /// delta encoder does its real work. The store is warmed for two ticks
    /// first, so it holds acked state for as many devices as a tick frames.
    pub fn downlink(&mut self, load: DownlinkLoad) {
        let n = self.config.workload.n_objects;
        let q = self.config.n_queries as u32;
        let devices = load.devices.clamp(1, n);
        let device = |j: usize| ObjectId(((j % devices) * n / devices) as u32);
        let n_items = load.geocasts * load.recipients + load.unicasts;
        let items_of = |tick: Tick| -> Vec<(ObjectId, DownlinkMsg)> {
            let drift = tick as f64;
            let installs = (0..load.geocasts * load.recipients).map(|j| {
                let g = (j / load.recipients) as u32;
                let msg = DownlinkMsg::InstallRegion {
                    query: QueryId(g % q),
                    ver: tick,
                    center: Point::new(100.0 * f64::from(g % 97) + 3.0 * drift, 5_000.0 + drift),
                    vel: Vector::new(3.0, 1.0),
                    r_out: 400.0 + f64::from(g % 7) + drift,
                };
                (device(j), msg)
            });
            let bands = (0..load.unicasts).map(|u| {
                let msg = DownlinkMsg::SetBand {
                    query: QueryId(u as u32 % q),
                    ver: tick,
                    inner: 100.0 + drift,
                    outer: 180.0 + drift,
                };
                (device(load.geocasts * load.recipients + u), msg)
            });
            installs.chain(bands).collect()
        };

        let mut store = ReplStore::new();
        let mut tick: Tick = 0;
        let mut frames_ok = true;
        let [stage_secs, flush_secs] = median_rounds(self.budget, || {
            // Two extra ticks on the first (discarded) round warm the store.
            let warm = if tick == 0 { 2 } else { 0 };
            let mut secs = [0.0; 2];
            for _ in 0..=warm {
                tick += 1;
                let items = items_of(tick);
                let mut stats = NetStats::default();
                let mut builder = store.begin_tick(tick);
                ((), secs[0]) = timed(|| {
                    for &(to, msg) in &items {
                        builder.stage(to, msg, Delivery::Delivered);
                    }
                });
                ((), secs[1]) = timed(|| builder.flush_frames(&mut stats));
                frames_ok &= stats.frames == n_items.min(devices) as u64;
            }
            secs
        });
        self.check(frames_ok, || {
            "downlink replay: frames sent differ from distinct staged devices".to_string()
        });
        self.put(
            "net.downlink_stage_ns",
            stage_secs / n_items.max(1) as f64 * 1e9,
        );
        self.put("net.downlink_flush_ms", flush_secs * 1e3);

        // The fixed cost of a tick that sends nothing, on the warmed store.
        let idle_secs = median_round_secs(self.budget, || {
            tick += 1;
            store
                .begin_tick(tick)
                .flush_frames(&mut NetStats::default());
        });
        self.put("net.downlink_idle_tick_ms", idle_secs * 1e3);
    }

    /// `net`'s fault layer under the workload's plan: the per-tick churn
    /// draw over all devices, and the per-message fate draws of uplinks and
    /// downlink deliveries. On a perfect-link workload the engine builds no
    /// link at all; the numbers there are the layer's pass-through cost.
    pub fn fault(&mut self) {
        let n = self.config.workload.n_objects;
        let q = self.config.n_queries as u32;
        let mut link = FaultyLink::new(self.config.fault, self.config.workload.seed);
        let mut stats = NetStats::default();
        let mut inboxes: Vec<Vec<DownlinkMsg>> = vec![Vec::new(); n];
        let mut delivered = Vec::with_capacity(2 * BATCH);
        let mut tick: Tick = 0;
        let pos = Point::new(1_234.5, 6_789.25);
        let [begin_secs, up_secs, down_secs] = median_rounds(self.budget, || {
            tick += 1;
            let ((), begin) = timed(|| link.begin_tick(tick, n));
            // Held copies from earlier rounds come due outside the
            // stopwatches, as the engine drains them before each batch.
            delivered.clear();
            link.drain_due_up(&mut delivered);
            link.drain_due_down(&mut inboxes, &mut stats);
            let ((), up) = timed(|| {
                for i in 0..BATCH {
                    let msg = UplinkMsg::Enter {
                        query: QueryId(i as u32 % q),
                        ver: tick,
                        pos,
                        vel: Vector::new(3.0, 1.0),
                    };
                    link.transmit_up(ObjectId(i as u32), msg, &mut delivered, &mut stats);
                }
            });
            let ((), down) = timed(|| {
                for i in 0..BATCH {
                    let msg = DownlinkMsg::ClearBand {
                        query: QueryId(i as u32 % q),
                    };
                    black_box(link.deliver_down(i * n / BATCH, msg, &mut inboxes, &mut stats));
                }
            });
            for i in 0..BATCH {
                inboxes[i * n / BATCH].clear();
            }
            [begin, up, down]
        });
        self.put("net.fault_begin_tick_ms", begin_secs * 1e3);
        self.put("net.fault_transmit_up_ns", up_secs / BATCH as f64 * 1e9);
        self.put("net.fault_deliver_down_ns", down_secs / BATCH as f64 * 1e9);
    }

    /// `net`'s wire format over a fixed mix holding every message variant:
    /// encode, decode and the arithmetic `wire_bits`, per message.
    pub fn wire(&mut self) {
        let (ups, downs, shards) = wire_mix();
        let per_pass = [
            self.wire_family(&ups),
            self.wire_family(&downs),
            self.wire_family(&shards),
        ];
        let msgs = (ups.len() + downs.len() + shards.len()) as f64;
        let ns = |section: usize| per_pass.iter().map(|f| f[section]).sum::<f64>() / msgs * 1e9;
        self.put("net.wire_encode_ns", ns(0));
        self.put("net.wire_decode_ns", ns(1));
        self.put("net.wire_bits_ns", ns(2));
    }

    /// Checks one message family's round trip, then times it: host seconds
    /// to encode, decode and size the whole `mix` once.
    fn wire_family<M: Wire + PartialEq + Debug>(&mut self, mix: &[M]) -> [f64; 3] {
        for m in mix {
            let mut w = BitWriter::new();
            m.encode(&mut w);
            let (bytes, bits) = w.finish();
            self.check(bits == m.wire_bits(), || {
                format!(
                    "{m:?}: encoded {bits} bits, wire_bits says {}",
                    m.wire_bits()
                )
            });
            let back = M::decode(&mut BitReader::new(&bytes));
            self.check(back.as_ref() == Some(m), || {
                format!("{m:?} decoded as {back:?}")
            });
        }
        // One writer per pass over the mix, as one frame carries a tick's
        // messages; many passes per round, so a round is not a microsecond.
        const PASSES: usize = 256;
        let mut frame = BitWriter::new();
        for m in mix {
            m.encode(&mut frame);
        }
        let (frame, _) = frame.finish();
        let secs = median_rounds(self.budget, || {
            let ((), encode) = timed(|| {
                for _ in 0..PASSES {
                    let mut w = BitWriter::new();
                    for m in mix {
                        m.encode(&mut w);
                    }
                    black_box(w.finish());
                }
            });
            let ((), decode) = timed(|| {
                for _ in 0..PASSES {
                    let mut r = BitReader::new(black_box(&frame));
                    for _ in mix {
                        black_box(M::decode(&mut r));
                    }
                }
            });
            let ((), bits) = timed(|| {
                for _ in 0..PASSES {
                    for m in mix {
                        black_box(black_box(m).wire_bits());
                    }
                }
            });
            [encode, decode, bits]
        });
        secs.map(|s| s / PASSES as f64)
    }

    /// `util`: a varint written and read back, and one dispatch of an empty
    /// body over an N-slice at the workload's pool width.
    pub fn util(&mut self, threads: usize) {
        let values: Vec<u64> = (0..BATCH as u64)
            .map(|i| (i * i).wrapping_mul(0x9E37_79B9) >> (i % 40))
            .collect();
        let varint_secs = median_round_secs(self.budget, || {
            let mut w = BitWriter::new();
            for &v in &values {
                w.write_varint(v);
            }
            let (bytes, _) = w.finish();
            let mut r = BitReader::new(&bytes);
            for _ in &values {
                black_box(r.read_varint());
            }
        });
        self.put("util.bits_varint_ns", varint_secs / BATCH as f64 * 1e9);

        let pool = Pool::new(threads);
        let mut devices = vec![0u8; self.config.workload.n_objects];
        let chunk = pool.chunk_size(devices.len());
        let dispatch_secs = median_round_secs(self.budget, || {
            black_box(pool.map_chunks_mut(&mut devices, chunk, |_, _| ()));
        });
        self.put("util.pool_dispatch_us", dispatch_secs * 1e6);
    }
}

/// Every `UplinkMsg`, `DownlinkMsg` and `ShardMsg` variant once (twice
/// where a flag changes the layout), on lattice-aligned coordinates so
/// `decode(encode(m)) == m` holds exactly.
fn wire_mix() -> (Vec<UplinkMsg>, Vec<DownlinkMsg>, Vec<ShardMsg>) {
    let query = QueryId(37);
    let ver: Tick = 1_234;
    let pos = Point::new(4_321.5, 8_765.25);
    let vel = Vector::new(-12.5, 7.75);
    let ups = vec![
        UplinkMsg::Position { pos, vel },
        UplinkMsg::Enter {
            query,
            ver,
            pos,
            vel,
        },
        UplinkMsg::Leave { query, ver, pos },
        UplinkMsg::BandCross {
            query,
            ver,
            pos,
            vel,
        },
        UplinkMsg::ProbeReply { query, pos, vel },
        UplinkMsg::QueryMove { query, pos, vel },
    ];
    let downs = vec![
        DownlinkMsg::InstallRegion {
            query,
            ver,
            center: pos,
            vel,
            r_out: 412.5,
        },
        DownlinkMsg::RemoveRegion { query },
        DownlinkMsg::Probe {
            query,
            zone: Circle::new(pos, 650.0),
        },
        DownlinkMsg::SetBand {
            query,
            ver,
            inner: 120.25,
            outer: 180.5,
        },
        DownlinkMsg::SetBand {
            query,
            ver,
            inner: 180.5,
            outer: f64::INFINITY,
        },
        DownlinkMsg::ClearBand { query },
        DownlinkMsg::Ack {
            query,
            ver,
            kind: MsgKind::Enter,
        },
    ];
    let shards = vec![
        ShardMsg::Fanout {
            query,
            zone: Circle::new(pos, 650.0),
        },
        ShardMsg::PartialAnswer { query, count: 11 },
        ShardMsg::Handoff {
            object: ObjectId(123_456),
            pos,
            vel,
        },
        ShardMsg::Forward {
            query,
            payload_bytes: 19,
        },
        ShardMsg::Migrate { query, members: 13 },
        ShardMsg::Recover {
            shard: 3,
            count: 250,
        },
    ];
    (ups, downs, shards)
}

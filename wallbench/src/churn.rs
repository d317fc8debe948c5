//! `cluster_churn`: query lifecycle churn across a 4-node cluster.
//!
//! Four single-shard nodes over netsim links run a fan-out of standing
//! queries, one per source, with sources homed round-robin, plus one
//! `register_hash_partitioned` join on a low-cardinality key. Each node
//! runs its shard on the worker pool, so the coordinator (admission,
//! exchange codec) and the nodes' operators share the host's cores; with
//! sequential nodes the whole workload is one thread, whose speed on a
//! shared 2-vCPU cloud host swung 1.5x with the load on its core's
//! hyperthread sibling.
//! Each round opens a session and registers a batch of parameterized
//! push queries, ingests (join legs included) and sends a heartbeat,
//! forces one cross-node migration of a standing query, then drains the
//! session's subscriptions and closes the session. It is the only
//! workload whose data crosses the wire.

use std::sync::Arc;
use std::time::Instant;

use aspen_catalog::{Catalog, SourceKind, SourceStats};
use aspen_sql::{bind, parse};
use aspen_stream::{
    Cluster, ClusterConfig, DeltaBatch, EngineConfig, QueryHandle, QuerySpec, ResultSubscription,
    Scheduling,
};
use aspen_types::{DataType, Field, Schema, SimTime, Tuple, Value};

use crate::ledger::Ledger;
use crate::shapes::{gen_tuple, to_tuple, Shape, SourceBatch, SourceWindow, WINDOW_ROUNDS};
use crate::util::{rows, rows_match, PushLedger, Rng};
use crate::{Census, Metrics, Workload};

const NODES: usize = 4;
/// Fan-out sources `c0…`, homed round-robin by source id.
const SOURCES: usize = 64;
const BATCHES_PER_ROUND: usize = 24;
const BATCH: usize = 32;
/// Push queries a round's session registers.
const SESSION_QUERIES: usize = 8;
/// Join-leg tuples per leg per round, and distinct join keys.
const JOIN_BATCH: usize = 8;
const JOIN_KEYS: usize = 8;
/// Distinct generated rounds; round `r` replays input `r % POOL`. One
/// pool covers a whole cycle of the round-robin migrations.
const POOL: usize = SOURCES * NODES;
/// The join is read back every this many rounds.
const JOIN_READ_EVERY: usize = 8;
const JOIN_SQL: &str =
    "select l.sensor, l.value, r.value from jl l, jr r where l.sensor = r.sensor";

fn standing_shape(i: usize) -> Shape {
    match i % 4 {
        0 => Shape::Above((i % 10) as f64 * 10.0 + 0.5),
        1 => Shape::AvgBySensor,
        2 => Shape::Count,
        _ => Shape::SensorIs((i % 32) as i64),
    }
}

struct RoundInput {
    /// `(source, tuples)` fan-out batches.
    batches: Vec<SourceBatch>,
    left: Vec<(i64, f64)>,
    right: Vec<(i64, f64)>,
    /// The session's queries: `(source, threshold)`.
    session: Vec<(usize, f64)>,
}

struct SessionQuery {
    src: usize,
    shape: Shape,
    sql: String,
    q: QueryHandle,
    sub: ResultSubscription,
    snap: Vec<Tuple>,
    drained: Vec<DeltaBatch>,
}

struct Sys {
    cluster: Cluster,
    standing: Vec<QueryHandle>,
    join: QueryHandle,
    windows: Vec<SourceWindow>,
    left: SourceWindow,
    right: SourceWindow,
    session: Vec<SessionQuery>,
    standing_read: Option<(usize, Vec<Tuple>)>,
    join_read: Option<Vec<Tuple>>,
    batches_delivered: u64,
    born: Instant,
}

pub struct ClusterChurn {
    seed: u64,
    pool: Vec<RoundInput>,
    sys: Option<Sys>,
    stamped: Vec<(String, Vec<Tuple>)>,
}

fn leg(rng: &mut Rng) -> Vec<(i64, f64)> {
    (0..JOIN_BATCH)
        .map(|_| (rng.below(JOIN_KEYS) as i64, rng.sixteenths(0.0, 100.0)))
        .collect()
}

impl ClusterChurn {
    pub fn new(seed: u64) -> ClusterChurn {
        let mut rng = Rng::new(seed, 0xC1C);
        let pool = (0..POOL)
            .map(|_| RoundInput {
                batches: (0..BATCHES_PER_ROUND)
                    .map(|_| {
                        let src = rng.below(SOURCES);
                        (src, (0..BATCH).map(|_| gen_tuple(&mut rng)).collect())
                    })
                    .collect(),
                left: leg(&mut rng),
                right: leg(&mut rng),
                session: (0..SESSION_QUERIES)
                    .map(|_| (rng.below(SOURCES), rng.below(100) as f64 + 0.5))
                    .collect(),
            })
            .collect();
        ClusterChurn {
            seed,
            pool,
            sys: None,
            stamped: Vec::new(),
        }
    }

    fn catalog() -> aspen_types::Result<Arc<Catalog>> {
        let catalog = Catalog::shared();
        let schema = Schema::new(vec![
            Field::new("sensor", DataType::Int),
            Field::new("value", DataType::Float),
        ])
        .into_ref();
        for i in 0..SOURCES {
            catalog.register_source(
                &format!("c{i}"),
                schema.clone(),
                SourceKind::Stream,
                SourceStats::stream(2.0),
            )?;
        }
        for leg in ["jl", "jr"] {
            catalog.register_source(
                leg,
                schema.clone(),
                SourceKind::Stream,
                SourceStats::stream(2.0).with_distinct("sensor", JOIN_KEYS as u64),
            )?;
        }
        Ok(catalog)
    }

    fn expected_join(left: &SourceWindow, right: &SourceWindow) -> Vec<Vec<Value>> {
        let mut out = Vec::new();
        for &(k, lv) in left.live() {
            for &(rk, rv) in right.live() {
                if k == rk {
                    out.push(vec![Value::Int(k), Value::Float(lv), Value::Float(rv)]);
                }
            }
        }
        out.sort();
        out
    }
}

impl Workload for ClusterChurn {
    fn describe(&self) -> String {
        format!(
            "cluster_churn: {NODES} nodes x 1 pool shard, {SOURCES} round-robin-homed \
             sources with one standing query each, 1 hash-partitioned join on {JOIN_KEYS} keys \
             (rows per join key per leg {}), per round {SESSION_QUERIES} session push queries, \
             {BATCHES_PER_ROUND} batches x {BATCH} tuples + 2 x {JOIN_BATCH} join-leg tuples, \
             1 forced migration, input seed {}",
            JOIN_BATCH * WINDOW_ROUNDS / JOIN_KEYS,
            self.seed
        )
    }

    fn teardown(&mut self) {
        self.sys = None;
    }

    fn setup(&mut self, single_thread: bool, ledger: &mut Ledger) -> bool {
        let born = Instant::now();
        let Some(catalog) = ledger.call("catalog.build", Self::catalog) else {
            return false;
        };
        let (nodes, scheduling) = if single_thread {
            (1, Scheduling::Sequential)
        } else {
            (NODES, Scheduling::Pool)
        };
        let node = EngineConfig::new().shards(1).scheduling(scheduling);
        let mut cluster =
            Cluster::new(catalog, ClusterConfig::new().nodes(nodes).node_config(node));
        let mut standing = Vec::new();
        for i in 0..SOURCES {
            let sql = standing_shape(i).sql(&format!("c{i}"));
            let Some(q) = ledger.call("session.register", || {
                Ok(cluster.register_sql(&sql)?.expect_query())
            }) else {
                return false;
            };
            standing.push(q);
        }
        let Some(join) = ledger.call("session.register", || {
            cluster.register_hash_partitioned(JOIN_SQL, &[("jl", vec![0]), ("jr", vec![0])])
        }) else {
            return false;
        };
        self.sys = Some(Sys {
            cluster,
            standing,
            join,
            windows: (0..SOURCES).map(|_| SourceWindow::default()).collect(),
            left: SourceWindow::default(),
            right: SourceWindow::default(),
            session: Vec::new(),
            standing_read: None,
            join_read: None,
            batches_delivered: 0,
            born,
        });
        true
    }

    fn prepare(&mut self, r: usize) {
        let at = SimTime::from_secs(r as u64);
        let input = &self.pool[r % POOL];
        self.stamped = input
            .batches
            .iter()
            .map(|(src, ts)| {
                (
                    format!("c{src}"),
                    ts.iter().map(|t| to_tuple(t, at)).collect(),
                )
            })
            .collect();
        for (name, ts) in [("jl", &input.left), ("jr", &input.right)] {
            self.stamped.push((
                name.to_string(),
                ts.iter().map(|t| to_tuple(t, at)).collect(),
            ));
        }
    }

    fn round(&mut self, r: usize, ledger: &mut Ledger) -> u64 {
        let Some(sys) = self.sys.as_mut() else {
            return 0;
        };
        let input = &self.pool[r % POOL];
        let cluster = &mut sys.cluster;

        // 1. A client session registers its push queries.
        let session = cluster.open_session();
        sys.session.clear();
        for &(src, c) in &input.session {
            let shape = Shape::Above(c);
            let sql = shape.sql(&format!("c{src}"));
            let spec = QuerySpec::sql(sql.clone()).push();
            if let Some((q, sub)) = ledger.call("session.register", || {
                let q = cluster.register_in(session, spec)?.expect_query();
                Ok((q, cluster.subscribe(q)?))
            }) {
                sys.session.push(SessionQuery {
                    src,
                    shape,
                    sql,
                    q,
                    sub,
                    snap: Vec::new(),
                    drained: Vec::new(),
                });
            }
        }

        // 2. Ingest, then the epoch's heartbeat.
        let mut admitted = 0u64;
        for (name, batch) in &self.stamped {
            ledger.call("cluster.on_batch", || cluster.on_batch(name, batch));
            admitted += batch.len() as u64;
        }
        ledger.call("shard.heartbeat", || {
            cluster.heartbeat(SimTime::from_secs(r as u64))
        });

        // 3. One forced cross-node migration, round-robin over the fan-out.
        let q = sys.standing[r % SOURCES];
        if let Ok(from) = cluster.node_of_query(q) {
            let to = (from + 1) % cluster.node_count();
            ledger.call("cluster.migrate", || cluster.migrate(q, to));
        }

        // 4. Reads: the session's results (a Fresh snapshot settles the
        // query's node, then the subscription drains), closing the
        // session; a sample of the standing set.
        for s in &mut sys.session {
            s.snap = ledger
                .call("shard.snapshot", || cluster.snapshot(s.q))
                .unwrap_or_default();
            s.drained = ledger
                .call("sink.drain", || Ok(s.sub.drain()))
                .unwrap_or_default();
            sys.batches_delivered += s.sub.batches_delivered();
        }
        ledger.call("session.close_session", || cluster.close_session(session));
        let read = (r * 7 + 3) % SOURCES;
        let q = sys.standing[read];
        sys.standing_read = ledger
            .call("shard.snapshot", || cluster.snapshot(q))
            .map(|snap| (read, snap));
        sys.join_read = if r.is_multiple_of(JOIN_READ_EVERY) {
            ledger.call("shard.snapshot", || cluster.snapshot(sys.join))
        } else {
            None
        };
        admitted
    }

    fn verify(&mut self, r: usize, ledger: &mut Ledger) {
        let Some(sys) = self.sys.as_mut() else {
            return;
        };
        let input = &self.pool[r % POOL];
        for (src, batch) in &input.batches {
            sys.windows[*src].admit(r, batch);
        }
        sys.left.admit(r, &input.left);
        sys.right.admit(r, &input.right);
        for w in sys
            .windows
            .iter_mut()
            .chain([&mut sys.left, &mut sys.right])
        {
            w.expire(r);
        }
        // A session query registered this round sees only this round's
        // tuples of its source.
        for s in &sys.session {
            let this_round: Vec<(i64, f64)> = input
                .batches
                .iter()
                .filter(|(src, _)| *src == s.src)
                .flat_map(|(_, b)| b.iter().copied())
                .collect();
            let want = s.shape.expected(this_round.iter());
            let got = rows(&s.snap);
            ledger.check(got == want, || {
                format!(
                    "round {r}: `{}` returned {} rows, reference {}",
                    s.sql,
                    got.len(),
                    want.len()
                )
            });
            let mut pushed = PushLedger::default();
            pushed.apply(&s.drained);
            ledger.check(pushed.matches(&s.snap), || {
                format!(
                    "round {r}: pushed deltas of `{}` differ from its snapshot",
                    s.sql
                )
            });
        }
        if let Some((i, snap)) = &sys.standing_read {
            let shape = standing_shape(*i);
            let want = shape.expected(sys.windows[*i].live());
            let got = rows(snap);
            ledger.check(rows_match(&got, &want, shape.tolerant()), || {
                format!(
                    "round {r}: `{}` returned {} rows, reference {}",
                    shape.sql(&format!("c{i}")),
                    got.len(),
                    want.len()
                )
            });
        }
        if let Some(snap) = &sys.join_read {
            let want = Self::expected_join(&sys.left, &sys.right);
            let got = rows(snap);
            ledger.check(got == want, || {
                format!(
                    "round {r}: join returned {} rows, reference {}",
                    got.len(),
                    want.len()
                )
            });
        }
        let (out, inn) = sys.cluster.exchange_tuples();
        ledger.check(out == inn, || {
            format!("round {r}: exchange_out {out} != exchange_in {inn}")
        });
    }

    fn probe_front_end(&mut self, ledger: &mut Ledger) {
        let Some(sys) = self.sys.as_ref() else {
            return;
        };
        let catalog = sys.cluster.node(0).catalog();
        let mut statements: Vec<String> = (0..4)
            .map(|i| standing_shape(i).sql(&format!("c{i}")))
            .collect();
        statements.push(JOIN_SQL.to_string());
        for sql in &statements {
            ledger.call("sql.parse_bind", || bind(&parse(sql)?, catalog));
        }
    }

    fn counts(&mut self, out: &mut Metrics) {
        let Some(sys) = self.sys.as_ref() else {
            return;
        };
        let cluster = &sys.cluster;
        let wire = cluster.wire_stats();
        // Node rows from the merged report, pool workers from each node.
        let mut report = cluster.cluster_report();
        for n in 0..cluster.node_count() {
            report.workers.extend(cluster.node(n).telemetry().workers);
        }
        let mut census = Census {
            ops_invoked: cluster.total_ops_invoked(),
            report: Some(report),
            batches_delivered: sys.batches_delivered,
            rows_per_join_key: (JOIN_BATCH * WINDOW_ROUNDS / JOIN_KEYS) as f64,
            wire_frames: wire.frames,
            wire_bytes: wire.bytes,
            exchange: cluster.exchange_tuples(),
            migrations: cluster.migration_count(),
            wall: sys.born.elapsed(),
            ..Census::default()
        };
        for n in 0..cluster.node_count() {
            let node = cluster.node(n);
            let s = node.resident_state();
            census.resident.state_bytes += s.state_bytes;
            census.resident.window_tuples += s.window_tuples;
            census.resident.shared_taps += s.shared_taps;
            crate::add_cache(&mut census.plan_cache, node.plan_cache_stats());
        }
        census.put(out);
    }

    fn period(&self) -> usize {
        POOL
    }

    fn count_rounds(&self) -> usize {
        200
    }
}

//! `fanout`: the source-sharded ingest plane under a monitoring loop.
//!
//! A route table of [`SOURCES`] stream sources, of which [`HOT`] carry
//! traffic at skewed rates, feeds six standing queries per hot source:
//! two variants each of a value filter and a sensor filter, a grouped
//! average and a count. Variants of one template share a plan-cache entry, and queries
//! on one source share its scan+window chain. Each round admits a burst
//! of batches (pool admission returns at enqueue), polls
//! `telemetry_at(Cut)` every few batches, sends a heartbeat, and ends
//! with `quiesce` plus Fresh reads of a rotating sample of queries.
//! There are no joins.

use std::sync::Arc;
use std::time::Instant;

use aspen_catalog::{Catalog, SourceKind, SourceStats};
use aspen_sql::{bind, parse};
use aspen_stream::{Consistency, QueryHandle, StreamEngine};
use aspen_types::{DataType, Field, Schema, SimTime, Tuple};

use crate::ledger::Ledger;
use crate::shapes::{gen_tuple, to_tuple, Shape, SourceBatch, SourceWindow};
use crate::util::{rows, rows_match, Rng};
use crate::{engine_config, Census, Metrics, Workload};

/// Stream sources in the route table.
const SOURCES: usize = 100_000;
/// Sources that receive traffic, spread evenly over the route table.
const HOT: usize = 128;
const QUERIES_PER_HOT: usize = 6;
const BATCHES_PER_ROUND: usize = 16;
const BATCH: usize = 64;
/// A cut telemetry poll after every this many batches.
const POLL_EVERY: usize = 8;
/// Fresh reads per round, rotating over the standing queries with a
/// stride, so every round reads a similar mix of hot and cold sources.
const READS: usize = 4;
/// Distinct generated rounds; round `r` replays input `r % POOL`.
const POOL: usize = 128;

/// The standing queries of hot source `j`: parameterized variants of
/// two templates plus an aggregate and a count.
fn shapes(j: usize) -> [Shape; QUERIES_PER_HOT] {
    [
        Shape::Above(5.5 + (j % 9) as f64 * 10.0),
        Shape::Above(90.5 - (j % 7) as f64 * 3.0),
        Shape::SensorIs((j % 32) as i64),
        Shape::SensorIs(((j + 16) % 32) as i64),
        Shape::AvgBySensor,
        Shape::Count,
    ]
}

struct Standing {
    hot: usize,
    shape: Shape,
    sql: String,
    q: QueryHandle,
}

struct Sys {
    engine: StreamEngine,
    queries: Vec<Standing>,
    windows: Vec<SourceWindow>,
    reads: Vec<(usize, Vec<Tuple>)>,
    born: Instant,
}

pub struct Fanout {
    seed: u64,
    names: Vec<String>,
    /// Per round: `(hot source, tuples)` batches.
    pool: Vec<Vec<SourceBatch>>,
    sys: Option<Sys>,
    stamped: Vec<(usize, Vec<Tuple>)>,
}

impl Fanout {
    pub fn new(seed: u64) -> Fanout {
        let mut rng = Rng::new(seed, 0xFA0);
        let pool = (0..POOL)
            .map(|_| {
                (0..BATCHES_PER_ROUND)
                    .map(|_| {
                        let hot = rng.skewed(HOT);
                        (hot, (0..BATCH).map(|_| gen_tuple(&mut rng)).collect())
                    })
                    .collect()
            })
            .collect();
        Fanout {
            seed,
            names: (0..HOT)
                .map(|j| format!("s{}", j * (SOURCES / HOT)))
                .collect(),
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
                &format!("s{i}"),
                schema.clone(),
                SourceKind::Stream,
                SourceStats::stream(2.0),
            )?;
        }
        Ok(catalog)
    }
}

impl Workload for Fanout {
    fn describe(&self) -> String {
        let mut per_hot = vec![0usize; HOT];
        for round in &self.pool {
            for (hot, _) in round {
                per_hot[*hot] += 1;
            }
        }
        let top =
            per_hot.iter().max().copied().unwrap_or(0) as f64 / (POOL * BATCHES_PER_ROUND) as f64;
        format!(
            "fanout: {SOURCES} sources in the route table, {HOT} hot, {} standing queries \
             ({QUERIES_PER_HOT} per hot source sharing its chain), {BATCHES_PER_ROUND} batches x {BATCH} \
             tuples per 1 s round, hottest source share {top:.3}, cut telemetry poll every \
             {POLL_EVERY} batches, {READS} Fresh reads per round, input seed {}",
            HOT * QUERIES_PER_HOT,
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
        let mut engine = StreamEngine::with_config(catalog, engine_config(single_thread));
        let mut queries = Vec::new();
        for hot in 0..HOT {
            for shape in shapes(hot) {
                let sql = shape.sql(&self.names[hot]);
                let Some(q) = ledger.call("session.register", || {
                    Ok(engine.register_sql(&sql)?.expect_query())
                }) else {
                    return false;
                };
                queries.push(Standing { hot, shape, sql, q });
            }
        }
        self.sys = Some(Sys {
            engine,
            queries,
            windows: (0..HOT).map(|_| SourceWindow::default()).collect(),
            reads: Vec::new(),
            born,
        });
        true
    }

    fn prepare(&mut self, r: usize) {
        let at = SimTime::from_secs(r as u64);
        self.stamped = self.pool[r % POOL]
            .iter()
            .map(|(hot, ts)| (*hot, ts.iter().map(|t| to_tuple(t, at)).collect()))
            .collect();
    }

    fn round(&mut self, r: usize, ledger: &mut Ledger) -> u64 {
        let Some(sys) = self.sys.as_mut() else {
            return 0;
        };
        let engine = &mut sys.engine;
        let mut admitted = 0u64;
        for (i, (hot, batch)) in self.stamped.iter().enumerate() {
            ledger.call("shard.on_batch", || {
                engine.on_batch(&self.names[*hot], batch)
            });
            admitted += batch.len() as u64;
            if (i + 1) % POLL_EVERY == 0 {
                ledger.call("telemetry.poll", || {
                    Ok(engine.telemetry_at(Consistency::Cut))
                });
            }
        }
        ledger.call("shard.heartbeat", || {
            engine.heartbeat(SimTime::from_secs(r as u64))
        });
        ledger.call("executor.quiesce", || engine.quiesce());
        sys.reads.clear();
        for k in 0..READS {
            let n = sys.queries.len();
            let i = (r + k * n / READS) % n;
            let q = sys.queries[i].q;
            if let Some(snap) = ledger.call("shard.snapshot", || engine.snapshot(q)) {
                sys.reads.push((i, snap));
            }
        }
        admitted
    }

    fn verify(&mut self, r: usize, ledger: &mut Ledger) {
        let Some(sys) = self.sys.as_mut() else {
            return;
        };
        for (hot, batch) in &self.pool[r % POOL] {
            sys.windows[*hot].admit(r, batch);
        }
        for w in &mut sys.windows {
            w.expire(r);
        }
        for (i, snap) in &sys.reads {
            let s = &sys.queries[*i];
            let want = s.shape.expected(sys.windows[s.hot].live());
            let got = rows(snap);
            ledger.check(rows_match(&got, &want, s.shape.tolerant()), || {
                format!(
                    "round {r}: `{}` returned {} rows, reference {}",
                    s.sql,
                    got.len(),
                    want.len()
                )
            });
        }
    }

    fn probe_front_end(&mut self, ledger: &mut Ledger) {
        let Some(sys) = self.sys.as_ref() else {
            return;
        };
        let catalog = sys.engine.catalog();
        for s in sys.queries.iter().filter(|s| s.hot == 0) {
            ledger.call("sql.parse_bind", || bind(&parse(&s.sql)?, catalog));
        }
    }

    fn counts(&mut self, out: &mut Metrics) {
        let Some(sys) = self.sys.as_ref() else {
            return;
        };
        let engine = &sys.engine;
        let mut census = Census {
            ops_invoked: engine.total_ops_invoked(),
            report: Some(engine.telemetry_at(Consistency::Fresh)),
            resident: engine.resident_state(),
            wall: sys.born.elapsed(),
            ..Census::default()
        };
        crate::add_cache(&mut census.plan_cache, engine.plan_cache_stats());
        census.put(out);
    }

    fn period(&self) -> usize {
        POOL
    }

    fn count_rounds(&self) -> usize {
        200
    }
}

//! `building`: the paper's scenario, scaled up to many desks per lab.
//!
//! Setup builds the Moore wing through `SmartCis::with_config` (static
//! tables, the recursive `Reachable` view, the wrappers' sources) and
//! registers the standing dashboards of `smartcis_app::queries` with
//! push delivery, plus per-lab parameterized alarm variants. Each round
//! feeds one 10 s epoch of generated device and wrapper rows, sends a
//! heartbeat, moves the visitor, reads every dashboard (Fresh snapshot
//! and subscription drain) and runs one visitor guidance. A few rounds
//! also close a lab's door corridor, which deletes from the recursive
//! view. Keyed join state on the low-cardinality `room` key holds one
//! row per desk, so rows per join key equal desks per lab.

use std::time::Instant;

use aspen_sql::{bind, parse, BoundQuery};
use aspen_stream::{Consistency, DeltaBatch, QueryHandle, QuerySpec, ResultSubscription};
use aspen_types::{SimTime, Tuple, Value};
use smartcis_app::{queries, SmartCis};

use crate::ledger::Ledger;
use crate::util::{rows, rows_match, PushLedger, Rng};
use crate::{engine_config, Census, Metrics, Workload};

const LABS: usize = 4;
const DESKS_PER_LAB: usize = 24;
/// Distinct generated epochs; round `r` replays epoch `r % POOL`.
const POOL: usize = 128;
/// Timed rounds between corridor closures; the first closes in timed
/// round `CLOSE_EVERY`, and the counts are read one step after the last.
const CLOSE_EVERY: usize = 40;
const NEEDS: [&str; 6] = ["Fedora", "Windows", "MATLAB", "Ubuntu", "Excel", "Linux"];
const EPOCH_SECS: u64 = 10;

/// One generated epoch, per desk unless noted.
struct Epoch {
    lab_open: Vec<bool>,
    free: Vec<bool>,
    temp: Vec<f64>,
    watts: Vec<f64>,
    cpu: Vec<f64>,
    jobs: Vec<i64>,
    /// Source batches in the app's admission order, stamped at zero.
    batches: Vec<(&'static str, Vec<Tuple>)>,
}

/// What a dashboard should hold.
#[derive(Clone, Copy)]
enum Want {
    FreeMachines,
    RoomResources,
    TotalPower,
    /// Hot machines (`temp > thr`), optionally in one lab only.
    Temp(f64, Option<usize>),
    /// Loaded machines (`cpu_pct > thr`) over the 30 s stream window.
    Load(f64, Option<usize>),
}

struct Dash {
    sql: String,
    want: Want,
    q: QueryHandle,
    sub: ResultSubscription,
    pushed: PushLedger,
    snap: Vec<Tuple>,
    drained: Vec<DeltaBatch>,
}

struct Sys {
    app: SmartCis,
    dashes: Vec<Dash>,
    guidance: Vec<Tuple>,
    born: Instant,
}

pub struct Building {
    seed: u64,
    /// `(room, desk number, software as stored in Machines)` per desk.
    desks: Vec<(String, i64, String)>,
    pool: Vec<Epoch>,
    /// Visitor position and need for each pool slot.
    visits: Vec<(String, &'static str)>,
    /// Labs whose door corridor closes, in order.
    closing: Vec<usize>,
    sys: Option<Sys>,
    stamped: Vec<(&'static str, Vec<Tuple>)>,
}

fn room(l: usize) -> String {
    format!("lab{}", l + 1)
}

impl Building {
    pub fn new(seed: u64) -> Building {
        let wing = smartcis_app::Building::moore_wing(LABS, DESKS_PER_LAB, 100.0);
        let desks: Vec<(String, i64, String)> = wing
            .desks
            .iter()
            .map(|d| {
                (
                    d.room.clone(),
                    i64::from(d.desk),
                    d.software.replace(", ", " + "),
                )
            })
            .collect();
        let mut rng = Rng::new(seed, 0xB1D);
        let pool = (0..POOL).map(|_| Self::epoch(&mut rng, &desks)).collect();
        let halls: Vec<String> = std::iter::once("entrance".to_string())
            .chain((1..=LABS.max(2)).map(|i| format!("hall{i}")))
            .collect();
        let visits = (0..POOL)
            .map(|_| {
                (
                    halls[rng.below(halls.len())].clone(),
                    NEEDS[rng.below(NEEDS.len())],
                )
            })
            .collect();
        let mut labs: Vec<usize> = (0..LABS).collect();
        for i in (1..labs.len()).rev() {
            labs.swap(i, rng.below(i + 1));
        }
        labs.truncate(LABS / 2);
        Building {
            seed,
            desks,
            pool,
            visits,
            closing: labs,
            sys: None,
            stamped: Vec::new(),
        }
    }

    fn epoch(rng: &mut Rng, desks: &[(String, i64, String)]) -> Epoch {
        let n = desks.len();
        let lab_open: Vec<bool> = (0..LABS).map(|_| rng.chance(0.85)).collect();
        let mut e = Epoch {
            lab_open,
            free: Vec::with_capacity(n),
            temp: Vec::with_capacity(n),
            watts: Vec::with_capacity(n),
            cpu: Vec::with_capacity(n),
            jobs: Vec::with_capacity(n),
            batches: Vec::new(),
        };
        let (mut pdu, mut state, mut seats, mut temps) = (vec![], vec![], vec![], vec![]);
        for (i, (room, desk, _)) in desks.iter().enumerate() {
            let cpu = if rng.chance(0.1) {
                rng.sixteenths(85.0, 100.0)
            } else {
                rng.sixteenths(0.0, 80.0)
            };
            let temp = ((68.0 + cpu * 0.25 + rng.unit() * 2.0 - 1.0) * 16.0).round() / 16.0;
            let watts = ((40.0 + cpu * 1.6 + rng.unit() * 8.0) * 16.0).round() / 16.0;
            let jobs = rng.below(8) as i64;
            let free = rng.chance(0.6);
            let text = |s: &str| Value::Text(s.to_string());
            let at = SimTime::ZERO;
            pdu.push(Tuple::new(
                vec![
                    Value::Int(i as i64),
                    text(room),
                    Value::Int(*desk),
                    Value::Float(watts),
                ],
                at,
            ));
            state.push(Tuple::new(
                vec![
                    Value::Int(i as i64),
                    text(room),
                    Value::Int(*desk),
                    Value::Int(jobs),
                    Value::Int(rng.below(4) as i64),
                    Value::Float(cpu),
                    Value::Float(rng.sixteenths(10.0, 90.0)),
                    Value::Int(rng.below(100) as i64),
                ],
                at,
            ));
            seats.push(Tuple::new(
                vec![
                    text(room),
                    Value::Int(*desk),
                    text(if free { "free" } else { "busy" }),
                    Value::Float(if free { 600.0 } else { 40.0 }),
                ],
                at,
            ));
            temps.push(Tuple::new(
                vec![text(room), Value::Int(*desk), Value::Float(temp)],
                at,
            ));
            e.free.push(free);
            e.temp.push(temp);
            e.watts.push(watts);
            e.cpu.push(cpu);
            e.jobs.push(jobs);
        }
        let area = (0..LABS)
            .map(|l| {
                let open = e.lab_open[l];
                Tuple::new(
                    vec![
                        Value::Text(room(l)),
                        Value::Text(if open { "open" } else { "closed" }.into()),
                        Value::Float(if open { 500.0 } else { 10.0 }),
                    ],
                    SimTime::ZERO,
                )
            })
            .collect();
        let web = vec![
            Tuple::new(
                vec![
                    Value::Text("weather".into()),
                    Value::Text("outdoor_temp_f".into()),
                    Value::Float(rng.sixteenths(10.0, 100.0)),
                ],
                SimTime::ZERO,
            ),
            Tuple::new(
                vec![
                    Value::Text("calendar".into()),
                    Value::Text("meetings_this_hour".into()),
                    Value::Float(rng.below(6) as f64),
                ],
                SimTime::ZERO,
            ),
        ];
        e.batches = vec![
            ("PduPower", pdu),
            ("MachineState", state),
            ("WebFeeds", web),
            ("AreaSensors", area),
            ("SeatSensors", seats),
            ("TempSensors", temps),
        ];
        e
    }

    /// The standing dashboards: the paper's queries plus two
    /// parameterized alarm variants per lab.
    fn dashboards() -> Vec<(String, Want)> {
        let mut out = vec![
            (queries::FREE_MACHINES.to_string(), Want::FreeMachines),
            (queries::ROOM_RESOURCES.to_string(), Want::RoomResources),
            (queries::TEMP_ALARM.to_string(), Want::Temp(90.0, None)),
            (queries::LOAD_ALARM.to_string(), Want::Load(95.0, None)),
            (queries::TOTAL_POWER.to_string(), Want::TotalPower),
        ];
        for l in 0..LABS {
            let temp = 85.5 + (l % 5) as f64;
            out.push((
                format!(
                    "select t.room, t.desk, t.temp from TempSensors t \
                     where t.temp > {temp} ^ t.room = '{}'",
                    room(l)
                ),
                Want::Temp(temp, Some(l)),
            ));
            let cpu = 80.5 + (l % 4) as f64 * 5.0;
            out.push((
                format!(
                    "select m.machine_id, m.room, m.cpu_pct from MachineState m \
                     where m.cpu_pct > {cpu} ^ m.room = '{}'",
                    room(l)
                ),
                Want::Load(cpu, Some(l)),
            ));
        }
        out
    }

    /// The lab whose door corridor closes in (absolute) round `r`, if any.
    fn closure_at(&self, r: usize) -> Option<usize> {
        let k = r.checked_sub(crate::WARMUP_ROUNDS)?;
        if k == 0 || k % CLOSE_EVERY != 0 {
            return None;
        }
        self.closing.get(k / CLOSE_EVERY - 1).copied()
    }

    fn expected(&self, want: Want, r: usize) -> Vec<Vec<Value>> {
        let e = &self.pool[r % POOL];
        let lab_of = |i: usize| i / DESKS_PER_LAB;
        let mut out = Vec::new();
        match want {
            Want::FreeMachines => {
                for (i, (room, desk, sw)) in self.desks.iter().enumerate() {
                    if e.lab_open[lab_of(i)] && e.free[i] {
                        out.push(vec![
                            Value::Text(room.clone()),
                            Value::Int(*desk),
                            Value::Text(sw.clone()),
                        ]);
                    }
                }
            }
            Want::RoomResources => {
                for l in 0..LABS {
                    let ds = l * DESKS_PER_LAB..(l + 1) * DESKS_PER_LAB;
                    let watts: f64 = ds.clone().map(|i| e.watts[i]).sum();
                    let cpu: f64 = ds.clone().map(|i| e.cpu[i]).sum::<f64>() / DESKS_PER_LAB as f64;
                    let jobs: i64 = ds.map(|i| e.jobs[i]).sum();
                    out.push(vec![
                        Value::Text(room(l)),
                        Value::Float(watts),
                        Value::Float(cpu),
                        Value::Int(jobs),
                    ]);
                }
            }
            Want::TotalPower => out.push(vec![Value::Float(e.watts.iter().sum())]),
            Want::Temp(thr, lab) => {
                for (i, (room, desk, _)) in self.desks.iter().enumerate() {
                    if e.temp[i] > thr && lab.is_none_or(|l| l == lab_of(i)) {
                        out.push(vec![
                            Value::Text(room.clone()),
                            Value::Int(*desk),
                            Value::Float(e.temp[i]),
                        ]);
                    }
                }
            }
            Want::Load(thr, lab) => {
                // Stream sources keep 30 s: this epoch and the two before.
                for back in 0..3 {
                    let Some(epoch) = r.checked_sub(back).filter(|&x| x >= 1) else {
                        continue;
                    };
                    let e = &self.pool[epoch % POOL];
                    for (i, (room, _, _)) in self.desks.iter().enumerate() {
                        if e.cpu[i] > thr && lab.is_none_or(|l| l == lab_of(i)) {
                            out.push(vec![
                                Value::Int(i as i64),
                                Value::Text(room.clone()),
                                Value::Float(e.cpu[i]),
                            ]);
                        }
                    }
                }
            }
        }
        out.sort();
        out
    }

    /// Guidance for the round's visitor: every free machine with the
    /// needed software in an open lab, with the planner's route to it.
    fn expected_guidance(&self, app: &SmartCis, r: usize) -> Vec<Vec<Value>> {
        let (at, need) = &self.visits[r % POOL];
        let mut out = Vec::new();
        for (room, desk, sw) in &self.desks {
            if !app.lab_is_open(room) || app.desk_is_occupied(*desk as u32) || !sw.contains(need) {
                continue;
            }
            let door = &app.building.room(room).expect("lab exists").door;
            if let Ok(route) = app.planner.route(at, door) {
                out.push(vec![
                    Value::Int(1),
                    Value::Text(room.clone()),
                    Value::Int(*desk),
                    Value::Text(route.path),
                ]);
            }
        }
        out.sort();
        out
    }
}

impl Workload for Building {
    fn describe(&self) -> String {
        let rows = self.pool[0]
            .batches
            .iter()
            .map(|(_, b)| b.len())
            .sum::<usize>();
        format!(
            "building: {LABS} labs x {DESKS_PER_LAB} desks, {rows} input tuples per 10 s epoch, \
             {} standing push dashboards, {} corridor closures, rows per join key (room) {DESKS_PER_LAB}, \
             input seed {}",
            Self::dashboards().len(),
            self.closing.len(),
            self.seed
        )
    }

    fn teardown(&mut self) {
        self.sys = None;
    }

    fn setup(&mut self, single_thread: bool, ledger: &mut Ledger) -> bool {
        let born = Instant::now();
        let Some(mut app) = ledger.call("smartcis.with_config", || {
            SmartCis::with_config(LABS, DESKS_PER_LAB, self.seed, engine_config(single_thread))
        }) else {
            return false;
        };
        let mut dashes = Vec::new();
        for (sql, want) in Self::dashboards() {
            let spec = QuerySpec::sql(sql.clone()).push();
            let Some((q, sub)) = ledger.call("session.register", || {
                let q = app.register(spec)?.expect_query();
                Ok((q, app.subscribe(q)?))
            }) else {
                return false;
            };
            dashes.push(Dash {
                sql,
                want,
                q,
                sub,
                pushed: PushLedger::default(),
                snap: Vec::new(),
                drained: Vec::new(),
            });
        }
        self.sys = Some(Sys {
            app,
            dashes,
            guidance: Vec::new(),
            born,
        });
        true
    }

    fn prepare(&mut self, r: usize) {
        let now = SimTime::from_secs(r as u64 * EPOCH_SECS);
        self.stamped = self.pool[r % POOL]
            .batches
            .iter()
            .map(|(src, b)| (*src, b.iter().map(|t| t.with_timestamp(now)).collect()))
            .collect();
    }

    fn round(&mut self, r: usize, ledger: &mut Ledger) -> u64 {
        let closing = self.closure_at(r);
        let Some(sys) = self.sys.as_mut() else {
            return 0;
        };
        let Sys {
            app,
            dashes,
            guidance,
            ..
        } = sys;
        let now = SimTime::from_secs(r as u64 * EPOCH_SECS);
        app.now = now;
        let mut admitted = 0u64;
        for (src, batch) in &self.stamped {
            ledger.call("shard.on_batch", || app.engine.on_batch(src, batch));
            admitted += batch.len() as u64;
        }
        ledger.call("shard.heartbeat", || app.engine.heartbeat(now));
        if let Some(l) = closing {
            let door = format!("door_{}", room(l));
            let hall = app
                .building
                .segments
                .iter()
                .find(|s| s.b == door)
                .map(|s| s.a.clone())
                .unwrap_or_default();
            ledger.call("recursive.close_corridor", || {
                app.close_corridor(&hall, &door)
            });
        }
        let (at, need) = &self.visits[r % POOL];
        ledger.call("shard.on_batch", || app.set_visitor(1, at, need));
        admitted += 1;
        ledger.call("executor.quiesce", || app.engine.quiesce());
        for d in dashes.iter_mut() {
            d.snap = ledger
                .call("shard.snapshot", || app.engine.snapshot(d.q))
                .unwrap_or_default();
            d.drained = ledger
                .call("sink.drain", || Ok(d.sub.drain()))
                .unwrap_or_default();
        }
        *guidance = ledger
            .call("smartcis.visitor_guidance", || app.visitor_guidance())
            .map(|(_, rows)| rows)
            .unwrap_or_default();
        admitted
    }

    fn verify(&mut self, r: usize, ledger: &mut Ledger) {
        let Some(mut sys) = self.sys.take() else {
            return;
        };
        for d in &mut sys.dashes {
            d.pushed.apply(&d.drained);
            ledger.check(d.pushed.matches(&d.snap), || {
                format!(
                    "round {r}: pushed deltas differ from snapshot of `{}`",
                    d.sql
                )
            });
            let tolerant = matches!(d.want, Want::RoomResources | Want::TotalPower);
            let want = self.expected(d.want, r);
            let got = rows(&d.snap);
            ledger.check(rows_match(&got, &want, tolerant), || {
                format!(
                    "round {r}: `{}` returned {} rows, reference {}",
                    d.sql,
                    got.len(),
                    want.len()
                )
            });
        }
        let want = self.expected_guidance(&sys.app, r);
        let got = rows(&sys.guidance);
        ledger.check(got == want, || {
            format!(
                "round {r}: guidance returned {} rows, reference {}",
                got.len(),
                want.len()
            )
        });
        self.sys = Some(sys);
    }

    fn probe_front_end(&mut self, ledger: &mut Ledger) {
        let Some(sys) = self.sys.as_ref() else {
            return;
        };
        let catalog = &sys.app.catalog;
        let mut statements: Vec<String> = Self::dashboards().into_iter().map(|(s, _)| s).collect();
        statements.push(queries::VISITOR_GUIDANCE.to_string());
        for sql in &statements {
            ledger.call("sql.parse_bind", || bind(&parse(sql)?, catalog));
        }
        if let Ok(BoundQuery::Select(b)) =
            parse(queries::VISITOR_GUIDANCE).and_then(|s| bind(&s, catalog))
        {
            ledger.call("optimizer.optimize", || {
                aspen_optimizer::optimize_named(&b.graph, catalog, "OpenMachineInfo")
            });
        }
    }

    fn counts(&mut self, out: &mut Metrics) {
        let Some(sys) = self.sys.as_ref() else {
            return;
        };
        let engine = &sys.app.engine;
        let mut census = Census {
            ops_invoked: engine.total_ops_invoked(),
            report: Some(engine.telemetry_at(Consistency::Fresh)),
            resident: engine.resident_state(),
            batches_delivered: sys.dashes.iter().map(|d| d.sub.batches_delivered()).sum(),
            rows_per_join_key: DESKS_PER_LAB as f64,
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
        CLOSE_EVERY * (self.closing.len() + 1)
    }
}

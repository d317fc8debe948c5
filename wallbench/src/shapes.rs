//! The fan-out query shapes shared by `fanout` and `cluster_churn`, and
//! their plain-Rust reference over a per-source sliding window.

use std::collections::VecDeque;

use aspen_types::{SimTime, Tuple, Value};

use crate::util::Rng;

/// Default window of a stream source: 30 s, one round per second.
pub const WINDOW_ROUNDS: usize = 30;
/// Distinct `sensor` values in generated fan-out tuples.
pub const SENSORS: usize = 32;

/// One standing fan-out query over source `src` with columns
/// `(sensor int, value float)`.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// `sensor, value` where `value > c`.
    Above(f64),
    /// `value` where `sensor = k`.
    SensorIs(i64),
    /// `sensor, avg(value)` grouped by sensor.
    AvgBySensor,
    /// `count(*)`.
    Count,
}

impl Shape {
    pub fn sql(self, src: &str) -> String {
        match self {
            Shape::Above(c) => format!("select r.sensor, r.value from {src} r where r.value > {c}"),
            Shape::SensorIs(k) => format!("select r.value from {src} r where r.sensor = {k}"),
            Shape::AvgBySensor => {
                format!("select r.sensor, avg(r.value) from {src} r group by r.sensor")
            }
            Shape::Count => format!("select count(*) from {src} r"),
        }
    }

    /// Float aggregates compare within a tolerance.
    pub fn tolerant(self) -> bool {
        matches!(self, Shape::AvgBySensor)
    }

    /// The query's result over the live `(sensor, value)` tuples, sorted.
    pub fn expected<'a>(self, live: impl Iterator<Item = &'a (i64, f64)>) -> Vec<Vec<Value>> {
        let mut out: Vec<Vec<Value>> = match self {
            Shape::Above(c) => live
                .filter(|(_, v)| *v > c)
                .map(|&(s, v)| vec![Value::Int(s), Value::Float(v)])
                .collect(),
            Shape::SensorIs(k) => live
                .filter(|(s, _)| *s == k)
                .map(|&(_, v)| vec![Value::Float(v)])
                .collect(),
            Shape::AvgBySensor => {
                let mut sums = [(0.0f64, 0u64); SENSORS];
                for &(s, v) in live {
                    sums[s as usize].0 += v;
                    sums[s as usize].1 += 1;
                }
                sums.iter()
                    .enumerate()
                    .filter(|(_, (_, n))| *n > 0)
                    .map(|(s, (sum, n))| vec![Value::Int(s as i64), Value::Float(sum / *n as f64)])
                    .collect()
            }
            Shape::Count => vec![vec![Value::Int(live.count() as i64)]],
        };
        out.sort();
        out
    }
}

/// A generated batch: source index and `(sensor, value)` tuples.
pub type SourceBatch = (usize, Vec<(i64, f64)>);

/// One generated fan-out tuple.
pub fn gen_tuple(rng: &mut Rng) -> (i64, f64) {
    (rng.below(SENSORS) as i64, rng.sixteenths(0.0, 100.0))
}

pub fn to_tuple(&(sensor, value): &(i64, f64), at: SimTime) -> Tuple {
    Tuple::new(vec![Value::Int(sensor), Value::Float(value)], at)
}

/// What one source's default window holds: the tuples of its last
/// [`WINDOW_ROUNDS`] rounds (a 30 s range keeps `ts > now - 30 s`).
#[derive(Default)]
pub struct SourceWindow {
    rounds: VecDeque<(usize, Vec<(i64, f64)>)>,
}

impl SourceWindow {
    pub fn admit(&mut self, round: usize, tuples: &[(i64, f64)]) {
        match self.rounds.back_mut() {
            Some((r, v)) if *r == round => v.extend_from_slice(tuples),
            _ => self.rounds.push_back((round, tuples.to_vec())),
        }
    }

    /// Drop what a heartbeat at round `now` expires.
    pub fn expire(&mut self, now: usize) {
        while self
            .rounds
            .front()
            .is_some_and(|(r, _)| r + WINDOW_ROUNDS <= now)
        {
            self.rounds.pop_front();
        }
    }

    pub fn live(&self) -> impl Iterator<Item = &(i64, f64)> {
        self.rounds.iter().flat_map(|(_, v)| v.iter())
    }
}

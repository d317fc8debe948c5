//! The benchmark's own span recorder and operation tally.
//!
//! Every call the benchmark makes into the program goes through
//! [`Ledger::call`]: it counts the operation, records an `Err` as a
//! failure, and — when tracing is on — keeps one span (layer, round,
//! parent, start, end) in memory. Spans sit at the benchmark's side of
//! each layer boundary; nothing inside the program is instrumented.
//! Tracing is off in the timed runs, where a call costs one branch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use aspen_types::Result;

use crate::util::quantile;

/// Layer name of the span that encloses one timed round.
pub const ROUND: &str = "bench.round";
/// The part of a round's wall time no timed call covers.
pub const UNATTRIBUTED: &str = "bench.unattributed";

/// Where a span was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Outside timed rounds: building the system and the direct
    /// front-end probes.
    Setup,
    /// Inside timed round `n`.
    Round(u32),
}

#[derive(Debug, Clone)]
struct Span {
    layer: &'static str,
    phase: Phase,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Ledger {
    tracing: bool,
    origin: Instant,
    phase: Phase,
    spans: Vec<Span>,
    open: Vec<usize>,
    pub attempted: u64,
    pub failed: u64,
    errors: Vec<String>,
}

impl Ledger {
    /// A ledger with tracing off.
    pub fn new() -> Ledger {
        Ledger {
            tracing: false,
            origin: Instant::now(),
            phase: Phase::Setup,
            spans: Vec::new(),
            open: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    pub fn tracing(&self) -> bool {
        self.tracing
    }

    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    pub fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, layer: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            phase: self.phase,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: usize) {
        let end = self.now_ns();
        self.spans[id].end_ns = end;
        self.open.pop();
    }

    /// Open the enclosing span of timed round `r`; every call until
    /// [`Ledger::end_round`] becomes its child.
    pub fn begin_round(&mut self, r: u32) {
        self.phase = Phase::Round(r);
        if self.tracing {
            self.enter(ROUND);
        }
    }

    pub fn end_round(&mut self) {
        if self.tracing {
            let id = *self.open.last().expect("a round span is open");
            self.exit(id);
        }
    }

    /// One call into the program: counted, failures recorded, timed as a
    /// span of `layer` when tracing.
    pub fn call<T>(&mut self, layer: &'static str, f: impl FnOnce() -> Result<T>) -> Option<T> {
        self.attempted += 1;
        let out = if self.tracing {
            let id = self.enter(layer);
            let out = f();
            self.exit(id);
            out
        } else {
            f()
        };
        match out {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{layer}: {e}"));
                None
            }
        }
    }

    /// One reference check of the program's output.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    pub fn errors(&self) -> &[String] {
        &self.errors
    }

    /// Per-layer statistics of every closed span, with self time (span
    /// duration minus its children's) and the unattributed remainder of
    /// each round as its own layer.
    pub fn summarize(&self) -> LayerTable {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut table = LayerTable::default();
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                continue;
            }
            let self_ns = s.dur_ns().saturating_sub(child_ns[i]);
            if s.layer == ROUND {
                table.round_wall_ns += s.dur_ns();
                table.rounds += 1;
                table.layer(UNATTRIBUTED).add(Phase::Round(0), self_ns);
            } else {
                table.layer(s.layer).add(s.phase, self_ns);
            }
        }
        table
    }

    /// Write every span as one tab-separated line.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("id\tlayer\tphase\tparent\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let phase = match s.phase {
                Phase::Setup => "setup".to_string(),
                Phase::Round(r) => format!("round{r}"),
            };
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{phase}\t{parent}\t{}\t{}",
                s.layer, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Self-time samples of one layer, split by phase.
#[derive(Debug, Default)]
pub struct LayerStats {
    setup_calls: u64,
    round_calls: u64,
    setup_ns: u64,
    round_ns: u64,
    samples_us: Vec<f64>,
}

impl LayerStats {
    fn add(&mut self, phase: Phase, self_ns: u64) {
        match phase {
            Phase::Round(_) => {
                self.round_calls += 1;
                self.round_ns += self_ns;
            }
            Phase::Setup => {
                self.setup_calls += 1;
                self.setup_ns += self_ns;
            }
        }
        self.samples_us.push(self_ns as f64 / 1e3);
    }

    pub fn count(&self) -> u64 {
        self.setup_calls + self.round_calls
    }

    pub fn self_s(&self) -> f64 {
        (self.setup_ns + self.round_ns) as f64 / 1e9
    }

    pub fn quantile_us(&self, q: f64) -> f64 {
        let mut v = self.samples_us.clone();
        v.sort_by(f64::total_cmp);
        quantile(&v, q)
    }
}

#[derive(Debug, Default)]
pub struct LayerTable {
    layers: BTreeMap<&'static str, LayerStats>,
    round_wall_ns: u64,
    rounds: u64,
}

impl LayerTable {
    fn layer(&mut self, name: &'static str) -> &mut LayerStats {
        self.layers.entry(name).or_default()
    }

    pub fn get(&self, name: &str) -> Option<&LayerStats> {
        self.layers.get(name)
    }

    /// The ledger as text: per-layer self time inside rounds, which with
    /// `bench.unattributed` sums to the rounds' wall time, plus the calls
    /// made during setup and the front-end probes.
    pub fn render(&self, workload: &str) -> String {
        let wall_s = self.round_wall_ns as f64 / 1e9;
        let mut out = format!(
            "ledger[{workload}]: {} rounds, {:.4} s round wall\n{:<28} {:>9} {:>11} {:>7} {:>9} {:>11}\n",
            self.rounds,
            wall_s,
            "layer",
            "rnd_calls",
            "rnd_self_s",
            "share",
            "set_calls",
            "set_self_s"
        );
        let mut sum_ns = 0u64;
        for (name, s) in &self.layers {
            sum_ns += s.round_ns;
            let share = if self.round_wall_ns > 0 {
                100.0 * s.round_ns as f64 / self.round_wall_ns as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{name:<28} {:>9} {:>11.4} {:>6.1}% {:>9} {:>11.4}",
                s.round_calls,
                s.round_ns as f64 / 1e9,
                share,
                s.setup_calls,
                s.setup_ns as f64 / 1e9
            );
        }
        let _ = writeln!(
            out,
            "{:<28} {:>9} {:>11.4} (round wall {:.4} s)",
            "sum of round self time",
            "",
            sum_ns as f64 / 1e9,
            wall_s
        );
        out
    }
}

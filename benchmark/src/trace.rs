//! Spans and per-layer samples of the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer; they stay in memory and are written out once the run is over.
//! Calls made once per event are not given a span each: they are aggregated
//! per cycle and name into one span carrying `count` and `busy_ns`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

/// Span id of "no parent".
pub const ROOT: u32 = 0;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// 1-based id, unique within the run.
    pub id: u32,
    /// Id of the span that caused this one ([`ROOT`] for the run span).
    pub parent: u32,
    /// Layer-qualified name.
    pub name: &'static str,
    /// Global cycle number (`round × cycles + k`), `-1` outside any cycle.
    pub cycle: i64,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Calls aggregated into the span.
    pub count: u64,
    /// Time spent inside those calls.
    pub busy_ns: u64,
}

/// Calls of one name aggregated over a phase of a cycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct Aggregate {
    first_ns: u64,
    last_ns: u64,
    count: u64,
    busy_ns: u64,
}

impl Aggregate {
    /// `count` back-to-back calls that together ran from `start_ns` to
    /// `end_ns`.
    pub fn batch(start_ns: u64, end_ns: u64, count: u64) -> Self {
        Aggregate {
            first_ns: start_ns,
            last_ns: end_ns,
            count,
            busy_ns: end_ns - start_ns,
        }
    }

    /// Adds one call that ran from `start_ns` to `end_ns`.
    pub fn add(&mut self, start_ns: u64, end_ns: u64) {
        if self.count == 0 {
            self.first_ns = start_ns;
        }
        self.last_ns = end_ns;
        self.count += 1;
        self.busy_ns += end_ns - start_ns;
    }
}

/// The samples one round contributed, per span name, in replay order: one
/// `busy_ns` per recorded span plus the number of calls behind them. Rounds
/// replay identical work, so sample `i` of a name is the same call (or the
/// same cycle's aggregate) in every round.
#[derive(Debug, Clone, Default)]
pub struct RoundSamples {
    busy_ns: BTreeMap<&'static str, Vec<u64>>,
    calls: BTreeMap<&'static str, u64>,
}

/// Span and sample recorder of one traced run.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    rounds: Vec<RoundSamples>,
    sampling: bool,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            rounds: Vec::new(),
            sampling: false,
        }
    }
}

impl Recorder {
    /// Nanoseconds since the recorder was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a measured round: spans closed from here on also feed the
    /// round's samples. Spans outside measured rounds (set-up, the warm-up
    /// round) are written to the trace but not sampled.
    pub fn begin_round(&mut self) {
        self.rounds.push(RoundSamples::default());
        self.sampling = true;
    }

    /// Ends the measured round.
    pub fn end_round(&mut self) {
        self.sampling = false;
    }

    /// Opens a span now; close it with [`Recorder::close`].
    pub fn open(&mut self, parent: u32, name: &'static str, cycle: i64) -> u32 {
        let start_ns = self.now();
        self.push(Span {
            id: 0,
            parent,
            name,
            cycle,
            start_ns,
            end_ns: start_ns,
            count: 0,
            busy_ns: 0,
        })
    }

    /// Closes a span opened with [`Recorder::open`] now; returns how long it
    /// was open, in nanoseconds.
    pub fn close(&mut self, id: u32) -> u64 {
        let end_ns = self.now();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns;
        span.count = 1;
        span.busy_ns = end_ns - span.start_ns;
        let (name, busy_ns) = (span.name, span.busy_ns);
        self.sample(name, busy_ns, 1);
        busy_ns
    }

    /// Records a finished call.
    pub fn call(
        &mut self,
        parent: u32,
        name: &'static str,
        cycle: i64,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.aggregate(parent, name, cycle, Aggregate::batch(start_ns, end_ns, 1));
    }

    /// Records the aggregate of a phase's calls (no span if there were none).
    pub fn aggregate(&mut self, parent: u32, name: &'static str, cycle: i64, agg: Aggregate) {
        if agg.count > 0 {
            self.push(Span {
                id: 0,
                parent,
                name,
                cycle,
                start_ns: agg.first_ns,
                end_ns: agg.last_ns,
                count: agg.count,
                busy_ns: agg.busy_ns,
            });
        }
        // An empty aggregate still yields a sample, so that sample `i` stays
        // cycle `i` in every round.
        self.sample(name, agg.busy_ns, agg.count);
    }

    /// Stores `span` under the next id and returns that id.
    fn push(&mut self, mut span: Span) -> u32 {
        let id = self.spans.len() as u32 + 1;
        span.id = id;
        self.spans.push(span);
        id
    }

    fn sample(&mut self, name: &'static str, busy_ns: u64, calls: u64) {
        if !self.sampling {
            return;
        }
        let round = self.rounds.last_mut().expect("sampling implies a round");
        round.busy_ns.entry(name).or_default().push(busy_ns);
        *round.calls.entry(name).or_default() += calls;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of measured rounds.
    pub fn rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Best-of-rounds samples of `name` (element-wise minimum over the
    /// measured rounds) and the calls per round behind them.
    pub fn best(&self, name: &str) -> (Vec<f64>, u64) {
        let lists: Vec<&Vec<u64>> = self
            .rounds
            .iter()
            .filter_map(|round| round.busy_ns.get(name))
            .collect();
        let len = lists.iter().map(|list| list.len()).min().unwrap_or(0);
        let best = (0..len)
            .map(|i| lists.iter().map(|list| list[i]).min().expect("non-empty") as f64)
            .collect();
        let calls = self
            .rounds
            .first()
            .and_then(|round| round.calls.get(name))
            .copied()
            .unwrap_or(0);
        (best, calls)
    }

    /// Mean nanoseconds per call of `name`, best of rounds; `None` if no
    /// measured round recorded a call of that name.
    pub fn mean_ns(&self, name: &str) -> Option<f64> {
        let (best, calls) = self.best(name);
        (calls > 0).then(|| best.iter().sum::<f64>() / calls as f64)
    }

    /// Median nanoseconds of the spans of `name`, best of rounds; `None` if
    /// no measured round recorded such a span.
    pub fn p50_ns(&self, name: &str) -> Option<f64> {
        let (best, _) = self.best(name);
        (!best.is_empty()).then(|| crate::stats::median(&best))
    }

    /// Share of the cycles' wall time that their leaf spans account for.
    pub fn coverage(&self) -> f64 {
        let mut has_child = vec![false; self.spans.len() + 1];
        for span in &self.spans {
            has_child[span.parent as usize] = true;
        }
        let (mut leaf_busy, mut cycle_wall) = (0u64, 0u64);
        for span in self.spans.iter().filter(|s| s.cycle >= 0) {
            if span.name == "cycle" {
                cycle_wall += span.end_ns - span.start_ns;
            } else if !has_child[span.id as usize] {
                leaf_busy += span.busy_ns;
            }
        }
        crate::stats::ratio(leaf_busy as f64, cycle_wall as f64)
    }

    /// Writes one JSON object per span to `path`. `self_ns` is the span's
    /// duration minus the busy time of its children.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut children_busy = vec![0u64; self.spans.len() + 1];
        for span in &self.spans {
            children_busy[span.parent as usize] += span.busy_ns;
        }
        let mut out = String::new();
        for span in &self.spans {
            let self_ns = span.busy_ns.saturating_sub(children_busy[span.id as usize]);
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"cycle\": {}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"count\": {}, \"busy_ns\": {}, \"self_ns\": {}}}",
                span.id,
                span.parent,
                span.name,
                span.cycle,
                span.start_ns,
                span.end_ns,
                span.count,
                span.busy_ns,
                self_ns
            )
            .expect("writing to a String");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

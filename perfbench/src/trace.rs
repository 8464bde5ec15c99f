//! The benchmark's span recorder.
//!
//! Spans are recorded from the benchmark's own files around calls into
//! the program's layers: workload → timed step → layer call. A span is
//! a name, a start, an end and a parent, kept in memory and written out
//! when the run ends. Where a layer sits behind one public call, a
//! *derived* span carries the program's own telemetry timing for it as
//! a child of that call (its interval is placed at the call's start).
//!
//! With tracing off every method is a pass-through, so the untraced
//! end-to-end runs pay nothing for it.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Index of a span in the recorder (`usize::MAX` when tracing is off).
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Layer or step name.
    pub name: String,
    /// The span that caused it.
    pub parent: Option<SpanId>,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Taken from the program's telemetry rather than timed here.
    pub derived: bool,
}

impl SpanRec {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

const OFF: SpanId = usize::MAX;

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Is tracing on?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<SpanRec>> {
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking thread")
    }

    /// Open a span under `parent`; close it with [`Tracer::close`].
    pub fn open(&self, name: &str, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return OFF;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans();
        spans.push(SpanRec {
            name: name.to_string(),
            parent: parent.filter(|p| *p != OFF),
            start_ns,
            end_ns: start_ns,
            derived: false,
        });
        spans.len() - 1
    }

    /// Close a span opened by [`Tracer::open`].
    pub fn close(&self, id: SpanId) {
        if id != OFF {
            let end = self.now_ns();
            self.spans()[id].end_ns = end;
        }
    }

    /// Time `f` as the span `name` under `parent`; `f` receives the new
    /// span's id so that derived children can hang off it.
    pub fn call<T>(&self, parent: SpanId, name: &str, f: impl FnOnce(SpanId) -> T) -> T {
        let id = self.open(name, Some(parent));
        let out = f(id);
        self.close(id);
        out
    }

    /// Record a derived child of `parent` lasting `dur`.
    pub fn derived(&self, parent: SpanId, name: &str, dur: Duration) {
        if parent == OFF || dur.is_zero() {
            return;
        }
        let mut spans = self.spans();
        let start_ns = spans[parent].start_ns;
        let dur_ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
        spans.push(SpanRec {
            name: name.to_string(),
            parent: Some(parent),
            start_ns,
            end_ns: start_ns.saturating_add(dur_ns),
            derived: true,
        });
    }

    /// Record a span with known endpoints (`Instant`s taken elsewhere,
    /// e.g. by the load generator's connection threads).
    pub fn record(
        &self,
        name: &str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return OFF;
        }
        let at = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        let mut spans = self.spans();
        spans.push(SpanRec {
            name: name.to_string(),
            parent: parent.filter(|p| *p != OFF),
            start_ns: at(start),
            end_ns: at(end),
            derived: false,
        });
        spans.len() - 1
    }

    /// A copy of every span recorded so far.
    pub fn snapshot(&self) -> Vec<SpanRec> {
        self.spans().clone()
    }
}

/// Wall time of one timed step split into layer self-times plus an
/// unattributed residual. The parts add up to `wall_ns` exactly.
#[derive(Debug, Clone)]
pub struct Breakdown {
    /// Step name.
    pub step: String,
    /// Step wall time.
    pub wall_ns: u64,
    /// Layer name → self time (its span minus its children's spans).
    pub self_ns: BTreeMap<String, i64>,
    /// Step wall minus the layer spans directly under the step.
    pub unattributed_ns: i64,
}

impl Breakdown {
    /// Unattributed share of the step's wall time.
    pub fn unattributed_share(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.unattributed_ns as f64 / self.wall_ns as f64
        }
    }

    /// Sum of the parts (layer self-times plus the residual).
    pub fn parts_ns(&self) -> i64 {
        self.self_ns.values().sum::<i64>() + self.unattributed_ns
    }
}

/// Break the step span `step` into layer self-times: every descendant
/// contributes its duration minus its direct children's durations.
pub fn breakdown(spans: &[SpanRec], step: SpanId) -> Breakdown {
    let mut children: BTreeMap<SpanId, Vec<SpanId>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(i);
        }
    }
    let dur = |i: SpanId| spans[i].dur_ns() as i64;
    let kids_total = |i: SpanId| -> i64 {
        children
            .get(&i)
            .map_or(0, |k| k.iter().map(|c| dur(*c)).sum())
    };
    let mut self_ns: BTreeMap<String, i64> = BTreeMap::new();
    let mut stack: Vec<SpanId> = children.get(&step).cloned().unwrap_or_default();
    while let Some(i) = stack.pop() {
        *self_ns.entry(spans[i].name.clone()).or_default() += dur(i) - kids_total(i);
        stack.extend(children.get(&i).into_iter().flatten());
    }
    Breakdown {
        step: spans[step].name.clone(),
        wall_ns: spans[step].dur_ns(),
        unattributed_ns: dur(step) - kids_total(step),
        self_ns,
    }
}

/// Inclusive time of every span named `name` that descends from `root`
/// (or anywhere, for `None`), in milliseconds.
pub fn total_ms(spans: &[SpanRec], name: &str, root: Option<SpanId>) -> f64 {
    let under = |mut i: SpanId| -> bool {
        let Some(root) = root else { return true };
        loop {
            if i == root {
                return true;
            }
            match spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        }
    };
    spans
        .iter()
        .enumerate()
        .filter(|(i, s)| s.name == name && under(*i))
        .map(|(_, s)| s.dur_ns() as f64 / 1e6)
        .sum()
}

/// Render the spans as a JSON document (one object per span).
pub fn spans_json(spans: &[SpanRec]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            format!(
                "{{\"id\":{i},\"parent\":{},\"name\":{:?},\"start_ns\":{},\"end_ns\":{},\"derived\":{}}}",
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.start_ns,
                s.end_ns,
                s.derived
            )
        })
        .collect();
    format!("{{\"spans\":[\n{}\n]}}\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parts_add_up_to_the_step_wall() {
        let t = Tracer::new(true);
        let root = t.open("workload", None);
        let step = t.open("step", Some(root));
        t.call(step, "outer", |id| {
            t.derived(id, "inner", Duration::from_micros(300));
            std::thread::sleep(Duration::from_millis(2));
        });
        t.call(step, "other", |_| {
            std::thread::sleep(Duration::from_millis(1))
        });
        std::thread::sleep(Duration::from_millis(1));
        t.close(step);
        t.close(root);
        let b = breakdown(&t.snapshot(), step);
        assert_eq!(b.parts_ns(), b.wall_ns as i64);
        assert_eq!(b.self_ns["inner"], 300_000);
        assert!(b.unattributed_ns > 0);
        assert!(total_ms(&t.snapshot(), "outer", Some(root)) >= 2.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let s = t.open("step", None);
        assert_eq!(t.call(s, "layer", |_| 7), 7);
        t.close(s);
        assert!(t.snapshot().is_empty());
    }
}

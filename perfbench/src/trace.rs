//! In-memory spans recorded by the benchmark around its calls into the
//! workspace's public functions (the program itself carries no tracing).
//!
//! A span has a name, start, end, parent span and a request/batch id. A
//! layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use std::cell::OnceCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

/// Handle of an open span (index into the span list).
#[derive(Clone, Copy)]
pub struct Open(usize);

#[derive(Clone)]
struct Span {
    name: u32,
    start_ns: u64,
    end_ns: u64,
    /// Index of the parent span, if any.
    parent: Option<usize>,
    id: u64,
}

/// Span recorder. A disabled tracer records nothing and costs one branch
/// per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    names: Vec<String>,
    index: HashMap<String, u32>,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Self times, computed once recording is over.
    self_us: OnceCell<Vec<f64>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            names: Vec::new(),
            index: HashMap::new(),
            spans: Vec::new(),
            stack: Vec::new(),
            self_us: OnceCell::new(),
        }
    }

    /// A tracer for another thread sharing this one's clock and name table
    /// (merge it back with [`Tracer::absorb`]).
    pub fn fork(&self) -> Self {
        Self {
            enabled: self.enabled,
            epoch: self.epoch,
            names: self.names.clone(),
            index: self.index.clone(),
            spans: Vec::new(),
            stack: Vec::new(),
            self_us: OnceCell::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        self.names.push(name.to_string());
        let i = (self.names.len() - 1) as u32;
        self.index.insert(name.to_string(), i);
        i
    }

    /// Open a span under the innermost open span.
    pub fn begin(&mut self, name: &str, id: u64) -> Open {
        if !self.enabled {
            return Open(usize::MAX);
        }
        self.self_us.take();
        let name = self.intern(name);
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            id,
        });
        let i = self.spans.len() - 1;
        self.stack.push(i);
        Open(i)
    }

    pub fn end(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let end_ns = self.ns(Instant::now());
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(open.0), "spans close in LIFO order");
        self.spans[open.0].end_ns = end_ns;
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &str, id: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, id);
        let out = f();
        self.end(open);
        out
    }

    /// Record a span whose bounds were measured elsewhere (e.g. the queue
    /// and execution times a serving reply carries). Returns its handle so
    /// children can name it as their parent.
    pub fn record(
        &mut self,
        name: &str,
        id: u64,
        parent: Option<Open>,
        start: Instant,
        end: Instant,
    ) -> Open {
        if !self.enabled {
            return Open(usize::MAX);
        }
        self.self_us.take();
        let name = self.intern(name);
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: parent.map(|p| p.0),
            id,
        });
        Open(self.spans.len() - 1)
    }

    /// Append another thread's spans (parents re-indexed).
    pub fn absorb(&mut self, other: Tracer) {
        self.self_us.take();
        let base = self.spans.len();
        for s in other.spans {
            let name = self.intern(&other.names[s.name as usize]);
            self.spans.push(Span {
                name,
                parent: s.parent.map(|p| p + base),
                ..s
            });
        }
    }

    /// Self time in µs of every span, in recording order.
    fn self_times_us(&self) -> &[f64] {
        self.self_us.get_or_init(|| self.compute_self_times_us())
    }

    fn compute_self_times_us(&self) -> Vec<f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut iv: Vec<(u64, u64)> = children[i]
                    .iter()
                    .map(|&c| {
                        let c = &self.spans[c];
                        (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                    })
                    .filter(|(a, b)| b > a)
                    .collect();
                iv.sort_unstable();
                let (mut covered, mut cur) = (0u64, None::<(u64, u64)>);
                for (a, b) in iv {
                    match cur {
                        Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                        _ => {
                            if let Some((ca, cb)) = cur {
                                covered += cb - ca;
                            }
                            cur = Some((a, b));
                        }
                    }
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
                (s.end_ns - s.start_ns).saturating_sub(covered) as f64 / 1e3
            })
            .collect()
    }

    /// Self times (µs) of every span named `name`, grouped by span id.
    pub fn self_us_by_id(&self, name: &str) -> BTreeMap<u64, f64> {
        let Some(&n) = self.index.get(name) else {
            return BTreeMap::new();
        };
        let st = self.self_times_us();
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == n {
                *out.entry(s.id).or_insert(0.0) += st[i];
            }
        }
        out
    }

    /// Self times (µs) of every span named `name`.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        self.self_us_by_id(name).into_values().collect()
    }

    /// Durations (µs) of every span named `name`, grouped by span id.
    pub fn total_us_by_id(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        if let Some(&n) = self.index.get(name) {
            for s in self.spans.iter().filter(|s| s.name == n) {
                *out.entry(s.id).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 / 1e3;
            }
        }
        out
    }

    /// Count, total and self time per span name, grouped by layer (the
    /// name's first dot-separated component), as a text table.
    pub fn self_time_table(&self) -> String {
        let st = self.self_times_us();
        let mut rows: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let r = rows.entry(&self.names[s.name as usize]).or_default();
            r.0 += 1;
            r.1 += (s.end_ns - s.start_ns) as f64 / 1e3;
            r.2 += st[i];
        }
        let mut out = format!(
            "{:<12} {:<44} {:>9} {:>14} {:>14}\n",
            "layer", "span", "count", "total_us", "self_us"
        );
        for (name, (n, total, own)) in rows {
            let layer = name.split('.').next().unwrap_or(name);
            let _ = writeln!(
                out,
                "{layer:<12} {name:<44} {n:>9} {total:>14.1} {own:>14.1}"
            );
        }
        out
    }

    /// All spans as JSON lines: name, start/end (µs since the run's epoch),
    /// parent (line index or -1) and id.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{},\"id\":{}}}",
                self.names[s.name as usize],
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                parent,
                s.id
            );
        }
        out
    }
}

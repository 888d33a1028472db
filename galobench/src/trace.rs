//! Spans recorded from outside the program.
//!
//! The benchmark wraps each call into a GALO layer in a span: name,
//! start, end, parent span and the id of the operation (one streamed
//! query, one serve, one learning cycle) it belongs to. Spans stay in
//! memory and are written out when the run ends. A span's self time is
//! its duration minus the part of it that its child spans cover; a
//! layer's self time is the sum over its spans.
//!
//! A disabled tracer records nothing and reads no clock, so the measured
//! (untraced) runs pay one branch per call.

use std::cell::{Cell, RefCell};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Tracer {
    enabled: Cell<bool>,
    origin: Instant,
    cap: usize,
    op: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that keeps at most `cap` spans; once full it stops
    /// recording.
    pub fn new(enabled: bool, cap: usize) -> Self {
        Tracer {
            enabled: Cell::new(enabled),
            origin: Instant::now(),
            cap,
            op: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    pub fn is_full(&self) -> bool {
        self.len() >= self.cap
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Tag the spans that follow with operation id `op`.
    pub fn set_op(&self, op: u64) {
        self.op.set(op);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_as(f, |_| name)
    }

    /// Run `f` inside a span whose name is chosen from its result (a
    /// serve is a hit or a miss only once it has returned).
    pub fn span_as<T>(&self, f: impl FnOnce() -> T, name_of: impl FnOnce(&T) -> &'static str) -> T {
        self.record(f, name_of, false)
    }

    /// Run `f` inside a new root span, outside whatever span is open:
    /// work the benchmark adds for attribution, which must not count
    /// toward the operation it follows.
    pub fn span_root<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.record(f, |_| name, true)
    }

    fn record<T>(
        &self,
        f: impl FnOnce() -> T,
        name_of: impl FnOnce(&T) -> &'static str,
        root: bool,
    ) -> T {
        if !self.enabled.get() || self.is_full() {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = if root {
                None
            } else {
                self.stack.borrow().last().copied()
            };
            spans.push(Span {
                name: "",
                start_ns: 0,
                end_ns: 0,
                parent,
                op: self.op.get(),
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.stack.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        let s = &mut spans[idx];
        s.name = name_of(&out);
        s.start_ns = start;
        s.end_ns = end;
        out
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.borrow_mut())
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut iv: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &spans[c];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| b > a)
                .collect();
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// The root span of each span (itself for a root).
pub fn roots(spans: &[Span]) -> Vec<usize> {
    let mut root = vec![0; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        // Parents are always recorded before their children.
        root[i] = match s.parent {
            Some(p) => root[p],
            None => i,
        };
    }
    root
}

/// Write spans as tab-separated lines: id, parent (-1 for a root), op,
/// name, start and end in nanoseconds since the tracer started.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{}\t{}",
            s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // op [0, 100) > serve [10, 40) > (nothing); replan [50, 90) >
        // sim [60, 70).
        let spans = vec![
            span("bench.op", 0, 100, None),
            span("serving.miss", 10, 40, Some(0)),
            span("optimizer.replan", 50, 90, Some(0)),
            span("executor.sim", 60, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 30, 10]);
        assert_eq!(roots(&spans), vec![0, 0, 0, 0]);
        assert_eq!(spans[2].layer(), "optimizer");
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span("a.x", 0, 100, None),
            span("b.y", 10, 50, Some(0)),
            span("b.z", 30, 60, Some(0)),
            span("b.w", 90, 120, Some(0)),
        ];
        // Covered: [10, 60) and [90, 100) -> 60.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn tracer_nests_and_names_late() {
        let t = Tracer::new(true, 100);
        t.set_op(7);
        let v = t.span("bench.op", || {
            t.span_as(
                || 3,
                |r| {
                    if *r == 3 {
                        "serving.hit"
                    } else {
                        "serving.miss"
                    }
                },
            ) + 1
        });
        assert_eq!(v, 4);
        let spans = t.take_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "bench.op");
        assert_eq!(spans[1].name, "serving.hit");
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn disabled_or_full_tracer_records_nothing() {
        let t = Tracer::new(false, 100);
        assert_eq!(t.span("a.b", || 1), 1);
        assert!(t.take_spans().is_empty());
        let t = Tracer::new(true, 1);
        t.span("a.b", || t.span("a.c", || ()));
        assert_eq!(t.take_spans().len(), 1);
    }
}

//! Spans the benchmark records around its own calls into each layer.
//!
//! Nothing here reaches into a crate: a span is opened before a public
//! call and closed after it, by the thread that makes the call. Spans
//! stay in memory for the whole traced pass and are written out once,
//! after the last measurement.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// No parent: a root span.
pub const ROOT: u32 = u32::MAX;

/// At most this many spans of a run go to the file; the per-layer
/// numbers always use all of them. A traced `live-query` run records
/// about a million spans, which is 80 MB of JSONL for no extra insight.
const FILE_CAP: usize = 200_000;

#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    parent: u32,
    /// The ordinal of the query (or call) the span belongs to.
    request: u32,
    start_ns: u64,
    end_ns: u64,
}

/// One thread's spans. A recorder that is off records nothing and
/// costs one branch per call, so the untraced pass runs the same code.
pub struct Spans {
    on: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
}

impl Spans {
    /// `epoch` is shared by the threads of a run so their spans line up.
    pub fn new(on: bool, epoch: Instant, thread: u32) -> Spans {
        Spans {
            on,
            epoch,
            thread,
            spans: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, parent: u32, request: u32) -> u32 {
        if !self.on {
            return ROOT;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `id` and returns its duration in nanoseconds.
    pub fn exit(&mut self, id: u32) -> u64 {
        if !self.on {
            return 0;
        }
        let end_ns = self.now_ns();
        let s = &mut self.spans[id as usize];
        s.end_ns = end_ns;
        end_ns - s.start_ns
    }

    /// Runs `f` inside a span.
    pub fn within<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.enter(name, parent, request);
        let out = f();
        self.exit(id);
        out
    }

    /// Durations of every span called `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// `(self time, duration)` summed over every span called `name`:
    /// self time is the duration minus what its child spans cover.
    pub fn self_time(&self, name: &str) -> (f64, f64) {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != ROOT {
                let p = &mut own[s.parent as usize];
                *p = p.saturating_sub(s.end_ns - s.start_ns);
            }
        }
        self.spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .fold((0.0, 0.0), |(a, b), (s, &o)| {
                (a + o as f64, b + (s.end_ns - s.start_ns) as f64)
            })
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// Writes the spans of every thread of a run as JSON lines.
pub fn write_jsonl(path: &Path, threads: &[Spans]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let total: usize = threads.iter().map(Spans::len).sum();
    writeln!(
        out,
        "{{\"spans_recorded\":{total},\"spans_written\":{}}}",
        total.min(FILE_CAP)
    )?;
    let mut budget = FILE_CAP;
    for t in threads {
        for (id, s) in t.spans.iter().enumerate().take(budget) {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"thread\":{},\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\
                 \"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                t.thread, s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        budget = budget.saturating_sub(t.spans.len());
    }
    out.flush()
}

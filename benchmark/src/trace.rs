//! Spans of a traced run: recorded by the benchmark around its calls into
//! each layer, held in memory, written as JSON lines when the run ends.
//! Spans of one request share a `req` id; `parent` links a span to the one
//! that caused it.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::workloads::{Detail, Sample};

/// Requests whose spans are written out; the metrics use every request.
pub const TRACED_REQUESTS_WRITTEN: usize = 5_000;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub req: Option<u64>,
    pub name: &'static str,
    /// Nanoseconds from the trace's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    fn offset(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(
        &mut self,
        parent: Option<u64>,
        req: Option<u64>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// A span between two instants the benchmark stamped itself.
    pub fn span(
        &mut self,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let (start_ns, end_ns) = (self.offset(start), self.offset(end));
        self.push(parent, None, name, start_ns, end_ns)
    }

    /// The spans of one served request: `request` › `submit`, `wait`, `queue`,
    /// `execute`, the last two rebuilt from the stamps the engine put on its
    /// response. `queue` hangs under `request`, not `wait`: the engine
    /// stamps the enqueue inside `submit`, before the client starts waiting.
    /// `run_epoch` is the epoch `sample` counts from.
    pub fn request(&mut self, req: u64, run_epoch: Instant, sample: &Sample, detail: &Detail) {
        let base = self.offset(run_epoch);
        let due = base + sample.start_ns;
        let end = due + sample.latency_ns;
        let sent = due + sample.late_ns;
        let root = self.push(None, Some(req), "request", due, end);
        let submit_end = sent + detail.submit_ns;
        self.push(Some(root), Some(req), "submit", sent, submit_end);
        self.push(Some(root), Some(req), "wait", submit_end, end);
        if detail.batch_size == 0 {
            // Refused or failed: the engine stamped nothing.
            return;
        }
        let completed = if detail.ends_at_receipt {
            end.saturating_sub(detail.recv_skew_ns)
        } else {
            end
        };
        let exec_start = completed.saturating_sub(detail.service_ns);
        let queue_start = exec_start.saturating_sub(detail.queue_ns);
        self.push(Some(root), Some(req), "queue", queue_start, exec_start);
        self.push(Some(root), Some(req), "execute", exec_start, completed);
    }

    /// One JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let _ = write!(out, "{{\"id\":{},\"parent\":", s.id);
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            out.push_str(",\"req\":");
            match s.req {
                Some(r) => {
                    let _ = write!(out, "{r}");
                }
                None => out.push_str("null"),
            }
            let _ = writeln!(
                out,
                ",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_jsonl().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn request_spans_nest_and_share_an_id() {
        let epoch = Instant::now();
        let mut trace = Trace::new(epoch);
        let setup = trace.span(None, "setup", epoch, epoch + Duration::from_millis(3));
        trace.span(
            Some(setup),
            "start",
            epoch + Duration::from_millis(1),
            epoch + Duration::from_millis(2),
        );
        let run_epoch = epoch + Duration::from_millis(10);
        let sample = Sample {
            start_ns: 1_000,
            latency_ns: 5_000,
            late_ns: 200,
            ok: true,
        };
        let detail = Detail {
            submit_ns: 300,
            queue_ns: 1_500,
            batch_form_ns: 100,
            service_ns: 2_000,
            batch_size: 2,
            worker: 1,
            recv_skew_ns: 50,
            ends_at_receipt: false,
        };
        trace.request(7, run_epoch, &sample, &detail);
        let names: Vec<_> = trace.spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["setup", "start", "request", "submit", "wait", "queue", "execute"]
        );
        let request = &trace.spans[2];
        assert_eq!(request.start_ns, 10_001_000);
        assert_eq!(request.end_ns, 10_006_000);
        let execute = &trace.spans[6];
        assert_eq!((execute.start_ns, execute.end_ns), (10_004_000, 10_006_000));
        let queue = &trace.spans[5];
        assert_eq!((queue.start_ns, queue.end_ns), (10_002_500, 10_004_000));
        for child in &trace.spans[3..] {
            assert_eq!(child.req, Some(7));
            let parent = &trace.spans[child.parent.unwrap() as usize];
            assert!(parent.start_ns <= child.start_ns && child.end_ns <= parent.end_ns);
        }
        let jsonl = trace.to_jsonl();
        assert_eq!(jsonl.lines().count(), 7);
        assert_eq!(
            jsonl.lines().next().unwrap(),
            "{\"id\":0,\"parent\":null,\"req\":null,\"name\":\"setup\",\"start_ns\":0,\"end_ns\":3000000}"
        );
    }
}

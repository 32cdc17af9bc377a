//! In-memory spans for the traced run: name, start, end, parent span and
//! the workload op they belong to. Spans stay in memory until the run
//! ends and are then written out as JSON lines.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// The id of the workload op this span serves.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's recorder. Ids carry the recorder's `tag` in their top
/// bits, so recorders of different threads merge without clashes.
pub struct Tracer {
    epoch: Instant,
    tag: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, tag: u64) -> Self {
        Tracer {
            epoch,
            tag,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<u64>) -> u64 {
        let id = (self.tag << 48) | self.spans.len() as u64;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn end(&mut self, id: u64) {
        let end = self.now_ns();
        let i = (id & ((1 << 48) - 1)) as usize;
        self.spans[i].end_ns = end;
    }

    /// Times `f` as a child span of `parent`.
    pub fn child<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, op, Some(parent));
        let r = f();
        self.end(id);
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Each span's self time: its duration minus the part of it its
/// children cover (overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            (s.name, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Writes `spans` as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50),  // overlaps 2
            span(4, Some(1), 90, 120), // runs past the parent
            span(5, Some(2), 12, 14),
        ];
        let st: Vec<u64> = self_times(&spans).into_iter().map(|(_, t)| t).collect();
        assert_eq!(st, vec![100 - 40 - 10, 18, 30, 30, 2]);
    }

    #[test]
    fn tracer_ids_carry_the_tag() {
        let mut t = Tracer::new(Instant::now(), 3);
        let root = t.begin("root", 7, None);
        let x = t.child("leaf", 7, root, || 41 + 1);
        t.end(root);
        assert_eq!(x, 42);
        let spans = t.into_spans();
        assert_eq!(spans[0].id >> 48, 3);
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}

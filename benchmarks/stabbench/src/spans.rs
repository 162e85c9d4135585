//! In-memory spans recorded from outside the system: one root span per
//! traced operation, keyed by `(origin, seq)`, with a child per stage
//! boundary the public API lets the benchmark observe. Spans stay in
//! memory during the run and are written out, if asked, at exit.

use crate::json::{self, JsonValue};

/// One timed interval. Times are nanoseconds on the run's clock (wall
/// nanoseconds since process start on TCP, virtual nanoseconds on the
/// sim).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Stage name (`op` for the root).
    pub name: &'static str,
    /// Stream origin of the message the span belongs to.
    pub origin: u16,
    /// Sequence number of that message.
    pub seq: u64,
    /// Start of the interval.
    pub start_ns: u64,
    /// End of the interval (never before `start_ns`).
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

impl Span {
    /// Length of the interval.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Append-only span store.
#[derive(Debug, Default)]
pub struct Spans(Vec<Span>);

impl Spans {
    /// Record a span and return its index (for use as a parent). An end
    /// before the start — two clocks read on different threads can
    /// disagree by a few nanoseconds — is clamped to an empty interval.
    pub fn push(
        &mut self,
        name: &'static str,
        key: (u16, u64),
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.0.push(Span {
            name,
            origin: key.0,
            seq: key.1,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
        });
        self.0.len() - 1
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.0
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Self time of every span called `name`: its duration minus the
    /// part of its interval that its direct children cover (overlapping
    /// children are counted once, and the part of a child outside the
    /// parent not at all). For the root spans this is the time of an
    /// operation that no stage accounts for.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut children = vec![Vec::new(); self.0.len()];
        for (i, s) in self.0.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        (0..self.0.len())
            .filter(|&i| self.0[i].name == name)
            .map(|i| self.self_time(i, &children[i]) as f64)
            .collect()
    }

    fn self_time(&self, idx: usize, kids: &[usize]) -> u64 {
        let parent = &self.0[idx];
        let clip = |t: u64| t.clamp(parent.start_ns, parent.end_ns);
        let mut kids: Vec<(u64, u64)> = kids
            .iter()
            .map(|&k| (clip(self.0[k].start_ns), clip(self.0[k].end_ns)))
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = parent.start_ns;
        for (start, end) in kids {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        parent.duration_ns() - covered
    }

    /// One JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, sp) in self.0.iter().enumerate() {
            let v = json::obj(vec![
                ("id", JsonValue::Num(i as f64)),
                ("name", json::s(sp.name)),
                ("origin", JsonValue::Num(f64::from(sp.origin))),
                ("seq", JsonValue::Num(sp.seq as f64)),
                ("start_ns", JsonValue::Num(sp.start_ns as f64)),
                ("end_ns", JsonValue::Num(sp.end_ns as f64)),
                (
                    "parent",
                    sp.parent
                        .map_or(JsonValue::Null, |p| JsonValue::Num(p as f64)),
                ),
            ]);
            out.push_str(&json::render(&v));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let mut s = Spans::default();
        let root = s.push("op", (0, 1), 100, 200, None);
        s.push("a", (0, 1), 110, 130, Some(root)); // 20 covered
        s.push("b", (0, 1), 120, 150, Some(root)); // overlaps a: adds 20
        s.push("c", (0, 1), 190, 260, Some(root)); // 10 inside the parent
        s.push("d", (0, 1), 40, 90, Some(root)); // wholly outside
        let other = s.push("op", (0, 2), 300, 400, None);
        s.push("a", (0, 2), 300, 400, Some(other));
        let _ = (root, other);
        assert_eq!(s.self_times("op"), vec![50.0, 0.0]);
        assert_eq!(
            s.self_times("b"),
            vec![30.0],
            "a leaf's self time is its duration"
        );
        assert_eq!(s.durations("a"), vec![20.0, 100.0]);
    }

    #[test]
    fn grandchildren_do_not_count_against_the_root() {
        let mut s = Spans::default();
        let root = s.push("op", (0, 1), 0, 100, None);
        let kid = s.push("a", (0, 1), 0, 40, Some(root));
        s.push("a.inner", (0, 1), 50, 90, Some(kid)); // clipped to nothing inside `a`
        assert_eq!(s.self_times("op"), vec![60.0]);
        assert_eq!(s.self_times("a"), vec![40.0]);
    }

    #[test]
    fn reversed_interval_is_clamped_empty() {
        let mut s = Spans::default();
        s.push("x", (1, 9), 50, 40, None);
        assert_eq!(s.durations("x"), vec![0.0]);
    }

    #[test]
    fn jsonl_has_one_parsable_object_per_span() {
        let mut s = Spans::default();
        let root = s.push("op", (3, 7), 1, 2, None);
        s.push("stage", (3, 7), 1, 2, Some(root));
        let text = s.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let v = json::parse_json(lines[1]).unwrap();
        assert_eq!(v.get("parent").and_then(JsonValue::as_f64), Some(0.0));
        assert_eq!(v.get("name").and_then(JsonValue::as_str), Some("stage"));
    }
}

//! Self-time accounting over the traced run's spans, and the chrome-trace
//! file they are written to when the run ends.
//!
//! The benchmark opens one `bench.op#<id>` span per op and a child span
//! around each call into a layer; whatever spans the product opens
//! inside those calls nest below. A span's self time is its duration
//! minus the part its direct children cover.

use std::collections::BTreeMap;

use crate::layers::{json_quote, Event};

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    pub count: u64,
    pub total_us: u64,
    pub self_us: u64,
}

/// Self times by span name, plus what the per-op metrics need.
#[derive(Debug, Default)]
pub struct SelfTimes {
    pub by_name: BTreeMap<String, SpanStat>,
    /// `bench.op` spans seen, their summed duration, and the part of it
    /// their child spans cover.
    pub ops: u64,
    pub op_us: u64,
    pub op_covered_us: u64,
    /// Smallest covered share of any single op span.
    pub min_cover: Option<f64>,
    /// `db.query*` spans and summed `plan` span time below the counted
    /// layer calls.
    pub statements: u64,
    pub plan_us: u64,
}

/// A span name without its `#<request id>` suffix.
fn base_name(name: &str) -> &str {
    name.split('#').next().unwrap_or(name)
}

impl SelfTimes {
    /// Account one batch of events: complete span trees of one thread in
    /// the order the spans closed (children before their parent), which
    /// is the order a sink records them in.
    ///
    /// `counted` names the layer-call spans (depth 2) whose subtrees
    /// count toward `statements` and `plan_us`; `None` counts every span.
    pub fn add(&mut self, events: &[Event], counted: Option<&str>) {
        // pending[d]: summed duration of closed depth-d spans whose
        // parent has not closed yet.
        let mut pending: Vec<u64> = Vec::new();
        // Statement and plan spans seen since the last layer call closed.
        let (mut stmts, mut plan_us) = (0u64, 0u64);
        for e in events {
            let depth = e.depth as usize;
            if pending.len() < depth + 2 {
                pending.resize(depth + 2, 0);
            }
            let covered = std::mem::take(&mut pending[depth + 1]).min(e.dur_us);
            pending[depth] += e.dur_us;
            let name = base_name(&e.name);
            if !self.by_name.contains_key(name) {
                self.by_name.insert(name.to_string(), SpanStat::default());
            }
            let stat = self.by_name.get_mut(name).expect("inserted above");
            stat.count += 1;
            stat.total_us += e.dur_us;
            stat.self_us += e.dur_us - covered;
            if name.starts_with("db.query") {
                stmts += 1;
            }
            if name == "plan" {
                plan_us += e.dur_us;
            }
            if name == "bench.op" {
                self.ops += 1;
                self.op_us += e.dur_us;
                self.op_covered_us += covered;
                if e.dur_us > 0 {
                    let cover = covered as f64 / e.dur_us as f64;
                    self.min_cover = Some(self.min_cover.map_or(cover, |m| m.min(cover)));
                }
            }
            let closes_layer_call = name.starts_with("bench.") && name != "bench.op";
            if counted.is_none() || (closes_layer_call && counted == Some(name)) {
                self.statements += std::mem::take(&mut stmts);
                self.plan_us += std::mem::take(&mut plan_us);
            } else if closes_layer_call {
                (stmts, plan_us) = (0, 0);
            }
        }
    }

    /// Share of the op spans' time that their layer-call children cover.
    pub fn cover(&self) -> f64 {
        if self.op_us == 0 {
            0.0
        } else {
            self.op_covered_us as f64 / self.op_us as f64
        }
    }

    /// The self-time table: one line per span name, largest self time
    /// first, per `per` units of work and as a share of `whole_us`.
    pub fn render(&self, per: u64, whole_us: u64) -> String {
        let per = per.max(1) as f64;
        let mut rows: Vec<(&String, &SpanStat)> = self.by_name.iter().collect();
        rows.sort_by(|a, b| b.1.self_us.cmp(&a.1.self_us).then(a.0.cmp(b.0)));
        let mut out = format!(
            "    {:<24} {:>10} {:>14} {:>8}\n",
            "span", "count", "self_us", "share"
        );
        for (name, s) in rows {
            out.push_str(&format!(
                "    {:<24} {:>10.2} {:>14.1} {:>7.1}%\n",
                name,
                s.count as f64 / per,
                s.self_us as f64 / per,
                100.0 * s.self_us as f64 / whole_us.max(1) as f64
            ));
        }
        out
    }
}

/// Chrome-trace ("Trace Event Format") JSON for `threads`, one `tid` per
/// entry; loads in `chrome://tracing` and Perfetto.
pub fn chrome_trace(threads: &[&[Event]], dropped: u64) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (tid, events) in threads.iter().enumerate() {
        for e in events.iter() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"depth\":{}}}}}",
                json_quote(&e.name),
                json_quote(e.cat),
                e.start_us,
                e.dur_us,
                tid + 1,
                e.depth
            ));
        }
    }
    out.push_str(&format!(
        "\n],\"displayTimeUnit\":\"ms\",\"droppedEvents\":{dropped}}}\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, start_us: u64, dur_us: u64, depth: u32) -> Event {
        Event {
            name: name.into(),
            cat: "t",
            start_us,
            dur_us,
            depth,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        // op(100) > translate(10), publish(80 > db.query(30 > plan(5)), db.query(20))
        let events = vec![
            ev("bench.translate", 0, 10, 2),
            ev("plan", 12, 5, 4),
            ev("db.query_readonly", 11, 30, 3),
            ev("db.query_readonly", 45, 20, 3),
            ev("bench.publish", 10, 80, 2),
            ev("bench.op#7", 0, 100, 1),
        ];
        let mut t = SelfTimes::default();
        t.add(&events, Some("bench.publish"));
        assert_eq!(t.by_name["bench.op"].self_us, 10);
        assert_eq!(t.by_name["bench.publish"].self_us, 30);
        assert_eq!(t.by_name["db.query_readonly"].self_us, 45);
        assert_eq!(t.by_name["db.query_readonly"].count, 2);
        assert_eq!(t.by_name["plan"].self_us, 5);
        assert_eq!((t.ops, t.op_us, t.op_covered_us), (1, 100, 90));
        assert!((t.cover() - 0.9).abs() < 1e-12);
        assert_eq!((t.statements, t.plan_us), (2, 5));
    }

    #[test]
    fn statements_below_uncounted_layer_calls_are_left_out() {
        let events = vec![
            ev("db.query_readonly", 0, 5, 3),
            ev("bench.execute", 0, 6, 2),
            ev("db.query_readonly", 7, 5, 3),
            ev("bench.publish", 7, 6, 2),
            ev("bench.op", 0, 14, 1),
        ];
        let mut only_publish = SelfTimes::default();
        only_publish.add(&events, Some("bench.publish"));
        assert_eq!(only_publish.statements, 1);
        let mut all = SelfTimes::default();
        all.add(&events, None);
        assert_eq!(all.statements, 2);
    }

    #[test]
    fn chrome_trace_is_one_object_with_a_tid_per_thread() {
        let a = [ev("x", 0, 1, 1)];
        let b = [ev("y\"z", 2, 3, 1)];
        let json = chrome_trace(&[&a, &b], 0);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"tid\":1") && json.contains("\"tid\":2"));
        assert!(json.contains("y\\\"z"));
        assert!(json.trim_end().ends_with("\"droppedEvents\":0}"));
    }
}

//! Rule **det-taint**: the call-graph half of the wall-clock ban. Clippy's
//! `disallowed_methods` (see `clippy.toml`) makes every clock *read* carry
//! a reason; this rule follows where the value read *goes*.
//!
//! *Sources*: non-test fns whose own bodies read the wall clock
//! (`Instant::now`, `SystemTime::now`, `.elapsed(`) **and** return a
//! value — the return is how wall-clock bits escape. Taint then
//! propagates to any value-returning caller, transitively, so a helper
//! chain (`fn uptime() -> u64` → `fn stamp() -> String` → …) stays
//! tainted no matter how many hops launder it.
//!
//! *Sinks*: the canonical-answer and deterministic-metrics encoders —
//! fns named in [`SINK_FNS`] — and everything reachable from them
//! through the call graph. Walking *down* from a sink, the first call
//! edge into a tainted fn is the diagnostic (the laundering boundary);
//! the walk does not descend past it, so one laundered source yields one
//! finding, not one per hop.
//!
//! Granularity is the function, not the value: a fn that reads the
//! clock *and* returns something is tainted even if the two are
//! unrelated — quarantine clock reads in non-returning helpers or
//! `lint:allow(det-taint)` the call with a reason.

use crate::graph::Graph;
use crate::Diagnostic;
use std::collections::BTreeSet;

pub const RULE: &str = "det-taint";

/// Roots of the deterministic output region. `canonical_output` is the
/// byte-level answer encoder in `everest_evql::wire`;
/// `render_deterministic` is the metrics section above
/// `WALL_CLOCK_MARKER` that CI diffs across runs.
pub const SINK_FNS: &[&str] = &["canonical_output", "render_deterministic"];

pub fn check(g: &Graph, out: &mut Vec<Diagnostic>) {
    // Seed: fns that read the wall clock themselves and return a value.
    let mut tainted: Vec<bool> = vec![false; g.fns.len()];
    let mut work: Vec<usize> = Vec::new();
    for (di, d) in g.fns.iter().enumerate() {
        if d.is_test || !d.has_ret {
            continue;
        }
        if reads_wall_clock(g, di) {
            tainted[di] = true;
            work.push(di);
        }
    }
    // Propagate through return values: a value-returning caller of a
    // tainted fn is tainted.
    while let Some(di) = work.pop() {
        for &caller in &g.callers[di] {
            let c = &g.fns[caller];
            if c.is_test || !c.has_ret || tainted[caller] {
                continue;
            }
            tainted[caller] = true;
            work.push(caller);
        }
    }

    // Walk down from each sink; report the first tainted edge on each
    // path and stop there.
    let mut visited: BTreeSet<usize> = BTreeSet::new();
    let mut queue: Vec<usize> = Vec::new();
    for di in 0..g.fns.len() {
        let d = &g.fns[di];
        if !d.is_test && SINK_FNS.contains(&d.name.as_str()) {
            queue.push(di);
        }
    }
    let mut seen_lines: BTreeSet<(String, usize)> = BTreeSet::new();
    while let Some(di) = queue.pop() {
        if !visited.insert(di) {
            continue;
        }
        let ctx = g.ctx(di);
        // A direct clock read inside the sink region is itself the
        // laundering boundary.
        if tainted[di] || reads_wall_clock(g, di) {
            if let Some(line) = first_clock_line(g, di) {
                if !ctx.allowed(RULE, line) && seen_lines.insert((ctx.rel.clone(), line)) {
                    out.push(Diagnostic {
                        file: ctx.rel.clone(),
                        line,
                        rule: RULE,
                        message: format!(
                            "wall-clock read inside `{}`, which feeds canonical/deterministic \
                             output — move it below WALL_CLOCK_MARKER or out of the answer path",
                            g.fns[di].name
                        ),
                    });
                }
            }
        }
        for &(ci, callee) in &g.callees[di] {
            if g.fns[callee].is_test {
                continue;
            }
            let call = &g.calls[ci];
            if tainted[callee] {
                if !ctx.allowed(RULE, call.line) && seen_lines.insert((ctx.rel.clone(), call.line))
                {
                    out.push(Diagnostic {
                        file: ctx.rel.clone(),
                        line: call.line,
                        rule: RULE,
                        message: format!(
                            "`{}` returns a wall-clock-derived value (taint root: \
                             Instant/SystemTime) and is called on a canonical/deterministic \
                             output path",
                            g.fns[callee].name
                        ),
                    });
                }
                // Boundary: do not descend into the tainted callee —
                // its own clock reads are covered by this finding.
                continue;
            }
            queue.push(callee);
        }
    }
}

/// Whether `def`'s own tokens read the wall clock: `Instant :: now`,
/// `SystemTime :: now`, or `. elapsed (`.
fn reads_wall_clock(g: &Graph, def: usize) -> bool {
    first_clock_line(g, def).is_some()
}

fn first_clock_line(g: &Graph, def: usize) -> Option<usize> {
    let ctx = g.ctx(def);
    let mut best: Option<usize> = None;
    for (s, e) in g.own_ranges(def) {
        let hi = e.min(ctx.toks.len().saturating_sub(1));
        for i in s..=hi {
            let t = &ctx.toks[i];
            let hit = if t.is_ident("Instant") || t.is_ident("SystemTime") {
                let c1 = ctx.next_code(i + 1).filter(|&a| ctx.toks[a].is_punct(':'));
                let c2 = c1
                    .and_then(|a| ctx.next_code(a + 1))
                    .filter(|&b| ctx.toks[b].is_punct(':'));
                c2.and_then(|b| ctx.next_code(b + 1))
                    .is_some_and(|n| ctx.toks[n].is_ident("now"))
            } else if t.is_ident("elapsed") {
                i.checked_sub(1)
                    .and_then(|p| ctx.prev_code(p))
                    .is_some_and(|p| ctx.toks[p].is_punct('.'))
                    && ctx
                        .next_code(i + 1)
                        .is_some_and(|n| ctx.toks[n].is_punct('('))
            } else {
                false
            };
            if hit {
                best = Some(best.map_or(t.line, |b: usize| b.min(t.line)));
            }
        }
    }
    best
}

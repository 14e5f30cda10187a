//! Output checks: every op's answer is verified against exact ground
//! truth, and every failure counts against the ops attempted.
//!
//! Everest's guarantee is probabilistic in *which* items it returns, but
//! the certain-result condition is absolute: every returned item was
//! confirmed by the oracle, so its reported score must be the exact
//! score. That is what is checked per row. Precision against the true
//! Top-K is a quality metric, not a failure.

use everest_core::stream::StreamAnswer;
use everest_evql::{AnswerRow, PlanTarget, QueryOutput};
use std::collections::BTreeSet;

/// Failure messages kept for the report (the count is never capped).
const KEPT_MESSAGES: usize = 8;

#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
    /// Hashes of the distinct (statement, canonical answer) pairs seen.
    answers: BTreeSet<u64>,
    /// Test-only hook: corrupt the next checked answer, to prove a wrong
    /// answer is caught and counted.
    #[cfg(test)]
    pub corrupt_next: bool,
}

impl Checker {
    /// Counts one attempted op; `verdict` is `Err(why)` when it failed.
    pub fn op(&mut self, stmt: &str, verdict: Result<(), String>) {
        self.ops(stmt, 1, verdict);
    }

    /// Counts `n` ops that one statement produced and that stand or fall
    /// together (the emits of a stream).
    pub fn ops(&mut self, stmt: &str, n: u64, verdict: Result<(), String>) {
        self.attempted += n;
        if let Err(why) = verdict {
            self.fail(format!("`{stmt}`: {why}"));
            self.failed += n - 1;
        }
    }

    /// Counts a failure that is not an op of its own (a cache counter off
    /// its prediction, a daemon that did not drain).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.messages.len() < KEPT_MESSAGES {
            self.messages.push(why);
        }
    }

    /// Folds a statement's canonical answer into the digest.
    pub fn note_answer(&mut self, stmt: &str, canonical: &[u8]) {
        let mut h = fnv1a(FNV_OFFSET, stmt.as_bytes());
        h = fnv1a(h, &[0]);
        self.answers.insert(fnv1a(h, canonical));
    }

    /// Order-independent digest of the distinct answers: the same seed
    /// and the same number of rounds must print the same value.
    pub fn digest(&self) -> u64 {
        self.answers
            .iter()
            .fold(self.answers.len() as u64, |acc, &h| acc.wrapping_add(h))
    }

    pub fn merge(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < KEPT_MESSAGES {
                self.messages.push(m);
            }
        }
        self.answers.extend(other.answers);
    }

    /// Checks a `SELECT TOP` answer against the exact per-frame scores of
    /// its video.
    pub fn rows(&mut self, out: &QueryOutput, exact: &[f64]) -> Result<(), String> {
        #[cfg(test)]
        if std::mem::take(&mut self.corrupt_next) {
            let mut wrong = out.clone();
            wrong.rows[0].score += 1.0;
            return check_rows(&wrong, exact);
        }
        check_rows(out, exact)
    }
}

fn check_rows(out: &QueryOutput, exact: &[f64]) -> Result<(), String> {
    let plan = &out.plan;
    if out.rows.len() != plan.k {
        return Err(format!("{} rows for K = {}", out.rows.len(), plan.k));
    }
    if exact.len() != plan.n_frames {
        return Err(format!(
            "ground truth has {} frames, the plan {}",
            exact.len(),
            plan.n_frames
        ));
    }
    for (i, row) in out.rows.iter().enumerate() {
        if row.rank != i + 1 {
            return Err(format!("row {i} has rank {}", row.rank));
        }
        if i > 0 && row.score > out.rows[i - 1].score {
            return Err(format!("rank {} outscores rank {}", row.rank, row.rank - 1));
        }
        match plan.target {
            PlanTarget::Frames => check_frame_row(row, exact)?,
            PlanTarget::Windows { len, .. } => check_window_row(row, exact, len, plan.quant_step)?,
        }
    }
    Ok(())
}

fn check_frame_row(row: &AnswerRow, exact: &[f64]) -> Result<(), String> {
    if row.end_frame != row.start_frame + 1 || row.start_frame >= exact.len() {
        return Err(format!(
            "rank {} spans frames {}..{}",
            row.rank, row.start_frame, row.end_frame
        ));
    }
    if row.score != exact[row.start_frame] {
        return Err(format!(
            "frame {} reported {} but scores {}",
            row.start_frame, row.score, exact[row.start_frame]
        ));
    }
    Ok(())
}

/// A window is confirmed by sampling its frames (§3.4), so its reported
/// score is a sample mean on the window grid (a quarter of the frame
/// step): it must lie on that grid and between the window's smallest and
/// largest exact frame score, half a grid step of rounding allowed.
fn check_window_row(row: &AnswerRow, exact: &[f64], len: usize, step: f64) -> Result<(), String> {
    let n = exact.len();
    let expected_end = (row.start_frame + len).min(n);
    if !row.start_frame.is_multiple_of(len) || row.start_frame >= n || row.end_frame != expected_end
    {
        return Err(format!(
            "rank {} is not a tumbling window: {}..{}",
            row.rank, row.start_frame, row.end_frame
        ));
    }
    let grid = step / 4.0;
    let on_grid = ((row.score / grid).round() * grid - row.score).abs() < 1e-9;
    let frames = &exact[row.start_frame..row.end_frame];
    let lo = frames.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = frames.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !on_grid || row.score < lo - grid / 2.0 || row.score > hi + grid / 2.0 {
        return Err(format!(
            "window {}..{} reported {} outside its frames' [{lo}, {hi}]",
            row.start_frame, row.end_frame, row.score
        ));
    }
    Ok(())
}

/// Checks one emitted answer of a continuous query. `exact` holds the
/// exact score of each arriving x-tuple (retained frame), `step` the
/// bucket width.
pub fn check_emit(
    answer: &StreamAnswer,
    exact: &[f64],
    step: f64,
    max_bucket: usize,
    k: usize,
    budget: Option<usize>,
) -> Result<(), String> {
    if answer.topk.len() > k {
        return Err(format!("{} rows for K = {k}", answer.topk.len()));
    }
    if budget.is_some_and(|b| answer.cleaned > b) {
        return Err(format!("emit cleaned {} past its budget", answer.cleaned));
    }
    for (i, &(id, bucket)) in answer.topk.iter().enumerate() {
        if id < answer.window_start || id >= answer.at_frame {
            return Err(format!("row {i} (arrival {id}) lies outside the window"));
        }
        let want = ((exact[id] / step).round().max(0.0) as usize).min(max_bucket) as u32;
        if bucket != want {
            return Err(format!(
                "arrival {id} reported bucket {bucket}, exact bucket {want}"
            ));
        }
        if let Some(&(prev_id, prev_bucket)) = i.checked_sub(1).map(|p| &answer.topk[p]) {
            if (prev_bucket, std::cmp::Reverse(prev_id)) < (bucket, std::cmp::Reverse(id)) {
                return Err(format!("rows {} and {i} are out of order", i - 1));
            }
        }
    }
    Ok(())
}

/// Tie-aware precision of an emitted answer against the exact Top-K of
/// its window: a returned row is a hit when its exact score reaches the
/// window's K-th largest. Rows the emit could not fill count as misses.
pub fn emit_precision(answer: &StreamAnswer, exact: &[f64], k: usize) -> f64 {
    let window = &exact[answer.window_start..answer.at_frame];
    let k = k.min(window.len());
    if k == 0 {
        return 1.0;
    }
    let mut sorted = window.to_vec();
    let (_, kth, _) = sorted.select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a));
    let threshold = *kth;
    let hits = answer
        .topk
        .iter()
        .filter(|&&(id, _)| exact[id] >= threshold)
        .count();
    hits.min(k) as f64 / k as f64
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use everest_core::budget::Termination;

    fn emit(topk: Vec<(usize, u32)>, window_start: usize, at_frame: usize) -> StreamAnswer {
        StreamAnswer {
            at_frame,
            window_start,
            stability: vec![1.0; topk.len()],
            topk,
            confidence: 1.0,
            converged: true,
            termination: Termination::Converged,
            cleaned: 2,
        }
    }

    #[test]
    fn digest_ignores_order_and_repeats_but_not_content() {
        let mut a = Checker::default();
        a.note_answer("q1", b"x");
        a.note_answer("q2", b"y");
        let mut b = Checker::default();
        b.note_answer("q2", b"y");
        b.note_answer("q1", b"x");
        b.note_answer("q1", b"x");
        assert_eq!(a.digest(), b.digest());
        let mut c = Checker::default();
        c.note_answer("q1", b"x");
        c.note_answer("q2", b"z");
        assert_ne!(a.digest(), c.digest());
        // "q1" + "x" must not collide with "q" + "1x"
        let mut d = Checker::default();
        d.note_answer("q", b"1x");
        let mut e = Checker::default();
        e.note_answer("q1", b"x");
        assert_ne!(d.digest(), e.digest());
    }

    #[test]
    fn failures_count_against_attempts_and_merge() {
        let mut a = Checker::default();
        a.op("q", Ok(()));
        a.op("q", Err("wrong".into()));
        let mut b = Checker::default();
        b.op("r", Ok(()));
        b.fail("cache counters off".into());
        a.merge(b);
        assert_eq!((a.attempted, a.failed), (3, 2));
        assert_eq!(a.messages[0], "`q`: wrong");
    }

    #[test]
    fn emit_rows_must_carry_exact_buckets_in_order_inside_the_window() {
        let exact = [0.0, 3.0, 1.0, 3.0, 2.0, 9.0];
        let good = emit(vec![(1, 3), (3, 3), (4, 2)], 1, 5);
        assert_eq!(check_emit(&good, &exact, 1.0, 16, 3, Some(2)), Ok(()));
        let wrong_bucket = emit(vec![(1, 4)], 1, 5);
        assert!(check_emit(&wrong_bucket, &exact, 1.0, 16, 3, None).is_err());
        let expired = emit(vec![(0, 0)], 1, 5);
        assert!(check_emit(&expired, &exact, 1.0, 16, 3, None).is_err());
        let unordered = emit(vec![(3, 3), (1, 3)], 1, 5);
        assert!(check_emit(&unordered, &exact, 1.0, 16, 3, None).is_err());
        assert!(check_emit(&good, &exact, 1.0, 16, 3, Some(1)).is_err());
        assert!(check_emit(&good, &exact, 1.0, 16, 2, None).is_err());
    }

    #[test]
    fn emit_precision_is_tie_aware_and_counts_unfilled_rows_as_misses() {
        let exact = [5.0, 3.0, 3.0, 1.0];
        // true top-2 threshold is 3: either 3-scored frame is a hit
        assert_eq!(
            emit_precision(&emit(vec![(0, 5), (2, 3)], 0, 4), &exact, 2),
            1.0
        );
        assert_eq!(
            emit_precision(&emit(vec![(0, 5), (3, 1)], 0, 4), &exact, 2),
            0.5
        );
        assert_eq!(emit_precision(&emit(vec![(0, 5)], 0, 4), &exact, 2), 0.5);
        // K larger than the window: judged against the window's size
        assert_eq!(
            emit_precision(&emit(vec![(2, 3), (3, 1)], 2, 4), &exact, 5),
            1.0
        );
    }
}

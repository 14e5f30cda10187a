//! The known-bad answer, pinned. `SELECT TOP 50 FRAMES FROM Taipei-bus
//! WITH SEED 2` on a default session runs the interactive Phase-1 recipe
//! (`Phase1Config::interactive`), whose 6 training epochs leave the CMDN a
//! constant predictor: the answer is 54 % right at a claimed confidence of
//! 0.94. This test holds what the engine prints for it today, so a change
//! that means to move no answer bit is checked on the statement where a
//! moved bit would show first. Fixing the proxy (ROADMAP.md, direction 3)
//! is expected to rewrite it, with this statement as its regression test.

use everest::evql::{Output, Session};

const STATEMENT: &str = "SELECT TOP 50 FRAMES FROM Taipei-bus WITH SEED 2";

/// The answer's frames, best first.
const FRAMES: [usize; 50] = [
    7685, 7688, 7690, 7693, 7697, 7681, 7682, 7683, 7695, 7696, //
    7701, 7684, 7707, 7708, 7709, 7713, 7715, 7718, 7722, 8575, //
    8576, 8577, 8578, 8579, 8584, 8585, 8586, 7657, 7677, 7679, //
    7680, 7714, 7716, 7717, 7780, 7781, 8568, 8574, 8580, 8581, //
    8582, 8583, 8587, 8588, 8589, 8590, 8591, 8592, 8593, 8594, //
];

#[test]
fn taipei_bus_seed_2_answer_is_unchanged() {
    let out = match Session::new().execute(STATEMENT) {
        Ok(Output::Rows(out)) => out,
        other => panic!("expected rows, got {other:?}"),
    };
    let stats = &out.stats;
    assert_eq!(stats.n_items, 10_152);
    assert_eq!(stats.iterations, Some(1_115));
    assert_eq!(stats.cleaned, Some(8_920));
    let confidence = stats.confidence.expect("the everest engine reports it");
    assert_eq!(format!("{confidence:.4}"), "0.9423");
    let quality = stats.quality.expect("the answer has K rows");
    assert_eq!(format!("{:.3}", quality.precision), "0.540");
    let frames: Vec<usize> = out.rows.iter().map(|r| r.start_frame).collect();
    assert_eq!(frames, FRAMES);
}

//! The clip-parallel difference detector of §3.5.
//!
//! Following NoScope, two frames are "similar" when their pixel MSE falls
//! below a threshold. To parallelise the sequential scan, the video is split
//! into clips of `c` frames; every frame in a clip is compared against the
//! clip's middle frame and discarded when similar (the middle frame is the
//! segment's *retained representative*). Discarding similar frames both
//! removes uninformative work for the CMDN and justifies modelling frames as
//! independent x-tuples (§2, "Uncertain Databases").
//!
//! The retained/representative mapping is exactly what the window machinery
//! (§3.4, Eq. 9) consumes: a window is divided into segments of frames that
//! share a representative.

use crate::store::VideoStore;

/// Difference-detector parameters.
///
/// The paper uses MSE threshold `1e-4` and clip size 30 for all (1080p)
/// datasets. Our scaled frames carry relatively more per-pixel sensor noise,
/// so the default threshold, `4e-4`, is set from the noise instead; the value
/// is a config knob exactly as in the paper.
///
/// Two renders of the same scene with independent noise of deviation σ
/// differ by an MSE of about `2σ²`, the noise floor. The threshold sits above
/// that floor only for the catalog renderers (the counting and dashcam
/// datasets and the Visual Road and sentiment defaults), which all use
/// σ = 0.01, a floor of `2e-4`. [`crate::scene::SceneConfig::default`] uses
/// σ = 0.02, a floor of `8e-4`, so a video built from it keeps nearly every
/// frame: on three 1 200-frame timelines the default detector kept 1 200 of
/// 1 200 frames at σ = 0.02, against 658–884 at σ = 0.01.
#[derive(Debug, Clone, Copy)]
pub struct DiffConfig {
    /// Frames with MSE below this (vs their clip representative) are dropped.
    pub mse_threshold: f32,
    /// Clip length `c` in frames.
    pub clip_size: usize,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            mse_threshold: 4e-4,
            clip_size: 30,
        }
    }
}

/// Workers of the clip-parallel scan: the host's parallelism, at most 8
/// (4 when it cannot be read). Clips are independent, so the count sets
/// speed, not the segmentation.
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8)
}

/// Output of the difference detector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segments {
    /// Retained frame indices, strictly ascending.
    retained: Vec<usize>,
    /// For every frame `t`, the index *into `retained`* of its
    /// representative (itself when retained).
    rep_of: Vec<u32>,
}

impl Segments {
    /// Builds the identity segmentation (every frame retained) — the
    /// behaviour with `mse_threshold = 0`.
    pub fn identity(n_frames: usize) -> Segments {
        Segments {
            retained: (0..n_frames).collect(),
            rep_of: (0..n_frames as u32).collect(),
        }
    }

    /// Constructs from raw parts, validating the invariants.
    pub fn from_parts(retained: Vec<usize>, rep_of: Vec<u32>) -> Segments {
        assert!(
            retained.windows(2).all(|w| w[0] < w[1]),
            "retained must be ascending"
        );
        assert!(
            rep_of.iter().all(|&r| (r as usize) < retained.len()),
            "rep_of out of range"
        );
        for (pos, &f) in retained.iter().enumerate() {
            assert_eq!(
                rep_of[f] as usize, pos,
                "retained frame must represent itself"
            );
        }
        Segments { retained, rep_of }
    }

    pub fn n_frames(&self) -> usize {
        self.rep_of.len()
    }

    /// Retained (unique) frame indices.
    pub fn retained(&self) -> &[usize] {
        &self.retained
    }

    pub fn num_retained(&self) -> usize {
        self.retained.len()
    }

    /// The representative frame index for frame `t`.
    pub fn representative(&self, t: usize) -> usize {
        self.retained[self.rep_of[t] as usize]
    }

    /// Position of frame `t`'s representative within [`Segments::retained`]
    /// (e.g. for indexing per-retained-frame side tables like CMDN outputs).
    pub fn representative_position(&self, t: usize) -> usize {
        self.rep_of[t] as usize
    }

    /// Segments within the half-open frame range `[start, end)`: for each
    /// representative appearing there, `(representative frame, #frames)`.
    /// This is the `(r_t, |s_t|)` decomposition of §3.4.
    pub fn window_segments(&self, start: usize, end: usize) -> Vec<(usize, usize)> {
        assert!(start <= end && end <= self.n_frames());
        let mut out: Vec<(usize, usize)> = Vec::new();
        for t in start..end {
            let rep = self.representative(t);
            match out.iter_mut().find(|(r, _)| *r == rep) {
                Some((_, c)) => *c += 1,
                None => out.push((rep, 1)),
            }
        }
        out
    }
}

/// The clip-parallel MSE difference detector.
#[derive(Debug, Clone, Copy, Default)]
pub struct DifferenceDetector {
    cfg: DiffConfig,
}

impl DifferenceDetector {
    pub fn new(cfg: DiffConfig) -> Self {
        assert!(cfg.clip_size >= 1, "clip size must be >= 1");
        DifferenceDetector { cfg }
    }

    /// Runs the detector over the whole video.
    pub fn run(&self, video: &dyn VideoStore) -> Segments {
        self.run_on(video, default_threads())
    }

    /// [`Self::run`] on up to `threads` workers.
    fn run_on(&self, video: &dyn VideoStore, threads: usize) -> Segments {
        let n = video.num_frames();
        if n == 0 {
            return Segments {
                retained: vec![],
                rep_of: vec![],
            };
        }
        let c = self.cfg.clip_size;
        let n_clips = n.div_ceil(c);
        // Each worker handles a contiguous range of clips and reports, per
        // clip, which member frames were retained (beyond the middle).
        let threads = threads.min(n_clips).max(1);
        let clips_per_worker = n_clips.div_ceil(threads);

        let mut clip_results: Vec<Vec<(usize, Vec<bool>)>> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for w in 0..threads {
                let lo = w * clips_per_worker;
                let hi = ((w + 1) * clips_per_worker).min(n_clips);
                if lo >= hi {
                    break;
                }
                handles.push(scope.spawn(move || {
                    let mut local = Vec::with_capacity(hi - lo);
                    for clip in lo..hi {
                        let start = clip * c;
                        let end = ((clip + 1) * c).min(n);
                        local.push((start, self.process_clip(video, start, end)));
                    }
                    local
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("diff worker panicked"))
                .collect()
        });

        // Merge, preserving frame order.
        clip_results.sort_by_key(|chunk| chunk.first().map(|&(s, _)| s).unwrap_or(0));
        let mut retained = Vec::new();
        let mut rep_of = vec![0u32; n];
        for chunk in clip_results {
            for (start, keeps) in chunk {
                // First retained pass: collect retained indices of this clip.
                let mid = start + keeps.iter().position(|&k| k).expect("middle always kept");
                for (off, &keep) in keeps.iter().enumerate() {
                    let t = start + off;
                    if keep {
                        rep_of[t] = retained.len() as u32;
                        retained.push(t);
                    }
                }
                // Second pass: discarded frames point at the clip middle.
                let mid_pos = rep_of[mid];
                for (off, &keep) in keeps.iter().enumerate() {
                    if !keep {
                        rep_of[start + off] = mid_pos;
                    }
                }
            }
        }
        Segments { retained, rep_of }
    }

    /// Returns, for each frame of the clip `[start, end)`, whether it is
    /// retained. The middle frame is always retained.
    fn process_clip(&self, video: &dyn VideoStore, start: usize, end: usize) -> Vec<bool> {
        let len = end - start;
        let mid = start + len / 2;
        let mid_frame = video.frame(mid);
        (start..end)
            .map(|t| {
                if t == mid {
                    true
                } else {
                    video.frame(t).mse(&mid_frame) >= self.cfg.mse_threshold
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;

    /// A video of 8×8 frames held in memory.
    struct Frames(Vec<Frame>);

    impl VideoStore for Frames {
        fn num_frames(&self) -> usize {
            self.0.len()
        }

        fn frame(&self, idx: usize) -> Frame {
            self.0[idx].clone()
        }

        fn width(&self) -> usize {
            8
        }

        fn height(&self) -> usize {
            8
        }
    }

    fn constant_video(n: usize) -> Frames {
        Frames(vec![Frame::filled(8, 8, 0.5); n])
    }

    fn alternating_video(n: usize) -> Frames {
        Frames(
            (0..n)
                .map(|t| Frame::filled(8, 8, if t % 2 == 0 { 0.1 } else { 0.9 }))
                .collect(),
        )
    }

    fn detector(th: f32, clip: usize) -> DifferenceDetector {
        DifferenceDetector::new(DiffConfig {
            mse_threshold: th,
            clip_size: clip,
        })
    }

    #[test]
    fn constant_video_keeps_one_frame_per_clip() {
        let v = constant_video(90);
        let segs = detector(1e-4, 30).run(&v);
        assert_eq!(segs.num_retained(), 3); // one middle per clip
        assert_eq!(segs.n_frames(), 90);
        for t in 0..90 {
            let rep = segs.representative(t);
            assert_eq!(rep, (t / 30) * 30 + 15);
        }
    }

    #[test]
    fn alternating_video_keeps_everything() {
        let v = alternating_video(60);
        let segs = detector(1e-4, 30).run(&v);
        // Half the frames equal the middle frame's value, half differ hugely:
        // the equal ones collapse onto the middle, the others are retained.
        assert!(segs.num_retained() >= 30);
        for &t in segs.retained() {
            assert_eq!(segs.representative(t), t);
        }
    }

    #[test]
    fn zero_threshold_retains_all() {
        let v = constant_video(45);
        let segs = detector(0.0, 30).run(&v);
        assert_eq!(segs.num_retained(), 45);
        assert_eq!(segs, Segments::identity(45));
    }

    #[test]
    fn partial_final_clip_is_handled() {
        let v = constant_video(37); // 30 + 7
        let segs = detector(1e-4, 30).run(&v);
        assert_eq!(segs.num_retained(), 2);
        assert_eq!(segs.representative(36), 30 + 3); // middle of 7-frame clip
    }

    #[test]
    fn single_frame_video() {
        let v = constant_video(1);
        let segs = detector(1e-4, 30).run(&v);
        assert_eq!(segs.retained(), &[0]);
    }

    #[test]
    fn parallel_matches_serial() {
        let v = alternating_video(123);
        let detector = detector(1e-4, 10);
        assert_eq!(detector.run_on(&v, 1), detector.run_on(&v, 7));
    }

    #[test]
    fn window_segments_cover_window() {
        let v = constant_video(90);
        let segs = detector(1e-4, 30).run(&v);
        let ws = segs.window_segments(10, 50);
        let total: usize = ws.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 40);
        // spans clips 0 and 1 → two representatives
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].0, 15);
        assert_eq!(ws[1].0, 45);
    }

    /// Every catalog renderer's noise floor `2σ²` is below the default
    /// threshold, so the detector can discard its static frames at all.
    #[test]
    fn catalog_noise_floors_sit_below_the_default_threshold() {
        use crate::dashcam::dashcam_datasets;
        use crate::datasets::counting_datasets;
        use crate::sentiment::SentimentConfig;
        use crate::visualroad::VisualRoadConfig;
        let mut sigmas: Vec<f32> = counting_datasets()
            .iter()
            .map(|spec| spec.build(0).config().noise_std)
            .collect();
        sigmas.extend(dashcam_datasets().iter().map(|(_, cfg, _)| cfg.noise_std));
        sigmas.push(VisualRoadConfig::default().noise_std);
        sigmas.push(SentimentConfig::default().noise_std);
        let threshold = DiffConfig::default().mse_threshold;
        for sigma in sigmas {
            assert!(
                2.0 * sigma * sigma < threshold,
                "noise floor 2·{sigma}² is not below {threshold}"
            );
        }
    }

    #[test]
    fn empty_video() {
        let segs = Segments::identity(0);
        assert_eq!(segs.n_frames(), 0);
        assert_eq!(segs.num_retained(), 0);
    }

    #[test]
    #[should_panic(expected = "represent itself")]
    fn from_parts_validates_self_representation() {
        // frame 1 is retained but claims representative 0
        let _ = Segments::from_parts(vec![0, 1], vec![0, 0]);
    }
}

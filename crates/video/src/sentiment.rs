//! Vlog substitute for the thumbnail-generation use case (§1, use case 2):
//! a video whose frames carry a latent **happiness score**, estimated by a
//! simulated "visual sentimentalizer" (Sentribute-style, the paper's \[63\]).
//!
//! The latent mood follows a mean-reverting walk punctuated by *highlight
//! events* (the rare very-happy moments a Top-K thumbnail query must find);
//! the renderer converts mood into visual cues a CMDN can learn —
//! global brightness and the size of a smiling-face blob.

use crate::frame::{BBox, Frame};
use crate::scene::draw_soft_rect;
use crate::store::VideoStore;
use crate::util::{add_sensor_noise, frame_rng, gaussian, splitmix64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the mood process.
#[derive(Debug, Clone)]
pub struct SentimentConfig {
    pub n_frames: usize,
    pub width: usize,
    pub height: usize,
    pub fps: f64,
    /// Baseline mood the walk reverts to (score units, 0–10 scale).
    pub baseline: f64,
    /// Mean-reversion rate per frame.
    pub reversion: f64,
    /// Per-frame mood diffusion.
    pub diffusion: f64,
    /// Expected highlight events per 10 000 frames.
    pub event_rate_per_10k: f64,
    /// Mood targeted during a highlight.
    pub event_mood: (f64, f64),
    /// Mean highlight duration, frames.
    pub event_mean_len: f64,
    /// Per-pixel sensor noise.
    pub noise_std: f32,
}

impl Default for SentimentConfig {
    fn default() -> Self {
        SentimentConfig {
            n_frames: 9_000,
            width: 32,
            height: 32,
            fps: 30.0,
            baseline: 3.0,
            reversion: 0.04,
            diffusion: 0.15,
            event_rate_per_10k: 20.0,
            event_mood: (7.0, 9.5),
            event_mean_len: 75.0,
            noise_std: 0.01,
        }
    }
}

/// A synthetic vlog with a known happiness score per frame.
#[derive(Debug, Clone)]
pub struct SentimentVideo {
    cfg: SentimentConfig,
    seed: u64,
    mood: Vec<f64>,
}

impl SentimentVideo {
    pub fn new(cfg: SentimentConfig, seed: u64) -> Self {
        assert!(cfg.n_frames > 0);
        let mood = simulate_mood(&cfg, seed);
        SentimentVideo { cfg, seed, mood }
    }

    /// Ground-truth happiness score of frame `t` (0–10 scale) — what the
    /// simulated sentimentalizer oracle reads.
    pub fn happiness(&self, t: usize) -> f64 {
        self.mood[t]
    }
}

fn simulate_mood(cfg: &SentimentConfig, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ 0x5e47_1e57));
    let mut mood = cfg.baseline;
    let mut target = cfg.baseline;
    let mut event_left = 0usize;
    let event_prob = cfg.event_rate_per_10k / 10_000.0;
    let mut out = Vec::with_capacity(cfg.n_frames);
    for _ in 0..cfg.n_frames {
        if event_left > 0 {
            event_left -= 1;
            if event_left == 0 {
                target = cfg.baseline;
            }
        } else if rng.gen::<f64>() < event_prob {
            target = rng.gen_range(cfg.event_mood.0..cfg.event_mood.1);
            event_left =
                (crate::arrival::exponential(&mut rng, cfg.event_mean_len) as usize).max(15);
        }
        mood += cfg.reversion * (target - mood) + cfg.diffusion * gaussian(&mut rng);
        mood = mood.clamp(0.0, 10.0);
        out.push(mood);
    }
    out
}

impl VideoStore for SentimentVideo {
    fn num_frames(&self) -> usize {
        self.cfg.n_frames
    }

    fn width(&self) -> usize {
        self.cfg.width
    }

    fn height(&self) -> usize {
        self.cfg.height
    }

    fn fps(&self) -> f64 {
        self.cfg.fps
    }

    fn frame(&self, t: usize) -> Frame {
        assert!(t < self.cfg.n_frames);
        let (w, h) = (self.cfg.width, self.cfg.height);
        let mood = (self.mood[t] / 10.0) as f32; // 0..1
                                                 // Happy scenes are brighter overall…
        let mut frame = Frame::filled(w, h, 0.2 + 0.25 * mood);
        // …and feature a larger centred "face" blob.
        let size = (0.2 + 0.5 * mood) * w.min(h) as f32;
        let bbox = BBox::new(
            w as f32 / 2.0 - size / 2.0,
            h as f32 / 2.0 - size / 2.0,
            size,
            size,
        );
        draw_soft_rect(&mut frame, &bbox, 0.25 + 0.3 * mood);
        add_sensor_noise(
            frame.pixels_mut(),
            self.cfg.noise_std,
            &mut frame_rng(self.seed, t),
        );
        frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SentimentVideo {
        SentimentVideo::new(
            SentimentConfig {
                n_frames: 4_000,
                ..Default::default()
            },
            8,
        )
    }

    #[test]
    fn mood_stays_in_range() {
        let v = tiny();
        for t in 0..v.num_frames() {
            assert!((0.0..=10.0).contains(&v.happiness(t)));
        }
    }

    #[test]
    fn highlight_events_occur() {
        let v = tiny();
        let max = (0..v.num_frames())
            .map(|t| v.happiness(t))
            .fold(0.0, f64::max);
        assert!(max > 6.0, "no highlight generated (max mood {max})");
    }

    #[test]
    fn happier_frames_are_brighter() {
        let v = tiny();
        let happiest = (0..v.num_frames())
            .max_by(|&a, &b| v.happiness(a).partial_cmp(&v.happiness(b)).unwrap())
            .unwrap();
        let saddest = (0..v.num_frames())
            .min_by(|&a, &b| v.happiness(a).partial_cmp(&v.happiness(b)).unwrap())
            .unwrap();
        let mean = |t: usize| {
            let f = v.frame(t);
            f.pixels().iter().sum::<f32>() / f.pixels().len() as f32
        };
        assert!(
            mean(happiest) > mean(saddest) + 0.05,
            "mood must be visible to the CMDN"
        );
    }

    #[test]
    fn frames_are_deterministic() {
        let v = tiny();
        assert_eq!(v.frame(123), v.frame(123));
    }
}

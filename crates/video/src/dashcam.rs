//! Dashcam substitute for the depth-estimation / tailgating experiment
//! (Figure 9, "Fleet Management" use case).
//!
//! The paper scores dashcam frames by the distance between the recording
//! truck and its front vehicle, estimated by a monocular depth network; the
//! Top-K smallest distances are the "most dangerous tailgating moments".
//!
//! Our substitute simulates the lead-vehicle distance as a mean-reverting
//! random walk punctuated by **close-approach events** (the rare dangerous
//! moments a Top-K query must find), renders the lead vehicle with apparent
//! size ∝ 1/distance (the monocular depth cue a CMDN can learn from
//! pixels), and exposes the exact distance to the simulated depth-estimator
//! oracle. The *tailgating degree* score is continuous, which exercises the
//! user-supplied quantization-step path of §3.2.

use crate::arrival::EventWalk;
use crate::frame::{BBox, Frame};
use crate::scene::draw_soft_rect;
use crate::store::VideoStore;
use crate::util::{add_sensor_noise, frame_rng};

/// Configuration of the dashcam distance process.
#[derive(Debug, Clone)]
pub struct DashcamConfig {
    pub n_frames: usize,
    pub width: usize,
    pub height: usize,
    pub fps: f64,
    /// Cruising distance the process reverts to, in meters.
    pub cruise_distance: f64,
    /// Mean-reversion rate per frame.
    pub reversion: f64,
    /// Per-frame diffusion of the distance walk, meters.
    pub diffusion: f64,
    /// Expected close-approach events per 10 000 frames.
    pub event_rate_per_10k: f64,
    /// Distance range targeted during a close-approach event, meters.
    pub event_distance: (f64, f64),
    /// Mean event duration, frames.
    pub event_mean_len: f64,
    /// Hard clamp on distance, meters.
    pub min_distance: f64,
    pub max_distance: f64,
    /// Per-pixel sensor noise.
    pub noise_std: f32,
}

impl Default for DashcamConfig {
    fn default() -> Self {
        DashcamConfig {
            n_frames: 8_100, // Dashcam-California: 324k frames scaled 1/40
            width: 32,
            height: 32,
            fps: 30.0,
            cruise_distance: 30.0,
            reversion: 0.03,
            diffusion: 0.8,
            event_rate_per_10k: 18.0,
            event_distance: (2.0, 8.0),
            event_mean_len: 90.0,
            min_distance: 1.5,
            max_distance: 60.0,
            noise_std: 0.01,
        }
    }
}

/// The two dashcam rows of Table 7, scaled 1/40.
pub fn dashcam_datasets() -> Vec<(&'static str, DashcamConfig, u64)> {
    vec![
        (
            "Dashcam-California",
            DashcamConfig {
                n_frames: 8_100,
                ..Default::default()
            },
            101,
        ),
        (
            "Dashcam-Greenport",
            DashcamConfig {
                n_frames: 8_750, // 350k / 40
                cruise_distance: 26.0,
                event_rate_per_10k: 14.0,
                ..Default::default()
            },
            202,
        ),
    ]
}

/// A synthetic dashcam video with a known lead-vehicle distance per frame.
#[derive(Debug, Clone)]
pub struct DashcamVideo {
    cfg: DashcamConfig,
    seed: u64,
    /// Ground-truth lead-vehicle distance per frame, meters.
    distance: Vec<f64>,
}

impl DashcamVideo {
    pub fn new(cfg: DashcamConfig, seed: u64) -> Self {
        assert!(cfg.n_frames > 0);
        assert!(cfg.min_distance > 0.0 && cfg.min_distance < cfg.max_distance);
        let distance = EventWalk {
            rest: cfg.cruise_distance,
            event_range: cfg.event_distance,
            event_rate_per_10k: cfg.event_rate_per_10k,
            event_mean_len: cfg.event_mean_len,
            min_event_len: 20,
            reversion: cfg.reversion,
            diffusion: cfg.diffusion,
            bounds: (cfg.min_distance, cfg.max_distance),
        }
        .simulate(cfg.n_frames, seed ^ 0xDA5_C0DE);
        DashcamVideo {
            cfg,
            seed,
            distance,
        }
    }

    /// Ground-truth lead-vehicle distance in frame `t` (meters) — what the
    /// simulated depth-estimator oracle reads.
    pub fn lead_distance(&self, t: usize) -> f64 {
        self.distance[t]
    }

    /// The tailgating degree used as the ranking score: larger = closer =
    /// more dangerous. Bounded to `[0, 50/min_distance]`.
    pub fn tailgating_score(&self, t: usize) -> f64 {
        tailgating_degree(self.distance[t])
    }

    fn lead_bbox(&self, t: usize) -> BBox {
        let d = self.distance[t];
        let w = self.cfg.width as f32;
        let h = self.cfg.height as f32;
        // Apparent size scales inversely with distance: full-width at the
        // minimum distance, a few pixels when far.
        let apparent = (self.cfg.min_distance / d) as f32;
        let bw = (w * 0.85 * apparent).max(2.0);
        let bh = bw * 0.7;
        let cx = w / 2.0;
        // Farther objects sit higher in the frame (closer to the horizon).
        let horizon = 0.35 * h;
        let cy = horizon + (h * 0.5) * apparent;
        BBox::new(cx - bw / 2.0, cy - bh / 2.0, bw, bh)
    }
}

/// Tailgating degree scoring function: `50 / distance`, clamped below at
/// distance 1 m. Matches the shape of "rank by inverse front-vehicle
/// distance" from the paper's fleet-management use case.
pub fn tailgating_degree(distance_m: f64) -> f64 {
    50.0 / distance_m.max(1.0)
}

impl VideoStore for DashcamVideo {
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
        let w = self.cfg.width;
        let h = self.cfg.height;
        let mut frame = Frame::new(w, h);
        // Sky above the horizon, road below, converging shading.
        let horizon = (0.35 * h as f32) as usize;
        for y in 0..h {
            let v = if y < horizon {
                0.45
            } else {
                0.3 - 0.1 * ((y - horizon) as f32 / (h - horizon).max(1) as f32)
            };
            for x in 0..w {
                frame.set(x, y, v);
            }
        }
        draw_soft_rect(&mut frame, &self.lead_bbox(t), 0.45);
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

    fn tiny() -> DashcamVideo {
        DashcamVideo::new(
            DashcamConfig {
                n_frames: 3_000,
                ..Default::default()
            },
            5,
        )
    }

    #[test]
    fn distances_stay_in_bounds() {
        let v = tiny();
        for t in 0..v.num_frames() {
            let d = v.lead_distance(t);
            assert!(
                (v.cfg.min_distance..=v.cfg.max_distance).contains(&d),
                "distance {d} out of bounds at {t}"
            );
        }
    }

    #[test]
    fn close_approach_events_occur() {
        let v = DashcamVideo::new(
            DashcamConfig {
                n_frames: 8_000,
                ..Default::default()
            },
            5,
        );
        let min = (0..v.num_frames())
            .map(|t| v.lead_distance(t))
            .fold(f64::INFINITY, f64::min);
        assert!(min < 10.0, "no close-approach event generated (min {min})");
    }

    #[test]
    fn tailgating_degree_monotone_decreasing_in_distance() {
        assert!(tailgating_degree(2.0) > tailgating_degree(10.0));
        assert!(tailgating_degree(10.0) > tailgating_degree(40.0));
        // clamped below 1 m
        assert_eq!(tailgating_degree(0.5), tailgating_degree(1.0));
    }

    #[test]
    fn closer_vehicle_is_rendered_larger() {
        let v = tiny();
        let (mut near_t, mut far_t) = (0, 0);
        for t in 0..v.num_frames() {
            if v.lead_distance(t) < v.lead_distance(near_t) {
                near_t = t;
            }
            if v.lead_distance(t) > v.lead_distance(far_t) {
                far_t = t;
            }
        }
        let near_box = v.lead_bbox(near_t);
        let far_box = v.lead_bbox(far_t);
        assert!(
            near_box.area() > far_box.area() * 1.5,
            "apparent size should grow when close: near {} vs far {}",
            near_box.area(),
            far_box.area()
        );
    }

    #[test]
    fn frames_deterministic() {
        let v = tiny();
        assert_eq!(v.frame(100), v.frame(100));
    }

    #[test]
    fn catalog_has_two_dashcams() {
        let cams = dashcam_datasets();
        assert_eq!(cams.len(), 2);
        assert_eq!(cams[0].0, "Dashcam-California");
        assert_eq!(cams[0].1.n_frames, 8_100);
        assert_eq!(cams[1].1.n_frames, 8_750);
    }
}

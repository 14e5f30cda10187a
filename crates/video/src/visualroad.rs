//! Visual Road substitute: a mini-city traffic simulator with a
//! controllable car population (Figure 8's independent variable).
//!
//! The paper generates five 10-hour synthetic videos with the Visual Road
//! benchmark, identical except for the total number of cars in the city
//! (50–250), observed by one fixed camera. We reproduce the setup directly:
//! `total_cars` cars circulate on a ring road of `road_length` "meters"; the
//! camera sees the stretch `[0, view_length)`. The number of visible cars —
//! the per-frame ground-truth count — scales with the population while
//! everything else stays fixed, which is exactly the controlled variable of
//! the experiment.

use crate::frame::{BBox, Frame};
use crate::scene::{draw_soft_rect, GroundTruthObject, ObjectClass};
use crate::store::VideoStore;
use crate::util::{add_sensor_noise, frame_rng, splitmix64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the mini-city.
#[derive(Debug, Clone)]
pub struct VisualRoadConfig {
    /// Total number of cars in the city (the Fig. 8 sweep variable).
    pub total_cars: usize,
    pub n_frames: usize,
    pub width: usize,
    pub height: usize,
    /// Ring-road length in abstract meters.
    pub road_length: f64,
    /// Length of the camera-visible stretch, in the same units.
    pub view_length: f64,
    /// Per-pixel sensor noise.
    pub noise_std: f32,
    pub fps: f64,
}

impl Default for VisualRoadConfig {
    fn default() -> Self {
        VisualRoadConfig {
            total_cars: 100,
            n_frames: 18_000, // paper: 10 h @ 30 fps = 1.08 M frames, scaled 1/60
            width: 32,
            height: 32,
            road_length: 2_500.0,
            view_length: 100.0,
            noise_std: 0.01,
            fps: 30.0,
        }
    }
}

/// One car in the mini-city: constant speed around the ring.
#[derive(Debug, Clone)]
struct Car {
    id: u64,
    /// Initial position on the ring, meters.
    pos0: f64,
    /// Speed, meters per frame (may differ per car).
    speed: f64,
    /// Lane as a fraction of frame height.
    lane: f32,
    /// Footprint in meters (projected to pixels via view_length).
    size_m: f64,
}

impl Car {
    fn position(&self, t: usize, road_length: f64) -> f64 {
        (self.pos0 + self.speed * t as f64).rem_euclid(road_length)
    }
}

/// A Visual-Road-style synthetic video.
#[derive(Debug, Clone)]
pub struct VisualRoadVideo {
    cfg: VisualRoadConfig,
    seed: u64,
    cars: Vec<Car>,
    background: Frame,
}

impl VisualRoadVideo {
    pub fn new(cfg: VisualRoadConfig, seed: u64) -> Self {
        assert!(cfg.view_length > 0.0 && cfg.view_length < cfg.road_length);
        assert!(cfg.n_frames > 0);
        let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ 0x5ee_dcaf));
        let cars = (0..cfg.total_cars)
            .map(|i| {
                let car = Car {
                    id: i as u64,
                    pos0: rng.gen_range(0.0..cfg.road_length),
                    speed: rng.gen_range(0.35..1.1),
                    lane: rng.gen_range(0.25..0.8),
                    size_m: rng.gen_range(4.0..7.0),
                };
                // Unused draw (the renderer derives a car's intensity from
                // its id): it keeps the next car's draws, and so every
                // frame and digest, where they have always been.
                let _: f32 = rng.gen_range(0.4..0.75);
                car
            })
            .collect();
        let background = road_background(&cfg, seed);
        VisualRoadVideo {
            cfg,
            seed,
            cars,
            background,
        }
    }

    pub fn config(&self) -> &VisualRoadConfig {
        &self.cfg
    }

    /// Cars visible in frame `t` with their pixel bounding boxes.
    pub fn objects_at(&self, t: usize) -> Vec<GroundTruthObject> {
        let w = self.cfg.width as f64;
        let h = self.cfg.height as f32;
        self.cars
            .iter()
            .filter_map(|c| {
                let p = c.position(t, self.cfg.road_length);
                if p >= self.cfg.view_length {
                    return None;
                }
                let px_per_m = w / self.cfg.view_length;
                let bw = (c.size_m * px_per_m) as f32;
                let bh = bw * 0.55;
                let cx = (p * px_per_m) as f32;
                let cy = c.lane * h;
                Some(GroundTruthObject {
                    id: c.id,
                    class: ObjectClass::Car,
                    bbox: BBox::new(cx - bw / 2.0, cy - bh / 2.0, bw, bh),
                })
            })
            .collect()
    }

    /// Ground-truth visible-car count in frame `t`.
    pub fn count_at(&self, t: usize) -> u32 {
        self.cars
            .iter()
            .filter(|c| c.position(t, self.cfg.road_length) < self.cfg.view_length)
            .count() as u32
    }

    /// All per-frame counts (materialised; used to size distributions).
    pub fn counts(&self) -> Vec<u32> {
        (0..self.cfg.n_frames).map(|t| self.count_at(t)).collect()
    }
}

impl VideoStore for VisualRoadVideo {
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
        assert!(t < self.cfg.n_frames, "frame index out of range");
        let mut frame = self.background.clone();
        for o in self.objects_at(t) {
            // intensity derived from car id for determinism
            let intensity = 0.4 + 0.35 * ((o.id as f32 * 0.618).fract());
            draw_soft_rect(&mut frame, &o.bbox, intensity);
        }
        add_sensor_noise(
            frame.pixels_mut(),
            self.cfg.noise_std,
            &mut frame_rng(self.seed, t),
        );
        frame
    }
}

/// A simple road background: dark asphalt band with lane markings.
fn road_background(cfg: &VisualRoadConfig, seed: u64) -> Frame {
    const ROAD_SEED: u64 = 0xB0AD_CA5E;
    let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ ROAD_SEED));
    let mut f = Frame::new(cfg.width, cfg.height);
    for y in 0..cfg.height {
        let fy = y as f32 / cfg.height as f32;
        let base = if (0.2..0.85).contains(&fy) {
            0.22
        } else {
            0.32
        };
        for x in 0..cfg.width {
            let texture: f32 = rng.gen_range(-0.02..0.02);
            f.set(x, y, (base + texture).clamp(0.0, 1.0));
        }
    }
    // center lane dashes
    let mid = cfg.height / 2;
    for x in (0..cfg.width).step_by(4) {
        f.set(x, mid, 0.5);
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(total_cars: usize) -> VisualRoadVideo {
        VisualRoadVideo::new(
            VisualRoadConfig {
                total_cars,
                n_frames: 500,
                ..VisualRoadConfig::default()
            },
            9,
        )
    }

    #[test]
    fn population_scales_mean_count() {
        let sparse = tiny(50);
        let dense = tiny(250);
        let mean = |v: &VisualRoadVideo| {
            v.counts().iter().map(|&c| c as f64).sum::<f64>() / v.num_frames() as f64
        };
        let (ms, md) = (mean(&sparse), mean(&dense));
        assert!(
            md > ms * 3.0,
            "density should scale with population: {ms} vs {md}"
        );
    }

    #[test]
    fn expected_visible_fraction() {
        let v = tiny(100);
        let mean = v.counts().iter().map(|&c| c as f64).sum::<f64>() / v.num_frames() as f64;
        // E[visible] = total × view/road = 100 × 100/2500 = 4.
        assert!(
            (2.0..6.0).contains(&mean),
            "mean visible {mean} out of band"
        );
    }

    #[test]
    fn objects_match_counts() {
        let v = tiny(80);
        for t in (0..v.num_frames()).step_by(37) {
            assert_eq!(v.objects_at(t).len() as u32, v.count_at(t));
        }
    }

    #[test]
    fn frames_deterministic_and_in_range() {
        let v = tiny(60);
        assert_eq!(v.frame(42), v.frame(42));
        assert!(v
            .frame(42)
            .pixels()
            .iter()
            .all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn cars_wrap_around_the_ring() {
        let cfg = VisualRoadConfig {
            total_cars: 1,
            n_frames: 100_000,
            ..VisualRoadConfig::default()
        };
        let v = VisualRoadVideo::new(cfg, 3);
        // A single car must be visible at some frames and invisible at others.
        let counts: Vec<u32> = (0..20_000).step_by(50).map(|t| v.count_at(t)).collect();
        assert!(counts.contains(&1));
        assert!(counts.contains(&0));
    }
}

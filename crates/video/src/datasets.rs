//! The dataset catalog of the paper's Table 7, reproduced as synthetic
//! videos.
//!
//! Each entry mirrors a row of Table 7: the object-of-interest, nominal
//! resolution/fps/length of the real footage, and a **scaled** frame count
//! (documented per dataset) so the full evaluation runs on a laptop CPU.
//! Scene style and arrival-process parameters are chosen per dataset to
//! echo the qualitative character of the original videos (busy junction,
//! pedestrian street, slow canal traffic, moving cameras, …) — the property
//! the paper attributes speedup variation to ("video quality as well as the
//! distributions of the object-of-interests", §4.1).

use crate::arrival::{ArrivalConfig, Timeline};
use crate::scene::{CameraMotion, ObjectClass, SceneConfig, SyntheticVideo};

/// Whether a dataset's camera is fixed or moving (Table 7's two YouTube
/// additions are moving-camera footage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SceneStyle {
    FixedCamera,
    MovingCamera,
}

/// One row of the (scaled) Table 7 catalog.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Dataset name as in the paper.
    pub name: &'static str,
    pub object_class: ObjectClass,
    /// Resolution of the *original* footage (for the printed table).
    pub paper_resolution: (u32, u32),
    pub fps: f64,
    /// Frame count of the original footage, in thousands.
    pub paper_frames_k: u32,
    /// Original length in hours.
    pub paper_hours: f64,
    /// Scale divisor applied to the paper's frame count.
    pub scale: u32,
    /// Rendered frame count (= paper_frames_k * 1000 / scale).
    pub n_frames: usize,
    pub style: SceneStyle,
    /// Arrival process parameters for the object timeline.
    pub arrival: ArrivalConfig,
    /// Rendered (internal) resolution — also the CMDN input size.
    pub render_size: (usize, usize),
}

impl DatasetSpec {
    /// Builds the deterministic synthetic video for this dataset.
    pub fn build(&self, seed: u64) -> SyntheticVideo {
        let timeline = Timeline::generate(&self.arrival, seed);
        // Moving-camera motion is kept gentle: at 32×32 a large pan swamps
        // the pixels→count signal entirely, whereas the paper's 128×128
        // CMDN (trained on 30 k samples) still learns through it. The
        // qualitative property — higher inter-frame MSE, less dedup — is
        // preserved.
        let camera = match self.style {
            SceneStyle::FixedCamera => CameraMotion::STATIC,
            SceneStyle::MovingCamera => CameraMotion::moving(0.05, 240.0, 0.0015),
        };
        let cfg = SceneConfig {
            width: self.render_size.0,
            height: self.render_size.1,
            object_class: self.object_class,
            noise_std: 0.01,
            background_contrast: 0.15,
            camera,
        };
        SyntheticVideo::new(cfg, timeline, seed, self.fps)
    }
}

fn arrival(n_frames: usize, base: f64, amp: f64, lifetime: f64, bursts: f64) -> ArrivalConfig {
    ArrivalConfig {
        n_frames,
        base_intensity: base,
        diurnal_amplitude: amp,
        diurnal_periods: 2.0,
        burst_rate_per_10k: bursts,
        burst_boost: 2.5,
        burst_len: (60, 240),
        mean_lifetime: lifetime,
        min_lifetime: 12,
    }
}

/// The five object-counting datasets (first block of Table 7), scaled 1/400.
pub fn counting_datasets() -> Vec<DatasetSpec> {
    vec![
        DatasetSpec {
            name: "Archie",
            object_class: ObjectClass::Car,
            paper_resolution: (1920, 1080),
            fps: 30.0,
            paper_frames_k: 2_130,
            paper_hours: 19.7,
            scale: 400,
            n_frames: 5_325,
            style: SceneStyle::FixedCamera,
            arrival: arrival(5_325, 3.0, 0.5, 80.0, 5.0),
            render_size: (32, 32),
        },
        DatasetSpec {
            name: "Daxi-old-street",
            object_class: ObjectClass::Person,
            paper_resolution: (1920, 1080),
            fps: 30.0,
            paper_frames_k: 8_640,
            paper_hours: 80.0,
            scale: 400,
            n_frames: 21_600,
            style: SceneStyle::MovingCamera,
            arrival: arrival(21_600, 4.0, 0.6, 130.0, 4.0),
            render_size: (32, 32),
        },
        DatasetSpec {
            name: "Grand-Canal",
            object_class: ObjectClass::Boat,
            paper_resolution: (1920, 1080),
            fps: 60.0,
            paper_frames_k: 25_100,
            paper_hours: 116.2,
            scale: 400,
            n_frames: 62_750,
            style: SceneStyle::FixedCamera,
            arrival: arrival(62_750, 1.5, 0.5, 220.0, 3.0),
            render_size: (32, 32),
        },
        DatasetSpec {
            name: "Irish-Center",
            object_class: ObjectClass::Car,
            paper_resolution: (1920, 1080),
            fps: 30.0,
            paper_frames_k: 32_401,
            paper_hours: 300.0,
            scale: 400,
            n_frames: 81_002,
            style: SceneStyle::MovingCamera,
            arrival: arrival(81_002, 2.5, 0.6, 90.0, 4.0),
            render_size: (32, 32),
        },
        DatasetSpec {
            name: "Taipei-bus",
            object_class: ObjectClass::Car,
            paper_resolution: (1920, 1080),
            fps: 30.0,
            paper_frames_k: 32_488,
            paper_hours: 300.8,
            scale: 400,
            n_frames: 81_220,
            style: SceneStyle::FixedCamera,
            arrival: arrival(81_220, 4.5, 0.6, 70.0, 6.0),
            render_size: (32, 32),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::VideoStore;

    #[test]
    fn catalog_matches_table7_shape() {
        let cat = counting_datasets();
        assert_eq!(cat.len(), 5);
        let names: Vec<_> = cat.iter().map(|d| d.name).collect();
        assert_eq!(
            names,
            [
                "Archie",
                "Daxi-old-street",
                "Grand-Canal",
                "Irish-Center",
                "Taipei-bus"
            ]
        );
        // Scaled counts = paper counts / scale.
        for d in &cat {
            assert_eq!(
                d.n_frames,
                (d.paper_frames_k as usize * 1000) / d.scale as usize
            );
            assert_eq!(d.arrival.n_frames, d.n_frames);
        }
    }

    #[test]
    fn moving_camera_datasets_are_the_youtube_ones() {
        for d in counting_datasets() {
            let expect_moving = d.name == "Daxi-old-street" || d.name == "Irish-Center";
            assert_eq!(
                d.style == SceneStyle::MovingCamera,
                expect_moving,
                "{}",
                d.name
            );
        }
    }

    #[test]
    fn build_produces_consistent_video() {
        let spec = counting_datasets().swap_remove(0);
        let v = spec.build(1);
        assert_eq!(v.num_frames(), spec.n_frames);
        assert_eq!(v.width(), spec.render_size.0);
        assert!(v.timeline().max_count() > 0);
    }
}

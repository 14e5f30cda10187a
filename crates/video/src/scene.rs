//! The procedural scene renderer behind the fixed- and moving-camera
//! datasets of Table 7.
//!
//! Frames are a pure function of `(video seed, frame index)`: a textured
//! background (optionally panned/shaken for moving-camera footage), soft
//! object blobs positioned by the [`crate::arrival::Timeline`],
//! and per-frame sensor noise. Pixels therefore have exactly the properties
//! the pipeline depends on: temporal correlation for the difference
//! detector, and a learnable pixels→count relationship for the CMDN.

use crate::arrival::{ScriptedObject, Timeline};
use crate::frame::{BBox, Frame};
use crate::store::VideoStore;
use crate::util::{add_sensor_noise, frame_rng, gaussian};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Object classes used across the datasets, mirroring Table 7's
/// object-of-interest column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectClass {
    Car,
    Person,
    Boat,
    Bus,
    Truck,
}

impl ObjectClass {
    /// Every class, in the order EVQL lists them.
    pub const ALL: [ObjectClass; 5] = [
        ObjectClass::Car,
        ObjectClass::Person,
        ObjectClass::Boat,
        ObjectClass::Bus,
        ObjectClass::Truck,
    ];

    /// Aspect-ratio multiplier (width, height) applied to scripted sizes so
    /// classes render with distinct silhouettes.
    fn aspect(self) -> (f32, f32) {
        match self {
            ObjectClass::Car => (1.4, 0.8),
            ObjectClass::Person => (0.5, 1.5),
            ObjectClass::Boat => (1.8, 0.6),
            ObjectClass::Bus => (2.2, 1.0),
            ObjectClass::Truck => (1.9, 1.1),
        }
    }

    /// The class's lower-case name, as EVQL spells it (`count(car)`).
    pub fn name(self) -> &'static str {
        match self {
            ObjectClass::Car => "car",
            ObjectClass::Person => "person",
            ObjectClass::Boat => "boat",
            ObjectClass::Bus => "bus",
            ObjectClass::Truck => "truck",
        }
    }
}

/// A ground-truth annotation: what the "accurate oracle detector" sees.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruthObject {
    /// Stable object identity across frames.
    pub id: u64,
    pub class: ObjectClass,
    /// Bounding box in pixel coordinates (may extend beyond frame borders
    /// while an object enters/exits).
    pub bbox: BBox,
}

/// Camera motion parameters. Zero amplitude = fixed camera.
#[derive(Debug, Clone, Copy)]
pub struct CameraMotion {
    /// Pan amplitude as a fraction of frame width.
    pub pan_amplitude: f32,
    /// Pan period in frames.
    pub pan_period: f32,
    /// Per-frame jitter (fraction of width).
    pub shake_std: f32,
}

impl CameraMotion {
    pub const STATIC: CameraMotion = CameraMotion {
        pan_amplitude: 0.0,
        pan_period: 1.0,
        shake_std: 0.0,
    };

    pub fn moving(pan_amplitude: f32, pan_period: f32, shake_std: f32) -> Self {
        CameraMotion {
            pan_amplitude,
            pan_period,
            shake_std,
        }
    }

    fn offset_px(&self, t: usize, width: usize, rng: &mut StdRng) -> f32 {
        if self.pan_amplitude == 0.0 && self.shake_std == 0.0 {
            return 0.0;
        }
        let pan = self.pan_amplitude * (std::f32::consts::TAU * t as f32 / self.pan_period).sin();
        let shake = self.shake_std * gaussian(rng) as f32;
        (pan + shake) * width as f32
    }
}

/// Rendering configuration for one synthetic video.
#[derive(Debug, Clone)]
pub struct SceneConfig {
    pub width: usize,
    pub height: usize,
    pub object_class: ObjectClass,
    /// Standard deviation of the per-pixel sensor noise.
    pub noise_std: f32,
    /// Contrast of the background texture in `[0, 1]`.
    pub background_contrast: f32,
    pub camera: CameraMotion,
}

impl Default for SceneConfig {
    fn default() -> Self {
        SceneConfig {
            width: 32,
            height: 32,
            object_class: ObjectClass::Car,
            noise_std: 0.02,
            background_contrast: 0.15,
            camera: CameraMotion::STATIC,
        }
    }
}

/// A deterministic synthetic video: timeline + renderer.
#[derive(Debug, Clone)]
pub struct SyntheticVideo {
    cfg: SceneConfig,
    seed: u64,
    fps: f64,
    timeline: Timeline,
    /// Background texture, twice the frame width so panning can sample a
    /// window at any offset (wrapping).
    texture: Frame,
}

impl SyntheticVideo {
    pub fn new(cfg: SceneConfig, timeline: Timeline, seed: u64, fps: f64) -> Self {
        let texture = render_texture(&cfg, seed);
        SyntheticVideo {
            cfg,
            seed,
            fps,
            timeline,
            texture,
        }
    }

    pub fn config(&self) -> &SceneConfig {
        &self.cfg
    }

    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Ground-truth object count in frame `t` — what the oracle detector
    /// will report.
    pub fn count_at(&self, t: usize) -> u32 {
        self.timeline.count(t)
    }

    /// Ground-truth annotated objects visible in frame `t`.
    pub fn objects_at(&self, t: usize) -> Vec<GroundTruthObject> {
        self.timeline
            .active_at(t)
            .into_iter()
            .map(|o| GroundTruthObject {
                id: o.id,
                class: self.cfg.object_class,
                bbox: self.bbox_of(o, t),
            })
            .collect()
    }

    /// Pixel-space bounding box of a scripted object at frame `t`.
    fn bbox_of(&self, o: &ScriptedObject, t: usize) -> BBox {
        let (aw, ah) = self.cfg.object_class.aspect();
        let w = o.size.0 * aw * self.cfg.width as f32;
        let h = o.size.1 * ah * self.cfg.height as f32;
        let cx = o.x_at(t) * self.cfg.width as f32;
        let cy = o.lane * self.cfg.height as f32;
        BBox::new(cx - w / 2.0, cy - h / 2.0, w, h)
    }
}

impl VideoStore for SyntheticVideo {
    fn num_frames(&self) -> usize {
        self.timeline.n_frames()
    }

    fn width(&self) -> usize {
        self.cfg.width
    }

    fn height(&self) -> usize {
        self.cfg.height
    }

    fn fps(&self) -> f64 {
        self.fps
    }

    fn frame(&self, t: usize) -> Frame {
        assert!(t < self.num_frames(), "frame index {t} out of range");
        let w = self.cfg.width;
        let h = self.cfg.height;
        let mut rng = frame_rng(self.seed, t);
        let offset = self.cfg.camera.offset_px(t, w, &mut rng);

        // 1. Background window from the wide texture, wrapping on x. The
        // source column depends on x alone, so it is computed once per
        // column and every row gathers through the same table.
        let tex_w = self.texture.width();
        let src_x: Vec<usize> = (0..w)
            .map(|x| (x as f32 + offset).rem_euclid(tex_w as f32).floor() as usize % tex_w)
            .collect();
        let mut pixels = Vec::with_capacity(w * h);
        for tex_row in self.texture.pixels().chunks_exact(tex_w).take(h) {
            pixels.extend(src_x.iter().map(|&sx| tex_row[sx]));
        }
        let mut frame = Frame::from_pixels(w, h, pixels);

        // 2. Objects as soft-edged rectangles.
        for o in self.timeline.active_at(t) {
            let bbox = self.bbox_of(o, t);
            draw_soft_rect(&mut frame, &bbox, o.intensity);
        }

        // 3. Per-frame sensor noise.
        add_sensor_noise(frame.pixels_mut(), self.cfg.noise_std, &mut rng);
        frame
    }
}

/// Smooth value-noise texture: a coarse random grid bilinearly interpolated,
/// plus a horizontal luminance gradient (sky→road look).
fn render_texture(cfg: &SceneConfig, seed: u64) -> Frame {
    let tex_w = cfg.width * 2;
    let tex_h = cfg.height;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xdead_beef_cafe_f00d);
    let cells_x = 8.max(tex_w / 8);
    let cells_y = 8.max(tex_h / 8);
    let grid: Vec<f32> = (0..(cells_x + 1) * (cells_y + 1))
        .map(|_| rng.gen::<f32>())
        .collect();
    let mut tex = Frame::new(tex_w, tex_h);
    for y in 0..tex_h {
        let gy = y as f32 / tex_h as f32 * cells_y as f32;
        let cy = (gy.floor() as usize).min(cells_y - 1);
        let fy = gy - cy as f32;
        for x in 0..tex_w {
            let gx = x as f32 / tex_w as f32 * cells_x as f32;
            let cx = (gx.floor() as usize).min(cells_x - 1);
            let fx = gx - cx as f32;
            let i = |a: usize, b: usize| grid[b * (cells_x + 1) + a];
            let v = i(cx, cy) * (1.0 - fx) * (1.0 - fy)
                + i(cx + 1, cy) * fx * (1.0 - fy)
                + i(cx, cy + 1) * (1.0 - fx) * fy
                + i(cx + 1, cy + 1) * fx * fy;
            let gradient = 0.35 - 0.15 * (y as f32 / tex_h as f32);
            tex.set(
                x,
                y,
                (gradient + cfg.background_contrast * (v - 0.5)).clamp(0.0, 1.0),
            );
        }
    }
    tex
}

/// Draws a rectangle with a feathered edge, adding `intensity` at the core
/// and fading linearly over ~1.5 px at the border.
pub(crate) fn draw_soft_rect(frame: &mut Frame, bbox: &BBox, intensity: f32) {
    let feather = 1.5f32;
    let x0 = bbox.x.floor().max(0.0) as usize;
    let y0 = bbox.y.floor().max(0.0) as usize;
    let x1 = ((bbox.x + bbox.w).ceil() as isize).clamp(0, frame.width() as isize) as usize;
    let y1 = ((bbox.y + bbox.h).ceil() as isize).clamp(0, frame.height() as isize) as usize;
    for y in y0..y1 {
        let dy = ((y as f32 + 0.5) - bbox.y).min(bbox.y + bbox.h - (y as f32 + 0.5));
        for x in x0..x1 {
            let dx = ((x as f32 + 0.5) - bbox.x).min(bbox.x + bbox.w - (x as f32 + 0.5));
            let edge = dx.min(dy);
            if edge <= 0.0 {
                continue;
            }
            let weight = (edge / feather).min(1.0);
            frame.add_clamped(x, y, intensity * weight);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::ArrivalConfig;

    fn tiny_video(seed: u64) -> SyntheticVideo {
        let cfg = SceneConfig::default();
        let tl = Timeline::generate(
            &ArrivalConfig {
                n_frames: 600,
                ..ArrivalConfig::default()
            },
            seed,
        );
        SyntheticVideo::new(cfg, tl, seed, 30.0)
    }

    #[test]
    fn frames_are_deterministic() {
        let v = tiny_video(17);
        let a = v.frame(123);
        let b = v.frame(123);
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_frames_differ() {
        let v = tiny_video(17);
        assert!(v.frame(0).mse(&v.frame(300)) > 0.0);
    }

    #[test]
    fn pixels_stay_in_unit_range() {
        let v = tiny_video(3);
        for t in [0, 100, 599] {
            let f = v.frame(t);
            assert!(f.pixels().iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn objects_brighten_the_frame() {
        // A frame with many objects should be brighter than an empty one.
        let v = tiny_video(23);
        let counts = v.timeline().counts();
        let empty = (0..counts.len()).find(|&t| counts[t] == 0);
        let busy = (0..counts.len()).max_by_key(|&t| counts[t]).unwrap();
        let brightness = |t: usize| v.frame(t).pixels().iter().sum::<f32>();
        if let Some(empty) = empty {
            assert!(
                brightness(busy) > brightness(empty),
                "busy frame should be brighter"
            );
        }
        assert!(v.count_at(busy) > 0);
    }

    #[test]
    fn ground_truth_objects_match_counts() {
        let v = tiny_video(5);
        for t in (0..v.num_frames()).step_by(53) {
            assert_eq!(v.objects_at(t).len() as u32, v.count_at(t));
        }
    }

    #[test]
    fn ground_truth_bbox_tracks_motion() {
        let v = tiny_video(5);
        // Find an object alive for a while and confirm its bbox moves.
        'outer: for t in 0..v.num_frames() - 10 {
            for a in v.objects_at(t) {
                if let Some(b) = v.objects_at(t + 5).into_iter().find(|o| o.id == a.id) {
                    let center_x = |o: &GroundTruthObject| o.bbox.x + o.bbox.w / 2.0;
                    assert_ne!(center_x(&a), center_x(&b), "object should move");
                    break 'outer;
                }
            }
        }
    }

    #[test]
    fn consecutive_frames_are_similar_distant_frames_less_so() {
        let v = tiny_video(29);
        let near = v.frame(200).mse(&v.frame(201));
        let far = v.frame(200).mse(&v.frame(500));
        assert!(
            near < far,
            "temporal locality violated: near={near} far={far}"
        );
    }

    #[test]
    fn moving_camera_increases_frame_difference() {
        let tl = Timeline::generate(
            &ArrivalConfig {
                n_frames: 300,
                ..ArrivalConfig::default()
            },
            77,
        );
        let fixed = SyntheticVideo::new(SceneConfig::default(), tl.clone(), 77, 30.0);
        let moving = SyntheticVideo::new(
            SceneConfig {
                camera: CameraMotion::moving(0.2, 40.0, 0.01),
                ..SceneConfig::default()
            },
            tl,
            77,
            30.0,
        );
        let mse_fixed: f32 = (0..20)
            .map(|t| fixed.frame(t).mse(&fixed.frame(t + 1)))
            .sum();
        let mse_moving: f32 = (0..20)
            .map(|t| moving.frame(t).mse(&moving.frame(t + 1)))
            .sum();
        assert!(
            mse_moving > mse_fixed,
            "camera motion should raise inter-frame MSE ({mse_moving} vs {mse_fixed})"
        );
    }

    /// Frame `t` as the per-pixel renderer drew it: the texture column is
    /// re-derived for every pixel.
    fn frame_per_pixel(v: &SyntheticVideo, t: usize) -> Frame {
        let (w, h) = (v.cfg.width, v.cfg.height);
        let mut rng = frame_rng(v.seed, t);
        let offset = v.cfg.camera.offset_px(t, w, &mut rng);
        let tex_w = v.texture.width();
        let mut frame = Frame::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let sx = (x as f32 + offset).rem_euclid(tex_w as f32).floor() as usize % tex_w;
                frame.set(x, y, v.texture.get(sx, y));
            }
        }
        for o in v.timeline.active_at(t) {
            draw_soft_rect(&mut frame, &v.bbox_of(o, t), o.intensity);
        }
        for p in frame.pixels_mut() {
            *p = (*p + v.cfg.noise_std * gaussian(&mut rng) as f32).clamp(0.0, 1.0);
        }
        frame
    }

    /// The per-column texture index draws the same bits as the per-pixel
    /// expression, for a fixed camera and for a panning, shaking one whose
    /// offset goes negative and wraps.
    #[test]
    fn column_table_render_equals_per_pixel_render() {
        let tl = Timeline::generate(
            &ArrivalConfig {
                n_frames: 400,
                ..ArrivalConfig::default()
            },
            41,
        );
        let fixed = SceneConfig {
            width: 48,
            height: 24,
            ..SceneConfig::default()
        };
        let moving = SceneConfig {
            camera: CameraMotion::moving(0.3, 37.0, 0.02),
            ..fixed.clone()
        };
        for cfg in [fixed, moving] {
            let v = SyntheticVideo::new(cfg, tl.clone(), 41, 30.0);
            for t in (0..v.num_frames()).step_by(7) {
                let bits = |f: Frame| f.pixels().iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(v.frame(t)), bits(frame_per_pixel(&v, t)), "frame {t}");
            }
        }
    }

    #[test]
    fn draw_soft_rect_clips_at_borders() {
        let mut f = Frame::new(8, 8);
        // Mostly off-screen box must not panic and must brighten edge pixels.
        draw_soft_rect(&mut f, &BBox::new(-3.0, -3.0, 6.0, 6.0), 0.8);
        assert!(f.get(0, 0) > 0.0);
        assert_eq!(f.get(7, 7), 0.0);
    }
}

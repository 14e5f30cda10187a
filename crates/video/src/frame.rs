//! Grayscale video frames and pixel-level operations.
//!
//! The paper's pipeline touches pixels in exactly two places: the MSE
//! difference detector (§3.5) and the CMDN input (§3.2, frames resized to a
//! small square and normalized to `[0, 1]`). A single-channel `f32` frame in
//! `[0, 1]` covers both.

/// A grayscale frame with pixel intensities in `[0, 1]`, stored row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    width: usize,
    height: usize,
    pixels: Vec<f32>,
}

impl Frame {
    /// Creates a black frame of the given dimensions.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "frame dimensions must be positive");
        Frame {
            width,
            height,
            pixels: vec![0.0; width * height],
        }
    }

    /// Creates a frame filled with a constant intensity.
    pub fn filled(width: usize, height: usize, value: f32) -> Self {
        assert!(width > 0 && height > 0, "frame dimensions must be positive");
        Frame {
            width,
            height,
            pixels: vec![value; width * height],
        }
    }

    /// Builds a frame from an existing pixel buffer (row-major, len = w*h).
    pub fn from_pixels(width: usize, height: usize, pixels: Vec<f32>) -> Self {
        assert_eq!(pixels.len(), width * height, "pixel buffer size mismatch");
        Frame {
            width,
            height,
            pixels,
        }
    }

    pub fn width(&self) -> usize {
        self.width
    }

    pub fn height(&self) -> usize {
        self.height
    }

    /// Read-only view of the pixel buffer, row-major.
    pub fn pixels(&self) -> &[f32] {
        &self.pixels
    }

    /// Mutable view of the pixel buffer, row-major.
    pub fn pixels_mut(&mut self) -> &mut [f32] {
        &mut self.pixels
    }

    #[inline]
    pub fn get(&self, x: usize, y: usize) -> f32 {
        debug_assert!(x < self.width && y < self.height);
        self.pixels[y * self.width + x]
    }

    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: f32) {
        debug_assert!(x < self.width && y < self.height);
        self.pixels[y * self.width + x] = v;
    }

    /// Adds `v` to a pixel, clamping the result into `[0, 1]`.
    #[inline]
    pub fn add_clamped(&mut self, x: usize, y: usize, v: f32) {
        let p = &mut self.pixels[y * self.width + x];
        *p = (*p + v).clamp(0.0, 1.0);
    }

    /// Mean squared error between two frames of identical dimensions.
    ///
    /// This is the similarity measure used by the difference detector
    /// (§3.5, following NoScope).
    pub fn mse(&self, other: &Frame) -> f32 {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "MSE requires frames of identical dimensions"
        );
        let n = self.pixels.len() as f32;
        let sum: f32 = self
            .pixels
            .iter()
            .zip(other.pixels.iter())
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum();
        sum / n
    }

    /// Nearest-neighbour resize, used to shrink frames to the CMDN input
    /// resolution (the paper resizes to 128×128; we default to 32×32 at our
    /// scaled resolution).
    pub fn resize(&self, new_w: usize, new_h: usize) -> Frame {
        assert!(new_w > 0 && new_h > 0);
        let mut out = Frame::new(new_w, new_h);
        for y in 0..new_h {
            let sy = y * self.height / new_h;
            for x in 0..new_w {
                let sx = x * self.width / new_w;
                out.set(x, y, self.get(sx, sy));
            }
        }
        out
    }
}

/// Axis-aligned bounding box in pixel coordinates.
///
/// The paper's video relation (Table 2) stores object "polygons"; detections
/// in practice are bounding boxes, which is what the ground-truth
/// annotations carry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BBox {
    pub x: f32,
    pub y: f32,
    pub w: f32,
    pub h: f32,
}

impl BBox {
    pub fn new(x: f32, y: f32, w: f32, h: f32) -> Self {
        BBox { x, y, w, h }
    }

    pub fn area(&self) -> f32 {
        (self.w.max(0.0)) * (self.h.max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_frame_is_black() {
        let f = Frame::new(4, 3);
        assert_eq!(f.width(), 4);
        assert_eq!(f.height(), 3);
        assert_eq!(f.pixels().len(), 12);
        assert!(f.pixels().iter().all(|&p| p == 0.0));
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimension_panics() {
        let _ = Frame::new(0, 3);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut f = Frame::new(5, 5);
        f.set(2, 3, 0.5);
        assert_eq!(f.get(2, 3), 0.5);
        assert_eq!(f.get(3, 2), 0.0);
    }

    #[test]
    fn add_clamped_saturates() {
        let mut f = Frame::new(2, 2);
        f.add_clamped(0, 0, 0.7);
        f.add_clamped(0, 0, 0.7);
        assert_eq!(f.get(0, 0), 1.0);
        f.add_clamped(0, 0, -3.0);
        assert_eq!(f.get(0, 0), 0.0);
    }

    #[test]
    fn mse_zero_for_identical() {
        let mut f = Frame::new(8, 8);
        f.set(1, 1, 0.3);
        assert_eq!(f.mse(&f.clone()), 0.0);
    }

    #[test]
    fn mse_matches_hand_computation() {
        let a = Frame::from_pixels(2, 1, vec![0.0, 1.0]);
        let b = Frame::from_pixels(2, 1, vec![0.5, 0.5]);
        // ((0.5)^2 + (0.5)^2) / 2 = 0.25
        assert!((a.mse(&b) - 0.25).abs() < 1e-7);
    }

    #[test]
    #[should_panic(expected = "identical dimensions")]
    fn mse_dimension_mismatch_panics() {
        let a = Frame::new(2, 2);
        let b = Frame::new(3, 2);
        let _ = a.mse(&b);
    }

    #[test]
    fn resize_preserves_constant_frames() {
        let f = Frame::filled(16, 16, 0.25);
        let r = f.resize(4, 4);
        assert_eq!(r.width(), 4);
        assert!(r.pixels().iter().all(|&p| (p - 0.25).abs() < 1e-7));
    }

    #[test]
    fn resize_upscale() {
        let mut f = Frame::new(2, 2);
        f.set(0, 0, 1.0);
        let r = f.resize(4, 4);
        // top-left quadrant should replicate source (0,0)
        assert_eq!(r.get(0, 0), 1.0);
        assert_eq!(r.get(1, 1), 1.0);
        assert_eq!(r.get(3, 3), 0.0);
    }
}

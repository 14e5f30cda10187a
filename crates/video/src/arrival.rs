//! Object arrival processes: the hidden ground truth behind every synthetic
//! video.
//!
//! Top-K queries are only interesting when the per-frame score (object
//! count) has structure: quiet stretches, rush-hour plateaus and rare bursts
//! that produce a meaningful "Top-K of the day". Real traffic footage gets
//! this from human activity; we reproduce it with a non-homogeneous arrival
//! process:
//!
//! * a **diurnal intensity** `λ(t)` (sinusoid over the video length),
//! * **bursts** (short intervals where `λ` is multiplied up, modelling a
//!   parade / convoy / regatta),
//! * per-object **lifetimes** (objects cross the scene and leave), which give
//!   counts their short-range temporal correlation — the property the
//!   difference detector (§3.5) exploits.
//!
//! The timeline is generated once per video from a seed and is exact: the
//! simulated "oracle detector" reads it back, which is how the paper treats
//! YOLOv3 output as ground truth (§2, Table 2).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scripted object instance: born at `birth`, alive for `lifetime`
/// frames, crossing the scene along a lane.
#[derive(Debug, Clone)]
pub struct ScriptedObject {
    /// Stable identity across frames.
    pub id: u64,
    /// First frame in which the object is visible.
    pub birth: usize,
    /// Number of frames the object stays visible.
    pub lifetime: usize,
    /// Vertical lane position as a fraction of frame height (0..1).
    pub lane: f32,
    /// Moving left→right (`true`) or right→left.
    pub rightward: bool,
    /// Object width/height as fractions of frame width/height.
    pub size: (f32, f32),
    /// Rendered brightness delta.
    pub intensity: f32,
}

impl ScriptedObject {
    /// Frame after the last frame in which this object is visible.
    pub fn death(&self) -> usize {
        self.birth + self.lifetime
    }

    /// Whether the object is visible in frame `t`.
    pub fn alive_at(&self, t: usize) -> bool {
        t >= self.birth && t < self.death()
    }

    /// Horizontal center position (fraction of width) at frame `t`.
    ///
    /// Objects enter just outside one edge and exit just outside the other
    /// over exactly `lifetime` frames, so "alive" coincides with "on screen".
    pub fn x_at(&self, t: usize) -> f32 {
        debug_assert!(self.alive_at(t));
        let progress = if self.lifetime <= 1 {
            0.5
        } else {
            (t - self.birth) as f32 / (self.lifetime - 1) as f32
        };
        // travel from -size/2 to 1 + size/2 so entry/exit are off-screen
        let half = self.size.0 / 2.0;
        if self.rightward {
            -half + progress * (1.0 + 2.0 * half)
        } else {
            1.0 + half - progress * (1.0 + 2.0 * half)
        }
    }
}

/// Configuration of the arrival process.
#[derive(Debug, Clone)]
pub struct ArrivalConfig {
    /// Total frames in the video.
    pub n_frames: usize,
    /// Mean number of concurrently visible objects at baseline.
    pub base_intensity: f64,
    /// Relative swing of the diurnal sinusoid in `[0, 1)`.
    pub diurnal_amplitude: f64,
    /// Number of full diurnal periods across the video.
    pub diurnal_periods: f64,
    /// Expected number of bursts per 10 000 frames.
    pub burst_rate_per_10k: f64,
    /// Intensity multiplier during a burst.
    pub burst_boost: f64,
    /// Burst length range in frames (inclusive).
    pub burst_len: (usize, usize),
    /// Mean object lifetime in frames.
    pub mean_lifetime: f64,
    /// Minimum lifetime in frames (avoids 1-frame flickers).
    pub min_lifetime: usize,
}

impl Default for ArrivalConfig {
    fn default() -> Self {
        ArrivalConfig {
            n_frames: 10_000,
            base_intensity: 2.0,
            diurnal_amplitude: 0.6,
            diurnal_periods: 2.0,
            burst_rate_per_10k: 4.0,
            burst_boost: 3.0,
            burst_len: (60, 240),
            mean_lifetime: 90.0,
            min_lifetime: 12,
        }
    }
}

/// The fully materialised object timeline for one video.
#[derive(Debug, Clone)]
pub struct Timeline {
    objects: Vec<ScriptedObject>,
    /// Number of visible objects per frame (prefix-summed birth/death events).
    counts: Vec<u32>,
    /// Upper bound on any object's lifetime, for windowed active-object scans.
    max_lifetime: usize,
    /// `objects` indices sorted by `birth` (objects is already birth-sorted,
    /// kept explicit for clarity).
    n_frames: usize,
}

impl Timeline {
    /// Generates a timeline from the arrival process.
    pub fn generate(cfg: &ArrivalConfig, seed: u64) -> Timeline {
        assert!(cfg.n_frames > 0, "timeline needs at least one frame");
        assert!(cfg.mean_lifetime >= 1.0, "mean lifetime must be >= 1 frame");
        assert!(
            cfg.diurnal_amplitude >= 0.0 && cfg.diurnal_amplitude < 1.0,
            "diurnal amplitude must be in [0, 1)"
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);

        // Script burst windows first.
        let expected_bursts = cfg.burst_rate_per_10k * cfg.n_frames as f64 / 10_000.0;
        let n_bursts = poisson(&mut rng, expected_bursts);
        let mut bursts: Vec<(usize, usize)> = (0..n_bursts)
            .map(|_| {
                let start = rng.gen_range(0..cfg.n_frames);
                let len = rng.gen_range(cfg.burst_len.0..=cfg.burst_len.1.max(cfg.burst_len.0));
                (start, (start + len).min(cfg.n_frames))
            })
            .collect();
        bursts.sort_unstable();

        let phase = rng.gen_range(0.0..std::f64::consts::TAU);
        let in_burst = |t: usize| bursts.iter().any(|&(s, e)| t >= s && t < e);

        // Birth rate per frame so that the *expected concurrent count* tracks
        // λ(t): concurrency ≈ birth_rate × mean_lifetime (Little's law).
        let mut objects = Vec::new();
        let mut next_id = 0u64;
        let mut max_lifetime = cfg.min_lifetime;
        for t in 0..cfg.n_frames {
            let diurnal = 1.0
                + cfg.diurnal_amplitude
                    * (std::f64::consts::TAU * cfg.diurnal_periods * t as f64
                        / cfg.n_frames as f64
                        + phase)
                        .sin();
            let boost = if in_burst(t) { cfg.burst_boost } else { 1.0 };
            let lambda = cfg.base_intensity * diurnal * boost;
            let birth_rate = lambda / cfg.mean_lifetime;
            let births = poisson(&mut rng, birth_rate);
            for _ in 0..births {
                let lifetime = (exponential(&mut rng, cfg.mean_lifetime).round() as usize)
                    .max(cfg.min_lifetime);
                max_lifetime = max_lifetime.max(lifetime);
                objects.push(ScriptedObject {
                    id: next_id,
                    birth: t,
                    lifetime,
                    lane: rng.gen_range(0.15..0.85),
                    rightward: rng.gen_bool(0.5),
                    size: (rng.gen_range(0.08..0.16), rng.gen_range(0.08..0.16)),
                    intensity: rng.gen_range(0.35..0.75),
                });
                next_id += 1;
            }
        }

        // Counts via +1/-1 events and a prefix sum.
        let mut delta = vec![0i64; cfg.n_frames + 1];
        for o in &objects {
            delta[o.birth] += 1;
            delta[o.death().min(cfg.n_frames)] -= 1;
        }
        let mut counts = Vec::with_capacity(cfg.n_frames);
        let mut acc = 0i64;
        for d in delta.iter().take(cfg.n_frames) {
            acc += d;
            debug_assert!(acc >= 0);
            counts.push(acc as u32);
        }

        Timeline {
            objects,
            counts,
            max_lifetime,
            n_frames: cfg.n_frames,
        }
    }

    /// Builds a timeline directly from a per-frame count sequence, placing
    /// synthetic objects to match. Used by tests that need exact counts.
    pub fn from_counts(counts: &[u32], seed: u64) -> Timeline {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x517c_c1b7_2722_0a95);
        let n = counts.len();
        let mut objects: Vec<ScriptedObject> = Vec::new();
        let mut active: Vec<usize> = Vec::new(); // indices into `objects`
        let mut next_id = 0u64;
        for (t, &c) in counts.iter().enumerate() {
            // Retire objects whose scripted death has arrived.
            active.retain(|&i| objects[i].death() > t);
            while active.len() > c as usize {
                // Force-retire the oldest object by shortening its lifetime.
                let i = active.remove(0);
                objects[i].lifetime = t - objects[i].birth;
            }
            while active.len() < c as usize {
                let lifetime = rng.gen_range(30usize..120).min(n - t).max(1);
                objects.push(ScriptedObject {
                    id: next_id,
                    birth: t,
                    lifetime,
                    lane: rng.gen_range(0.15..0.85),
                    rightward: rng.gen_bool(0.5),
                    size: (rng.gen_range(0.08..0.16), rng.gen_range(0.08..0.16)),
                    intensity: rng.gen_range(0.35..0.75),
                });
                active.push(objects.len() - 1);
                next_id += 1;
            }
        }
        let max_lifetime = objects.iter().map(|o| o.lifetime).max().unwrap_or(1);
        Timeline {
            objects,
            counts: counts.to_vec(),
            max_lifetime,
            n_frames: n,
        }
    }

    pub fn n_frames(&self) -> usize {
        self.n_frames
    }

    /// Ground-truth object count in frame `t`.
    pub fn count(&self, t: usize) -> u32 {
        self.counts[t]
    }

    /// All per-frame counts.
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Largest count over the whole video (support bound for distributions).
    pub fn max_count(&self) -> u32 {
        self.counts.iter().copied().max().unwrap_or(0)
    }

    /// Total number of scripted objects.
    pub fn num_objects(&self) -> usize {
        self.objects.len()
    }

    /// Objects visible in frame `t`.
    ///
    /// `objects` is sorted by birth, so only the window
    /// `(t - max_lifetime, t]` needs scanning.
    pub fn active_at(&self, t: usize) -> Vec<&ScriptedObject> {
        let lo = t.saturating_sub(self.max_lifetime);
        let start = self.objects.partition_point(|o| o.birth < lo);
        let end = self.objects.partition_point(|o| o.birth <= t);
        self.objects[start..end]
            .iter()
            .filter(|o| o.alive_at(t))
            .collect()
    }
}

/// Knuth's Poisson sampler — fine for the small rates used here (< ~50).
pub fn poisson<R: Rng>(rng: &mut R, lambda: f64) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 10_000 {
            // Pathological lambda; avoid an unbounded loop.
            return k;
        }
    }
}

/// Inverse-CDF exponential sampler with the given mean.
pub fn exponential<R: Rng>(rng: &mut R, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -u.ln() * mean
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ArrivalConfig {
        ArrivalConfig {
            n_frames: 2_000,
            ..ArrivalConfig::default()
        }
    }

    #[test]
    fn generate_is_deterministic() {
        let a = Timeline::generate(&small_cfg(), 7);
        let b = Timeline::generate(&small_cfg(), 7);
        assert_eq!(a.counts(), b.counts());
        assert_eq!(a.num_objects(), b.num_objects());
    }

    #[test]
    fn different_seeds_differ() {
        let a = Timeline::generate(&small_cfg(), 7);
        let b = Timeline::generate(&small_cfg(), 8);
        assert_ne!(a.counts(), b.counts());
    }

    #[test]
    fn counts_match_active_objects() {
        let tl = Timeline::generate(&small_cfg(), 42);
        for t in (0..tl.n_frames()).step_by(97) {
            assert_eq!(
                tl.count(t) as usize,
                tl.active_at(t).len(),
                "count/active mismatch at frame {t}"
            );
        }
    }

    #[test]
    fn mean_concurrency_tracks_base_intensity() {
        let cfg = ArrivalConfig {
            n_frames: 20_000,
            base_intensity: 3.0,
            diurnal_amplitude: 0.0,
            burst_rate_per_10k: 0.0,
            ..ArrivalConfig::default()
        };
        let tl = Timeline::generate(&cfg, 1);
        let mean: f64 = tl.counts().iter().map(|&c| c as f64).sum::<f64>() / tl.n_frames() as f64;
        // Little's law: expected concurrency == base intensity (edge effects
        // deflate it slightly; allow a generous band).
        assert!(
            (2.0..=4.0).contains(&mean),
            "mean concurrency {mean} out of band"
        );
    }

    #[test]
    fn bursts_raise_peak_counts() {
        let quiet = ArrivalConfig {
            n_frames: 20_000,
            burst_rate_per_10k: 0.0,
            diurnal_amplitude: 0.0,
            ..ArrivalConfig::default()
        };
        let bursty = ArrivalConfig {
            burst_rate_per_10k: 8.0,
            burst_boost: 5.0,
            ..quiet.clone()
        };
        let a = Timeline::generate(&quiet, 3);
        let b = Timeline::generate(&bursty, 3);
        assert!(
            b.max_count() > a.max_count(),
            "bursty max {} should exceed quiet max {}",
            b.max_count(),
            a.max_count()
        );
    }

    #[test]
    fn object_positions_cross_screen() {
        let o = ScriptedObject {
            id: 0,
            birth: 10,
            lifetime: 100,
            lane: 0.5,
            rightward: true,
            size: (0.1, 0.1),
            intensity: 0.5,
        };
        let start = o.x_at(10);
        let end = o.x_at(109);
        assert!(start < 0.0, "object should start off-screen, got {start}");
        assert!(end > 1.0, "object should end off-screen, got {end}");
        let mid = o.x_at(60);
        assert!((0.3..0.7).contains(&mid));
    }

    #[test]
    fn leftward_object_reverses() {
        let o = ScriptedObject {
            id: 0,
            birth: 0,
            lifetime: 50,
            lane: 0.5,
            rightward: false,
            size: (0.1, 0.1),
            intensity: 0.5,
        };
        assert!(o.x_at(0) > 1.0);
        assert!(o.x_at(49) < 0.0);
    }

    #[test]
    fn from_counts_reproduces_counts_exactly() {
        let counts: Vec<u32> = vec![0, 1, 2, 3, 3, 2, 1, 0, 5, 5, 0, 1];
        let tl = Timeline::from_counts(&counts, 9);
        for (t, &c) in counts.iter().enumerate() {
            assert_eq!(tl.count(t), c, "frame {t}");
            assert_eq!(tl.active_at(t).len(), c as usize, "active at {t}");
        }
    }

    #[test]
    fn poisson_mean_is_close() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| poisson(&mut rng, 4.0) as f64).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "poisson mean {mean}");
    }

    #[test]
    fn poisson_zero_lambda() {
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(poisson(&mut rng, 0.0), 0);
        assert_eq!(poisson(&mut rng, -1.0), 0);
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = StdRng::seed_from_u64(6);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| exponential(&mut rng, 50.0)).sum::<f64>() / n as f64;
        assert!((mean - 50.0).abs() < 2.5, "exponential mean {mean}");
    }
}

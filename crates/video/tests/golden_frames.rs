//! Golden frame digests: the pixel bits of all four renderers, pinned.
//!
//! Every relation, answer and benchmark digest downstream is a function of
//! these pixels, so a renderer change that moves one bit shows here first,
//! without running the engine. Each row is the FNV-1a digest of the pixel
//! bits of frames `{0, 1, n/2, n-1}` of one catalog video (or one default
//! config), in that order.

use everest_video::arrival::{ArrivalConfig, Timeline};
use everest_video::dashcam::{dashcam_datasets, DashcamVideo};
use everest_video::datasets::counting_datasets;
use everest_video::scene::{CameraMotion, SceneConfig};
use everest_video::sentiment::{SentimentConfig, SentimentVideo};
use everest_video::visualroad::{VisualRoadConfig, VisualRoadVideo};
use everest_video::{SyntheticVideo, VideoStore};

/// FNV-1a over the little-endian bits of frames `{0, 1, n/2, n-1}`.
fn digest(video: &dyn VideoStore) -> u64 {
    let n = video.num_frames();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in [0, 1, n / 2, n - 1] {
        for p in video.frame(t).pixels() {
            for b in p.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for seed in [0, 2] {
        for spec in counting_datasets() {
            out.push((format!("{}@{seed}", spec.name), digest(&spec.build(seed))));
        }
    }
    for (name, cfg, seed) in dashcam_datasets() {
        out.push((name.to_string(), digest(&DashcamVideo::new(cfg, seed))));
    }
    out.push((
        "visualroad-default@3".into(),
        digest(&VisualRoadVideo::new(VisualRoadConfig::default(), 3)),
    ));
    out.push((
        "sentiment-default@8".into(),
        digest(&SentimentVideo::new(SentimentConfig::default(), 8)),
    ));
    let timeline = Timeline::generate(
        &ArrivalConfig {
            n_frames: 600,
            ..ArrivalConfig::default()
        },
        41,
    );
    let moving = SceneConfig {
        camera: CameraMotion::moving(0.3, 37.0, 0.02),
        ..SceneConfig::default()
    };
    out.push((
        "scene-moving@41".into(),
        digest(&SyntheticVideo::new(moving, timeline, 41, 30.0)),
    ));
    out
}

const GOLDEN: &[(&str, u64)] = &[
    ("Archie@0", 0xdee5fdd0d08cfa5b),
    ("Daxi-old-street@0", 0x606d5aa3c88afbdb),
    ("Grand-Canal@0", 0xdc7b56d747d5dca3),
    ("Irish-Center@0", 0x4f3b20520855c4c9),
    ("Taipei-bus@0", 0xd90dbad99544b405),
    ("Archie@2", 0x5d369ef0ff5ab499),
    ("Daxi-old-street@2", 0xb55e10f39b83cb87),
    ("Grand-Canal@2", 0x0f7b3fa9ec3c5e37),
    ("Irish-Center@2", 0xfab5b6df5561e926),
    ("Taipei-bus@2", 0x48e15a94bd016600),
    ("Dashcam-California", 0x5d3f249acc5a454a),
    ("Dashcam-Greenport", 0x06f88969510fea22),
    ("visualroad-default@3", 0x0c18b222754ae501),
    ("sentiment-default@8", 0xf3d588a8db1c39b0),
    ("scene-moving@41", 0x44dbd583d1349ea2),
];

#[test]
fn renderers_keep_their_bits() {
    let got = digests();
    let want: Vec<(String, u64)> = GOLDEN.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    let table: String = got
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),\n"))
        .collect();
    assert!(
        got == want,
        "frame bits moved; the current table is:\n{table}"
    );
}

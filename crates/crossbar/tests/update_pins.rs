//! Pins the exact bits of the stochastic pulse update.
//!
//! Each case builds a tile, applies a fixed sequence of rank-1 updates
//! and hashes everything the update writes: the weight bits, the tile
//! RNG state (so every draw the update consumed is covered) and the
//! pulse counters. The expected hashes are those of the per-draw
//! `bernoulli` formulation of the update; any rewrite of the update must
//! reproduce them on every thread count.

use enw_crossbar::device::DeviceSpec;
use enw_crossbar::devices;
use enw_crossbar::tile::{AnalogTile, TileConfig};
use enw_numerics::rng::Rng64;

/// 64-bit FNV-1a: a fixed hash, stable across hosts and toolchains.
fn fnv1a64(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A line value with zeros (inactive lines), ordinary magnitudes and
/// saturating ones (pulse probability clamped to 1).
fn line_value(rng: &mut Rng64) -> f32 {
    match rng.below(6) {
        0 => 0.0,
        1 => 40.0 * if rng.below(2) == 0 { 1.0 } else { -1.0 },
        _ => rng.range(-1.5, 1.5) as f32,
    }
}

/// Applies the fixed update sequence and hashes the resulting state.
fn update_fingerprint(
    spec: &DeviceSpec,
    rows: usize,
    cols: usize,
    drop_connect: f32,
    bias_drive: f32,
) -> u64 {
    let mut rng = Rng64::new(0x5eed);
    let cfg = TileConfig { drop_connect, ..TileConfig::default() };
    let in_dim = cols - 1;
    let mut tile = AnalogTile::new(rows, in_dim, spec, cfg, &mut rng);
    let mut inputs = Rng64::new(rows as u64 * 1000 + cols as u64);
    for k in 0..14 {
        let mut delta: Vec<f32> = (0..rows).map(|_| line_value(&mut inputs)).collect();
        let mut x: Vec<f32> = (0..in_dim).map(|_| line_value(&mut inputs)).collect();
        // One update with no active row and one with no active column.
        match k {
            5 => delta.iter_mut().for_each(|d| *d = 0.0),
            9 => x.iter_mut().for_each(|v| *v = 0.0),
            _ => {}
        }
        let lr = [0.002f32, 0.01, 0.05][k % 3];
        tile.update_biased(&delta, &x, bias_drive, lr);
    }
    let mut h = FNV_OFFSET;
    for w in tile.array().weights_raw() {
        h = fnv1a64(h, &w.to_bits().to_le_bytes());
    }
    let state = tile.rng_state();
    for word in state.words {
        h = fnv1a64(h, &word.to_le_bytes());
    }
    h = fnv1a64(h, &state.gauss_spare_bits.unwrap_or(u64::MAX).to_le_bytes());
    h = fnv1a64(h, &tile.array().pulse_count().to_le_bytes());
    fnv1a64(h, &tile.stats().pulses.to_le_bytes())
}

/// (device, rows, cols, drop_connect, bias_drive, expected hash).
/// Shapes are the physical array's, bias column included; 20 rows
/// spans two row chunks of the parallel update.
const PINS: [(&str, usize, usize, f32, f32, u64); 24] = [
    ("ecram", 4, 9, 0.0, 0.0, 0x5a03e66ece1351f7),
    ("ecram", 4, 9, 0.0, 1.0, 0x2e4b9d925e7b30c6),
    ("ecram", 4, 9, 0.3, 0.0, 0x9bafe25a61711aff),
    ("ecram", 4, 9, 0.3, 1.0, 0x7167b1e12a605f96),
    ("ecram", 6, 24, 0.0, 0.0, 0x7200633cc23d0d6e),
    ("ecram", 6, 24, 0.0, 1.0, 0x67eb747a1470fb04),
    ("ecram", 6, 24, 0.3, 0.0, 0x9b58843c140df683),
    ("ecram", 6, 24, 0.3, 1.0, 0x0d8e2b8f7ff1f012),
    ("ecram", 20, 24, 0.0, 0.0, 0x86f50cbb16c5a557),
    ("ecram", 20, 24, 0.0, 1.0, 0x2034a86ffab960ae),
    ("ecram", 20, 24, 0.3, 0.0, 0xa944cfbf88637855),
    ("ecram", 20, 24, 0.3, 1.0, 0x7beffa42b91378ca),
    ("rram", 4, 9, 0.0, 0.0, 0x8232f3ad671766db),
    ("rram", 4, 9, 0.0, 1.0, 0x2454b1a931e23262),
    ("rram", 4, 9, 0.3, 0.0, 0x4e13e42199cae1a9),
    ("rram", 4, 9, 0.3, 1.0, 0xb760073d4ca9d85c),
    ("rram", 6, 24, 0.0, 0.0, 0x4e5d0b0a4cb8477f),
    ("rram", 6, 24, 0.0, 1.0, 0x4996dbd1da8f91ac),
    ("rram", 6, 24, 0.3, 0.0, 0x392254401ae3df29),
    ("rram", 6, 24, 0.3, 1.0, 0xf25bd75a9056dd71),
    ("rram", 20, 24, 0.0, 0.0, 0xb06024d11e7fe36f),
    ("rram", 20, 24, 0.0, 1.0, 0x3884760ace85afff),
    ("rram", 20, 24, 0.3, 0.0, 0xd976d9039c62127a),
    ("rram", 20, 24, 0.3, 1.0, 0x3d2278a6a676af37),
];

fn check_pins(threads: usize) {
    let mut mismatches = Vec::new();
    for (device, rows, cols, dc, bias, expected) in PINS {
        let spec = if device == "ecram" { devices::ecram() } else { devices::rram() };
        let got =
            enw_parallel::with_threads(threads, || update_fingerprint(&spec, rows, cols, dc, bias));
        if got != expected {
            mismatches.push(format!(
                "    (\"{device}\", {rows}, {cols}, {dc:?}, {bias:?}, {got:#018x}), // pinned {expected:#018x}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "update bits moved at {threads} thread(s):\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn update_bits_are_pinned_on_one_thread() {
    check_pins(1);
}

#[test]
fn update_bits_are_pinned_on_two_threads() {
    check_pins(2);
}

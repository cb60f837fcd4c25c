//! Host-speed calibration.
//!
//! The cores this benchmark runs on change speed by ±15 % over seconds (a
//! pure spin loop shows the same swings, in CPU time as much as in wall
//! time), which is several times the regression bounds. So every timed
//! section is bracketed by a fixed calibration kernel, and its host time is
//! divided by how much slower than [`REF_NS`] the kernel ran just then. All
//! reported times and rates are therefore *at reference speed*; the raw
//! wall-clock values are printed beside them.
//!
//! The kernel uses only `std` (ordered map, formatting, hashing — the mix the
//! simulator leans on), so no change to the repository's crates can move it.
//! It must never change: it is the yardstick.

use crate::clock::Tick;
use std::collections::BTreeMap;
use std::hint::black_box;

/// Kernel time that counts as speed 1.0, in nanoseconds.
pub const REF_NS: f64 = 250_000.0;

fn kernel() -> u64 {
    let t0 = Tick::now();
    let mut map: BTreeMap<u64, String> = BTreeMap::new();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for i in 0..2000u64 {
        for b in i.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        map.insert(h % 4096, format!("pe{i} on host{}", h % 7));
        if i % 3 == 0 {
            map.remove(&(h % 1024));
        }
    }
    black_box(map.len());
    Tick::now().since(t0)
}

/// Fastest of three kernel runs: a preemption inflates one, not all.
fn sample() -> u64 {
    (0..3).map(|_| kernel()).min().expect("three samples")
}

/// Runs `f` between two calibration samples. Returns its result and the
/// slowdown factor of the host around it (1.0 = reference speed, 1.2 = 20 %
/// slower): divide host time measured inside `f` by it.
pub fn measured<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let before = sample();
    let out = f();
    let after = sample();
    (out, (before + after) as f64 / 2.0 / REF_NS)
}

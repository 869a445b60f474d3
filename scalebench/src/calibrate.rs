//! Host-speed calibration of the end-to-end timings.
//!
//! The host that defined this benchmark is a 2-vCPU slice of a shared
//! machine whose speed moves by a third for seconds to minutes at a
//! time: the same pass took 7 s in one run and 10 s in the next, with
//! on-CPU time moving alongside wall time, so the slowdown is the
//! machine's and no median over passes inside one run can remove it.
//! Across ten runs of `pil-c3831` the raw stage times spread 0.24–0.35
//! of their median; divided by a fixed reference kernel timed right
//! before and right after each stage, they spread 0.05–0.06.
//!
//! The kernel is the benchmark's own code over the standard library, so
//! no change to the repository's crates can speed it up or slow it
//! down. It mixes the two kinds of work a pass does: a naive ring walk
//! (linear membership scans and modulo indexing, like the calculators)
//! and hash map, ordered map and sort work (like the engine, gossip and
//! memo layers).

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Seconds the reference kernel takes on the defining host when it runs
/// at its usual quiet speed. A calibrated time is the time the stage
/// would have taken on a host where the kernel takes this long.
pub const REFERENCE_S: f64 = 0.040;

/// Times one run of the reference kernel, in seconds.
pub fn reference_s() -> f64 {
    let t = Instant::now();
    black_box(kernel());
    t.elapsed().as_secs_f64()
}

/// The factor that turns host seconds measured while the kernel took
/// `reference_s` into calibrated seconds.
pub fn scale(reference_s: f64) -> f64 {
    REFERENCE_S / reference_s
}

/// Reference timings taken between the stages of a pass: each stage is
/// bracketed by one before it and one after it.
pub struct Brackets {
    last_s: f64,
}

impl Brackets {
    /// Takes the timing before the first stage.
    pub fn open() -> Brackets {
        Brackets {
            last_s: reference_s(),
        }
    }

    /// Takes the timing after the stage just run and returns the mean of
    /// it and the one before: the host's speed over that stage.
    pub fn close(&mut self) -> f64 {
        let now = reference_s();
        let mean = (self.last_s + now) / 2.0;
        self.last_s = now;
        mean
    }
}

/// A fixed amount of work: three rounds of a naive walk of a 144-entry
/// ring and of 40k map inserts and lookups plus a sort.
fn kernel() -> u64 {
    const RING: usize = 144;
    const KEYS: u64 = 40_000;
    let mut acc = 0u64;
    for round in 0..3u64 {
        let ring: Vec<u32> = (0..RING as u32)
            .map(|i| i.wrapping_mul(2_654_435_761) % 97)
            .collect();
        let n = black_box(RING);
        for start in 0..n {
            for _ in 0..24 {
                let mut distinct: Vec<u32> = Vec::new();
                for step in 0..n {
                    let at = ring[(start + step) % n];
                    if !distinct.contains(&at) {
                        distinct.push(at);
                    }
                }
                acc = acc.wrapping_add(distinct.len() as u64);
            }
        }

        let mut x = round | 1;
        let mut hashed: HashMap<u64, u64> = HashMap::new();
        let mut ordered: BTreeMap<u64, u64> = BTreeMap::new();
        let mut sorted: Vec<u64> = Vec::with_capacity(KEYS as usize);
        for i in 0..KEYS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            hashed.insert(x % 10_000, i);
            ordered.insert(x % 14_000, i);
            sorted.push(x);
        }
        sorted.sort_unstable();
        for i in 0..KEYS {
            acc = acc.wrapping_add(hashed.get(&(i % 10_000)).copied().unwrap_or(0));
            if let Some((_, v)) = ordered.range(i % 14_000..).next() {
                acc ^= *v;
            }
        }
        acc ^= sorted[100];
    }
    acc
}

//! Small shared helpers: seeds, digests, order statistics, memory.

use std::fmt;
use std::time::{Duration, Instant};

/// Derives an independent sub-seed for one generated input from the run
/// seed (splitmix64 over `seed ^ tag`), so every input of a workload
/// moves with `--seed` while inputs of different kinds stay unrelated.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over everything written to it: fingerprints `Debug` renderings
/// of slices without materializing the (multi-megabyte) text.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds a value's `Debug` rendering.
    pub fn debug(&mut self, v: &impl fmt::Debug) {
        use fmt::Write as _;
        let _ = write!(self, "{v:?}");
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Digest of one value's `Debug` rendering.
pub fn digest_of(v: &impl fmt::Debug) -> u64 {
    let mut d = Digest::default();
    d.debug(v);
    d.finish()
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Arithmetic mean; 0 when there are no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f` and returns its result with its wall-clock time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Peak resident set of this process in MiB (`VmHWM`). Each workload runs
/// in its own process, so this is the workload's own peak.
pub fn peak_rss_mb() -> f64 {
    specslice_bench::alloc_count::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0)
}

/// Resets this process's `VmHWM` to its current resident set (Linux
/// `clear_refs` mode 5), so the next [`peak_rss_mb`] is the peak of what
/// ran in between. Returns whether the reset took effect.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Ratio `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

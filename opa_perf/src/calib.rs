//! Host-speed calibration for the end-to-end timings.
//!
//! The benchmark's hosts are small shared VMs whose speed is not constant.
//! On the 2-vCPU reference host, with nothing else running, the same engine
//! job slows by 10–40 % for seconds to minutes at a time, so whole
//! ten-second runs land in a slow spell or a fast one and no statistic of
//! raw wall times — median, lower quartile or minimum — is steady from run
//! to run (README, "Steadiness"). The slowdown shows as user time, not as
//! steal or system time, and it hits code that retires many instructions
//! per cycle (byte parsing, small stores) far harder than a dependent
//! multiply chain or a DRAM stream: a neighbour on the sibling hardware
//! thread. The cure is the usual one for shared CI hosts: time a fixed
//! calibration kernel right before and right after every operation and
//! express the operation's time in units of it,
//!
//! `normalized seconds = wall seconds × NOMINAL_S ÷ kernel seconds`
//!
//! — the time the operation would have taken on a host that runs the kernel
//! in exactly [`NOMINAL_S`], i.e. this class of host, undisturbed. The
//! kernel mixes the two kinds of work the engine does, two parts branchy
//! byte parsing to one part memory streaming, which is the blend whose
//! slowdown tracked two very different engine jobs (ClickCount and
//! TrigramCount) best in a nine-minute probe: medians of raw job time over
//! 10 s windows spread 7.3 % and 5.9 % (IQR/median) and ranged over 49 % and
//! 38 %; normalized, 2.8 % and 1.7 %, ranging over 8 % and 9 %.
//!
//! Both builds in a comparison are scaled by the same kernel, which no
//! engine change can reach (it calls nothing and allocates nothing), so the
//! ratio between them is unaffected; what the scaling removes is the host's
//! drift. Every report prints the raw wall times next to the normalized
//! ones. Only the untraced run's timings are normalized — they are the ones
//! held to a regression bound; per-layer timings stay raw.

use std::time::Instant;

/// The kernel's undisturbed time on the reference host (2 vCPU Xeon @
/// 2.1 GHz; the median of a quiet run). A constant, not a measurement, so
/// that every run on every day normalizes to the same speed.
pub const NOMINAL_S: f64 = 0.0031;

/// Parsed text: 96 KB, L2-resident, walked [`PARSE_PASSES`] times.
const TEXT_BYTES: usize = 96 << 10;
const PARSE_PASSES: usize = 32;
/// Streamed buffer: 4 MB, beyond the L2 it shares with the text.
const STREAM_WORDS: usize = 512 << 10;

pub struct Calibrator {
    text: Vec<u8>,
    stream: Vec<u64>,
    /// The most recent probe, shared between the operation it followed and
    /// the operation it precedes.
    last_s: f64,
}

impl Calibrator {
    pub fn new() -> Self {
        // Pseudo-text shaped like the document generator's: six-character
        // words separated by single spaces.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut text = Vec::with_capacity(TEXT_BYTES + 7);
        while text.len() < TEXT_BYTES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            text.extend((0..6).map(|i| b'a' + ((x >> (8 * i)) & 15) as u8));
            text.push(b' ');
        }
        let mut c = Calibrator {
            text,
            stream: vec![1; STREAM_WORDS],
            last_s: 0.0,
        };
        c.probe(); // faults the buffers in
        c.probe();
        c
    }

    /// One run of the kernel; returns and remembers its time in seconds.
    fn probe(&mut self) -> f64 {
        let t0 = Instant::now();
        // Part one — tokenizer-like: a branch per byte, a short multiply
        // chain per word. High instruction throughput, tiny footprint.
        let (mut words, mut h) = (0u64, 0u64);
        for _ in 0..PARSE_PASSES {
            for &b in &self.text {
                if b == b' ' {
                    words += h & 7;
                    h = 0;
                } else {
                    h = h.wrapping_mul(31).wrapping_add(u64::from(b));
                }
            }
        }
        // Part two — scan-and-fold-like: one read-modify-write pass over a
        // buffer larger than L2, a dependent multiply-xorshift per word.
        let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ words;
        for w in &mut self.stream {
            x = (x ^ *w ^ (x >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            *w = x;
        }
        std::hint::black_box(x);
        self.last_s = t0.elapsed().as_secs_f64();
        self.last_s
    }

    /// Runs `op` between two probes. Returns its result and the factor
    /// that turns a wall time measured inside it into normalized seconds.
    pub fn around<R>(&mut self, op: impl FnOnce() -> R) -> (R, f64) {
        let before = self.last_s;
        let r = op();
        let after = self.probe();
        (r, NOMINAL_S / ((before + after) / 2.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_nominal_over_mean_probe() {
        let mut c = Calibrator::new();
        assert_eq!(c.text.len() / 1024, TEXT_BYTES / 1024);
        assert_eq!(
            c.text.iter().filter(|&&b| b == b' ').count(),
            c.text.len() / 7
        );
        let before = c.last_s;
        let ((), scale) = c.around(|| ());
        let after = c.last_s;
        assert!(before > 0.0 && after > 0.0);
        assert!((scale - NOMINAL_S / ((before + after) / 2.0)).abs() < 1e-12);
        // On any plausible host the kernel takes 0.3–300 ms.
        assert!(scale > 0.01 && scale < 10.0, "{scale}");
    }
}

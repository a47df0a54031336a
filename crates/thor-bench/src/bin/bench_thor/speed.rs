//! Machine-speed calibration: every end-to-end timing is rescaled to a
//! reference speed of the CPU it ran on.
//!
//! On a shared VM each CPU's speed changes every few seconds, by up to
//! 2×, with other tenants' load. It is slower execution, not
//! descheduling: CPU time slows with wall-clock time. A 20 s run then
//! reports whatever mix of fast and slow stretches it met, and over ten
//! seeds single-threaded `batch-narrow` spread by 27% (IQR ÷ median). A
//! fixed kernel, timed on the same CPUs right before and right after each
//! measured operation, gives their speed at that moment; each sample is
//! rescaled to the speed at which the kernel takes [`REFERENCE_S`]. Over
//! the same ten seeds that brought `batch-narrow` to 1.4% and two-thread
//! `batch-wide` from 17% to 4.7%.
//!
//! The kernel counts 20 000 short words in a `HashMap`, upper-cases the
//! distinct ones and sorts them: string hashing, small allocations and
//! comparisons, the mix the pipeline spends its time on. It uses only
//! `std`, so no change to the program under test can move it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::Instant;

use crate::inputs::SplitMix64;

/// Kernel seconds at the reference speed: about its time on the 2-vCPU
/// Xeon VM the benchmark was built on, at that machine's full speed.
/// Only ratios to it matter.
pub const REFERENCE_S: f64 = 0.008;
/// Words the kernel counts.
const WORDS: usize = 20_000;
/// Counting passes per kernel run.
const PASSES: usize = 2;

/// The raw affinity calls (no libc crate): the same declaration style
/// thor-fault uses for `mmap`.
mod sys {
    use std::os::raw::c_int;

    extern "C" {
        pub fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
        pub fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
    }
}

/// CPUs an affinity mask can name, in 64-bit words.
const MASK_WORDS: usize = 16;
type Mask = [u64; MASK_WORDS];

/// The calling thread's affinity mask, or `None` if it cannot be read.
fn current_mask() -> Option<Mask> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live array of exactly the size passed; pid 0
    // is the calling thread.
    let rc = unsafe { sys::sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
    (rc >= 0).then_some(mask)
}

fn set_mask(mask: &Mask) {
    // SAFETY: as in `current_mask`. A failed call leaves the affinity
    // unchanged, which loses the pinning, not correctness.
    unsafe { sys::sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) };
}

fn pin(cpu: usize) {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    set_mask(&mask);
}

/// One measured operation: its wall-clock, and the kernel's time on the
/// CPUs it ran on, before and after it.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Wall-clock seconds of the operation.
    pub wall_s: f64,
    /// Mean kernel seconds around it.
    pub kernel_s: f64,
}

impl Timed {
    /// The factor that rescales a time measured around this operation
    /// to the reference speed.
    pub fn scale(&self) -> f64 {
        REFERENCE_S / self.kernel_s
    }

    /// The operation's seconds at the reference speed.
    pub fn scaled_s(&self) -> f64 {
        self.wall_s * self.scale()
    }
}

/// How the CPUs around a measured operation are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cpus {
    /// Pin the calling thread to the next CPU in turn, so a
    /// single-threaded operation runs on the CPU the kernel timed, and
    /// consecutive operations cover every CPU.
    Next,
    /// Leave the operation where the scheduler puts it, since it starts
    /// threads, and time the kernel on every CPU.
    All,
}

/// The kernel, the CPUs it runs on, and every kernel time it measured.
pub struct Speed {
    words: Vec<String>,
    /// The calling thread's affinity when calibration started; restored
    /// after every operation.
    original: Option<Mask>,
    cpus: Vec<usize>,
    /// Operations pinned so far.
    turn: usize,
    kernel_s: Vec<f64>,
}

/// A measured operation in progress: the kernel's time before it and the
/// CPU it was pinned to, if any.
pub struct Around {
    before_s: f64,
    cpu: Option<usize>,
}

impl Speed {
    /// The kernel's fixed input, and the CPUs the calling thread may run
    /// on. Where they cannot be read, nothing is pinned and the kernel
    /// runs wherever the scheduler puts it.
    pub fn new() -> Speed {
        let mut rng = SplitMix64(0xCA11_B8A7E);
        let words = (0..WORDS)
            .map(|i| format!("w{}x{}", rng.next() % 5000, i % 7))
            .collect();
        let original = current_mask();
        let cpus = original.map_or_else(Vec::new, |mask| {
            (0..MASK_WORDS * 64)
                .filter(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)
                .collect()
        });
        Speed {
            words,
            original,
            cpus,
            turn: 0,
            kernel_s: Vec::new(),
        }
    }

    /// One kernel run on the calling thread, in seconds.
    fn kernel(&self) -> f64 {
        type Fixed = BuildHasherDefault<DefaultHasher>;
        let t0 = Instant::now();
        for _ in 0..PASSES {
            let mut counts: HashMap<&str, u32, Fixed> = HashMap::default();
            for w in &self.words {
                *counts.entry(w.as_str()).or_default() += 1;
            }
            let mut distinct: Vec<String> = counts.keys().map(|w| w.to_uppercase()).collect();
            distinct.sort();
            black_box(distinct);
        }
        t0.elapsed().as_secs_f64()
    }

    /// The kernel's time on `cpu`, or its mean over every CPU; the
    /// calling thread is left pinned to `cpu`, or back on its original
    /// CPUs.
    fn measure(&mut self, cpu: Option<usize>) -> f64 {
        let s = match cpu {
            Some(cpu) => {
                pin(cpu);
                self.kernel()
            }
            None if self.cpus.is_empty() => self.kernel(),
            None => {
                let times: Vec<f64> = self
                    .cpus
                    .iter()
                    .map(|&cpu| {
                        pin(cpu);
                        self.kernel()
                    })
                    .collect();
                self.unpin();
                times.iter().sum::<f64>() / times.len() as f64
            }
        };
        self.kernel_s.push(s);
        s
    }

    /// Put the calling thread back on the CPUs it had when calibration
    /// started.
    pub fn unpin(&self) {
        if let Some(mask) = &self.original {
            set_mask(mask);
        }
    }

    /// Start a measured operation: choose its CPUs and time the kernel
    /// on them.
    pub fn begin(&mut self, cpus: Cpus) -> Around {
        let cpu = match cpus {
            Cpus::Next if !self.cpus.is_empty() => {
                self.turn += 1;
                Some(self.cpus[(self.turn - 1) % self.cpus.len()])
            }
            _ => None,
        };
        Around {
            before_s: self.measure(cpu),
            cpu,
        }
    }

    /// End a measured operation: time the kernel again on the same CPUs,
    /// restore the original affinity, and return the mean kernel time.
    pub fn end(&mut self, around: Around) -> f64 {
        let after_s = self.measure(around.cpu);
        self.unpin();
        (around.before_s + after_s) / 2.0
    }

    /// Run and time `f` between two kernel runs on `cpus`.
    pub fn time<T>(&mut self, cpus: Cpus, f: impl FnOnce() -> T) -> (T, Timed) {
        let around = self.begin(cpus);
        let t0 = Instant::now();
        let out = f();
        let wall_s = t0.elapsed().as_secs_f64();
        let kernel_s = self.end(around);
        (out, Timed { wall_s, kernel_s })
    }

    /// Run `f(0)`, …, `f(n − 1)` where the scheduler puts them, with the
    /// kernel timed on every CPU before the first, between each two and
    /// after the last; each run gets the mean of the kernel times on
    /// either side of it.
    pub fn time_each<T>(&mut self, n: usize, mut f: impl FnMut(usize) -> T) -> Vec<(T, Timed)> {
        let mut before_s = self.measure(None);
        (0..n)
            .map(|i| {
                let t0 = Instant::now();
                let out = f(i);
                let wall_s = t0.elapsed().as_secs_f64();
                let after_s = self.measure(None);
                let kernel_s = (before_s + after_s) / 2.0;
                before_s = after_s;
                (out, Timed { wall_s, kernel_s })
            })
            .collect()
    }

    /// Every kernel time measured so far, in milliseconds.
    pub fn kernel_ms(&self) -> Vec<f64> {
        self.kernel_s.iter().map(|s| s * 1e3).collect()
    }
}

impl Drop for Speed {
    fn drop(&mut self) {
        self.unpin();
    }
}

/// Samples of one timing metric, as measured and rescaled to the
/// reference speed.
#[derive(Debug, Default)]
pub struct Series {
    /// As measured.
    pub raw: Vec<f64>,
    /// At the reference speed.
    pub scaled: Vec<f64>,
}

impl Series {
    /// A duration: `t`'s seconds times `per_s` (1e3 for milliseconds).
    pub fn time(&mut self, t: Timed, per_s: f64) {
        self.raw.push(t.wall_s * per_s);
        self.scaled.push(t.scaled_s() * per_s);
    }

    /// A rate: `count` per `t`.
    pub fn rate(&mut self, count: f64, t: Timed) {
        self.raw.push(count / t.wall_s);
        self.scaled.push(count / t.scaled_s());
    }

    /// A time measured some other way, and the factor that rescales it.
    pub fn scaled_by(&mut self, value: f64, factor: f64) {
        self.raw.push(value);
        self.scaled.push(value * factor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_rescale_to_the_reference_speed() {
        let slow = Timed {
            wall_s: 0.2,
            kernel_s: REFERENCE_S * 2.0,
        };
        assert_eq!(slow.scaled_s(), 0.1);
        let mut s = Series::default();
        s.time(slow, 1e3);
        s.rate(10.0, slow);
        s.scaled_by(4.0, slow.scale());
        assert_eq!(s.raw, [200.0, 50.0, 4.0]);
        assert_eq!(s.scaled, [100.0, 100.0, 2.0]);
    }

    #[test]
    fn pinning_rotates_and_restores_the_affinity() {
        let before = current_mask();
        let mut speed = Speed::new();
        let n = speed.cpus.len();
        for i in 0..2 * n {
            let (pinned, t) = speed.time(Cpus::Next, current_mask);
            if let (Some(mask), true) = (pinned, n > 1) {
                let cpu = speed.cpus[i % n];
                assert_eq!(mask.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
                assert_eq!((mask[cpu / 64] >> (cpu % 64)) & 1, 1);
            }
            assert!(t.kernel_s > 0.0);
            assert_eq!(current_mask(), before, "restored after each operation");
        }
        let (all, _) = speed.time(Cpus::All, current_mask);
        assert_eq!(all, before, "an operation on every CPU is not pinned");
        let each = speed.time_each(3, |i| (i, current_mask()));
        assert_eq!(
            each.iter().map(|((i, _), _)| *i).collect::<Vec<_>>(),
            [0, 1, 2]
        );
        assert!(each.iter().all(|((_, mask), _)| *mask == before));
        assert_eq!(
            speed.kernel_ms().len(),
            2 * (2 * n + 1) + 4,
            "shared kernel runs"
        );
    }
}

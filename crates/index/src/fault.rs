//! Deterministic I/O fault injection for durability testing.
//!
//! Real storage fails in a handful of characteristic ways: reads return
//! fewer bytes than asked (short reads), the kernel interrupts a call
//! (transient `io::Error`s), media silently flips bits, and crashes
//! truncate files mid-write. [`FaultyReader`] reproduces all four on
//! any byte stream — the read of a file image at open
//! ([`CompressedIndex::open_faulty`](crate::CompressedIndex::open_faulty)
//! and its store twin), streaming loads, and the verification walk —
//! driven by a [`FaultPlan`] seeded through the in-repo `rand`
//! stand-in, so a failing run replays exactly from its seed.
//!
//! The probabilistic decisions are derived from `(seed, call counter)`,
//! so the same plan against the same read sequence injects the same
//! faults.

use std::io::{self, Read};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A recipe for the faults to inject, applied on top of pristine bytes.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed for the per-call pseudo-random decisions.
    pub seed: u64,
    /// Probability that a read returns fewer bytes than requested.
    pub short_read_prob: f64,
    /// Probability that a read fails with a transient
    /// (`ErrorKind::Interrupted`) error instead of returning data.
    pub transient_error_prob: f64,
    /// Upper bound on the *total* number of transient errors injected
    /// over the life of the file, so a bounded-retry reader is
    /// guaranteed to eventually make progress.
    pub transient_budget: u32,
    /// Byte positions to corrupt, as `(offset, xor_mask)` pairs. Must be
    /// sorted by offset. A mask of zero is a no-op.
    pub bit_flips: Vec<(u64, u8)>,
    /// Pretend the file ends at this offset (reads beyond it see EOF).
    pub truncate_at: Option<u64>,
}

impl FaultPlan {
    /// A plan that injects nothing: the shim behaves like the real file.
    pub fn clean(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            short_read_prob: 0.0,
            transient_error_prob: 0.0,
            transient_budget: 0,
            bit_flips: Vec::new(),
            truncate_at: None,
        }
    }

    /// Enable short reads with probability `p`.
    pub fn with_short_reads(mut self, p: f64) -> FaultPlan {
        self.short_read_prob = p;
        self
    }

    /// Enable transient errors with probability `p`, at most `budget`
    /// injections total.
    pub fn with_transient_errors(mut self, p: f64, budget: u32) -> FaultPlan {
        self.transient_error_prob = p;
        self.transient_budget = budget;
        self
    }

    /// Corrupt the bytes at `flips` (sorted by offset internally).
    pub fn with_bit_flips(mut self, mut flips: Vec<(u64, u8)>) -> FaultPlan {
        flips.sort_unstable_by_key(|&(offset, _)| offset);
        self.bit_flips = flips;
        self
    }

    /// Pretend the file ends at byte `offset`.
    pub fn with_truncation(mut self, offset: u64) -> FaultPlan {
        self.truncate_at = Some(offset);
        self
    }

    /// Apply the plan's bit flips to the slice of `buf` that was read
    /// from file offset `base`.
    fn apply_flips(&self, buf: &mut [u8], base: u64) {
        if self.bit_flips.is_empty() {
            return;
        }
        let end = base + buf.len() as u64;
        let start = self.bit_flips.partition_point(|&(offset, _)| offset < base);
        for &(offset, mask) in &self.bit_flips[start..] {
            if offset >= end {
                break;
            }
            buf[(offset - base) as usize] ^= mask;
        }
    }
}

/// A streaming [`Read`] wrapper that injects a [`FaultPlan`]'s faults
/// at absolute offsets from the start of `inner`.
#[derive(Debug)]
pub struct FaultyReader<R> {
    inner: R,
    plan: FaultPlan,
    pos: u64,
    transient_used: u32,
    calls: u64,
}

impl<R: Read> FaultyReader<R> {
    /// Wrap `inner` (assumed to start at byte offset zero) with `plan`.
    pub fn new(inner: R, plan: FaultPlan) -> FaultyReader<R> {
        FaultyReader {
            inner,
            plan,
            pos: 0,
            transient_used: 0,
            calls: 0,
        }
    }
}

impl<R: Read> Read for FaultyReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let call = self.calls;
        self.calls += 1;
        let mut rng =
            StdRng::seed_from_u64(self.plan.seed ^ call.wrapping_mul(0x9E37_79B9_7F4A_7C15));

        if self.plan.transient_error_prob > 0.0
            && self.transient_used < self.plan.transient_budget
            && rng.random_bool(self.plan.transient_error_prob)
        {
            self.transient_used += 1;
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected transient I/O fault",
            ));
        }

        if let Some(limit) = self.plan.truncate_at {
            if self.pos >= limit {
                return Ok(0);
            }
        }
        let mut want = buf.len();
        if let Some(limit) = self.plan.truncate_at {
            want = want.min((limit - self.pos) as usize);
        }
        if want > 1 && self.plan.short_read_prob > 0.0 && rng.random_bool(self.plan.short_read_prob)
        {
            want = rng.random_range(1..want);
        }
        let n = self.inner.read(&mut buf[..want])?;
        self.plan.apply_flips(&mut buf[..n], self.pos);
        self.pos += n as u64;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload() -> Vec<u8> {
        (0u32..4096).map(|i| (i * 31 + 7) as u8).collect()
    }

    /// Every `read` call's length, and the bytes read, through `plan`.
    fn read_all(data: &[u8], plan: FaultPlan, chunk: usize) -> (Vec<usize>, Vec<u8>) {
        let mut reader = FaultyReader::new(data, plan);
        let (mut sizes, mut out) = (Vec::new(), Vec::new());
        let mut buf = vec![0u8; chunk];
        loop {
            match reader.read(&mut buf) {
                Ok(0) => return (sizes, out),
                Ok(n) => {
                    sizes.push(n);
                    out.extend_from_slice(&buf[..n]);
                }
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::Interrupted),
            }
        }
    }

    #[test]
    fn clean_plan_is_transparent() {
        let data = payload();
        assert_eq!(read_all(&data, FaultPlan::clean(1), 256).1, data);
    }

    #[test]
    fn short_reads_are_deterministic_per_seed() {
        let data = payload();
        let run = |seed| {
            let (sizes, out) = read_all(&data, FaultPlan::clean(seed).with_short_reads(0.7), 256);
            assert_eq!(out, data, "short reads must still return correct bytes");
            sizes
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100));
        assert!(run(99).iter().any(|&n| n < 256), "no short read injected");
    }

    #[test]
    fn transient_budget_is_respected() {
        let data = payload();
        let mut reader =
            FaultyReader::new(&data[..], FaultPlan::clean(5).with_transient_errors(1.0, 3));
        let mut errors = 0;
        for _ in 0..10 {
            let mut buf = [0u8; 16];
            match reader.read(&mut buf) {
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::Interrupted);
                    errors += 1;
                }
                Ok(n) => assert!(n > 0),
            }
        }
        assert_eq!(errors, 3);
    }

    #[test]
    fn bit_flips_and_truncation_apply() {
        let data = payload();
        let plan = FaultPlan::clean(2)
            .with_bit_flips(vec![(10, 0xFF), (100, 0x01)])
            .with_truncation(200);
        let out = read_all(&data, plan, 64).1;
        assert_eq!(out.len(), 200, "truncation should stop reads at 200");
        assert_eq!(out[10], data[10] ^ 0xFF);
        assert_eq!(out[100], data[100] ^ 0x01);
        assert_eq!(out[11], data[11]);
    }

    #[test]
    fn faulty_reader_read_to_end_survives_short_reads() {
        let data = payload();
        let mut out = Vec::new();
        FaultyReader::new(&data[..], FaultPlan::clean(77).with_short_reads(0.8))
            .read_to_end(&mut out)
            .unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn faulty_reader_truncation_is_clean_eof() {
        let data = payload();
        let mut out = Vec::new();
        FaultyReader::new(&data[..], FaultPlan::clean(3).with_truncation(123))
            .read_to_end(&mut out)
            .unwrap();
        assert_eq!(out, &data[..123]);
    }
}

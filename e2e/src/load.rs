//! Load generation: the closed loop the searches run in and the open
//! loop the live writer runs in.

use std::time::{Duration, Instant};

use crate::gate::Tally;
use crate::stats::{median, percentile};

/// Searches in a round: four passes over a 64-query mix. Every round
/// holds the same queries, so rounds differ only by what the host and
/// the system did meanwhile.
pub const ROUND_LEN: usize = 256;

/// One measured operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Position in the workload's operation sequence, across clients.
    pub index: usize,
    pub latency_ms: f64,
    /// Completion time, in seconds since the window began.
    pub done_s: f64,
    pub ok: bool,
}

/// Everything measured in one window.
#[derive(Debug, Default)]
pub struct Window {
    pub samples: Vec<Sample>,
    pub tally: Tally,
}

impl Window {
    /// Fold another client's window into this one.
    pub fn merge(&mut self, other: Window) {
        self.samples.extend(other.samples);
        self.tally.add(other.tally);
    }

    /// The window's figures, from its complete rounds only — the
    /// unfinished round at the end does not hold every query equally
    /// often. Fails with fewer than `min_rounds` complete rounds.
    ///
    /// Latency is summarised per query first: each of the mix's queries
    /// is run four times a round, and its latency is the median of its
    /// repetitions. `p50_ms` and `p90_ms` are percentiles over the
    /// queries of those medians. This host stalls for milliseconds and
    /// slows for seconds at random; percentiles over all samples moved
    /// by 0.24 of their median between identical runs, percentiles over
    /// per-query medians by 0.08. What is given up is the rare slow
    /// execution of a query that is usually fast: `tail_ratio_p95`
    /// reports it, unbounded, as each sample over its query's median.
    ///
    /// Throughput is the median over rounds of the round's rate, for the
    /// same reason: a slow phase costs the rounds it covers, not the run.
    pub fn summary(&self, mix_len: usize, min_rounds: usize) -> Result<Summary, String> {
        let rounds = self.samples.len() / ROUND_LEN;
        if rounds < min_rounds.max(1) {
            return Err(format!(
                "{} samples make {rounds} complete rounds of {ROUND_LEN}, fewer than {min_rounds}",
                self.samples.len(),
            ));
        }
        let kept = || self.samples.iter().filter(|s| s.index / ROUND_LEN < rounds);

        let mut per_query: Vec<Vec<f64>> = vec![Vec::new(); mix_len];
        for s in kept() {
            per_query[s.index % mix_len].push(s.latency_ms);
        }
        let typical: Vec<f64> = per_query.iter().map(|reps| median(reps)).collect();
        let ratios: Vec<f64> = kept()
            .map(|s| s.latency_ms / typical[s.index % mix_len])
            .collect();

        // A round ends when its last operation completes.
        let mut ends = vec![0.0f64; rounds];
        let mut correct = vec![0usize; rounds];
        for s in kept() {
            let r = s.index / ROUND_LEN;
            ends[r] = ends[r].max(s.done_s);
            correct[r] += usize::from(s.ok);
        }
        let mut began = 0.0;
        let rates: Vec<f64> = ends
            .iter()
            .zip(&correct)
            .map(|(&end, &ok)| {
                let rate = ok as f64 / (end - began);
                began = end;
                rate
            })
            .collect();
        eprintln!("round rates, 1/s: {rates:.1?}");

        Ok(Summary {
            p50_ms: median(&typical),
            p90_ms: percentile(&typical, 90.0, TAIL_GUARD)?,
            throughput_qps: median(&rates),
            tail_ratio_p95: percentile(&ratios, 95.0, TAIL_GUARD)?,
            rounds,
            samples: rounds * ROUND_LEN,
        })
    }
}

/// Values that must lie beyond a reported percentile.
const TAIL_GUARD: usize = 5;

/// What a window reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub p50_ms: f64,
    /// p90 over the mix's 64 queries: six lie beyond it.
    pub p90_ms: f64,
    /// Correct operations per second.
    pub throughput_qps: f64,
    /// p95 over all samples of latency / the query's median latency.
    pub tail_ratio_p95: f64,
    pub rounds: usize,
    pub samples: usize,
}

/// One client of a closed loop: take an operation index from `next()`
/// and run `op(index % mix_len)`, each after the previous one returned,
/// until `seconds` have passed. `op` returns whether its answer was
/// correct; only the call itself is inside the latency.
pub fn closed_loop(
    seconds: f64,
    mix_len: usize,
    mut next: impl FnMut() -> usize,
    mut op: impl FnMut(usize) -> bool,
) -> Window {
    let mut window = Window::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let index = next();
        let t0 = Instant::now();
        let ok = op(index % mix_len);
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        window.samples.push(Sample {
            index,
            latency_ms,
            done_s: start.elapsed().as_secs_f64(),
            ok,
        });
        window.tally.record(ok);
    }
    window
}

/// A closed loop with one client: operation indices simply count up.
pub fn closed_loop_solo(seconds: f64, mix_len: usize, op: impl FnMut(usize) -> bool) -> Window {
    let mut indices = 0..;
    closed_loop(seconds, mix_len, || indices.next().expect("endless"), op)
}

/// Time as the open loop sees it; the test substitutes a fake.
pub trait Clock {
    fn now(&self) -> Duration;
    fn sleep_until(&self, deadline: Duration);
}

pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, deadline: Duration) {
        std::thread::sleep(deadline.saturating_sub(self.now()));
    }
}

/// One operation of an open loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scheduled {
    /// Completion time minus *due* time: what a caller who arrived on
    /// schedule waited, queueing behind a stalled predecessor included.
    pub latency_ms: f64,
    /// Start time minus due time: how late the generator ran.
    pub lag_ms: f64,
    pub ok: bool,
}

/// Open loop: operation `k` is due at `k * period` whatever happened to
/// the ones before it. It starts when due or, if the loop is behind, as
/// soon as its predecessor returns. Operations that have not started by
/// `deadline` are shed: a generator that fell behind does not run on
/// after its window to catch up.
pub fn open_loop(
    count: usize,
    period: Duration,
    deadline: Duration,
    clock: &impl Clock,
    mut op: impl FnMut(usize) -> bool,
) -> Vec<Scheduled> {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut done = Vec::with_capacity(count);
    for k in 0..count {
        let due = period * k as u32;
        clock.sleep_until(due);
        let started = clock.now();
        if started >= deadline {
            break;
        }
        let ok = op(k);
        done.push(Scheduled {
            latency_ms: ms(clock.now().saturating_sub(due)),
            lag_ms: ms(started.saturating_sub(due)),
            ok,
        });
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    struct FakeClock(Cell<Duration>);

    impl FakeClock {
        fn advance(&self, by: Duration) {
            self.0.set(self.0.get() + by);
        }
    }

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }

        fn sleep_until(&self, deadline: Duration) {
            self.0.set(self.0.get().max(deadline));
        }
    }

    /// A writer that stalls 35 ms on its first batch and then needs 1 ms
    /// a batch, on a 10 ms schedule: the stall must show in the batches
    /// queued behind it, not only in the one that stalled.
    #[test]
    fn open_loop_latency_counts_from_due_time() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let ms = Duration::from_millis;
        let samples = open_loop(6, ms(10), ms(60), &clock, |k| {
            clock.advance(if k == 0 { ms(35) } else { ms(1) });
            true
        });
        let latency: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
        let lag: Vec<f64> = samples.iter().map(|s| s.lag_ms).collect();
        // Batch 1 was due at 10, ran 35..36; batch 2 due at 20, ran 36..37;
        // batch 3 due at 30, ran 37..38; batch 4 is back on schedule.
        assert_eq!(latency, [35.0, 26.0, 17.0, 8.0, 1.0, 1.0]);
        assert_eq!(lag, [0.0, 25.0, 16.0, 7.0, 0.0, 0.0]);
    }

    /// A writer that needs 25 ms a batch on a 10 ms schedule falls ever
    /// further behind; what has not started when the window ends is shed.
    #[test]
    fn open_loop_sheds_what_has_not_started_by_the_deadline() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let ms = Duration::from_millis;
        let samples = open_loop(10, ms(10), ms(100), &clock, |_| {
            clock.advance(ms(25));
            true
        });
        // Batches start at 0, 25, 50, 75; the fifth would start at 100.
        assert_eq!(samples.len(), 4);
        assert_eq!(samples[3].lag_ms, 45.0);
    }

    #[test]
    fn closed_loop_cycles_the_mix_and_counts_failures() {
        let mut cursor = 0usize;
        let mut seen = Vec::new();
        let window = closed_loop(
            0.03,
            4,
            || {
                cursor += 1;
                cursor - 1
            },
            |i| {
                seen.push(i);
                std::thread::sleep(Duration::from_millis(1));
                seen.len() != 2
            },
        );
        assert_eq!(window.samples.len() as u64, window.tally.attempted);
        assert_eq!(window.tally.failed, 1);
        assert_eq!(&seen[..6], [0, 1, 2, 3, 0, 1]);
        assert!(window
            .samples
            .windows(2)
            .all(|w| w[0].done_s <= w[1].done_s));
        assert!(window.samples.iter().all(|s| s.latency_ms >= 1.0));
    }

    /// Three rounds over a mix of 64 queries whose query `q` takes
    /// `10 + q` ms, two clients interleaved. The middle round ran while
    /// the host was three times slower, and eight executions of the
    /// first pass stalled for 80 ms.
    #[test]
    fn summary_is_per_query_medians_and_the_median_round() {
        let mut clients = [Window::default(), Window::default()];
        let mut clock = 0.0;
        for index in 0..3 * ROUND_LEN + 40 {
            let slow = if index / ROUND_LEN == 1 { 3.0 } else { 1.0 };
            let stall = if index < 64 && index % 8 == 7 {
                80.0
            } else {
                0.0
            };
            let latency_ms = (10.0 + (index % 64) as f64) * slow + stall;
            clock += latency_ms / 1e3;
            clients[index % 2].samples.push(Sample {
                index,
                latency_ms,
                done_s: clock,
                ok: index != ROUND_LEN + 5,
            });
        }
        let [mut window, other] = clients;
        window.merge(other);
        let s = window.summary(64, 3).unwrap();
        assert_eq!((s.rounds, s.samples), (3, 3 * ROUND_LEN));
        // Queries cost 10..=73 ms; the slow round and the stalls are a
        // minority of every query's twelve repetitions.
        assert_eq!(s.p50_ms, 41.5);
        assert_eq!(s.p90_ms, 67.0);
        // A third of the samples ran three times slower than usual.
        assert_eq!(s.tail_ratio_p95, 3.0);
        // Rates: the slow round, the round with the stalls, the calm one.
        let pass_ms = (10..=73).sum::<i32>() as f64;
        let stalled_round_s = (4.0 * pass_ms + 8.0 * 80.0) / 1e3;
        assert!((s.throughput_qps - 256.0 / stalled_round_s).abs() < 1e-6);
        assert!(
            window.summary(64, 4).is_err(),
            "only three rounds are complete"
        );
    }
}

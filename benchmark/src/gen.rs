//! Seeded inputs: argument streams and Poisson arrival schedules. The
//! same seed gives byte-identical inputs; the daemon sees only these.

use crate::workloads::Class;

/// SplitMix64. One generator per `(seed, stream)` pair, so streams are
/// independent and adding one never shifts another.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]` — never 0, so `ln` is finite.
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Stream ids: measured-phase streams are the client or class index;
/// warm-up streams are offset so warm-up never consumes measured inputs.
pub const WARMUP_STREAM: u64 = 1_000;
/// Stream id of the arrival-time draws of class `i` is `ARRIVAL_STREAM + i`.
pub const ARRIVAL_STREAM: u64 = 2_000;
/// Stream id of the 1-in-256 re-check sample.
pub const VERIFY_STREAM: u64 = 3_000;

/// The request arguments of one client or class.
pub fn arg_stream(seed: u64, stream: u64) -> impl Iterator<Item = u64> {
    let mut rng = Rng::new(seed, stream);
    std::iter::repeat_with(move || rng.next_u64())
}

/// One scheduled request of an open-loop workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Intended send time, nanoseconds from phase start.
    pub at_ns: u64,
    /// Index into the workload's classes (and connections).
    pub class: usize,
    pub arg: u64,
}

/// Poisson arrivals of every class over `duration_ns`, merged in time
/// order. `stream_base` separates the warm-up schedule from the measured.
pub fn poisson_schedule(
    seed: u64,
    stream_base: u64,
    classes: &[Class],
    duration_ns: u64,
) -> Vec<Arrival> {
    let mut all = Vec::new();
    for (class, c) in classes.iter().enumerate() {
        let mut gaps = Rng::new(seed, stream_base + ARRIVAL_STREAM + class as u64);
        let mut args = arg_stream(seed, stream_base + class as u64);
        let mut t = 0.0f64;
        loop {
            t += -gaps.next_unit().ln() / c.rate * 1e9;
            if t >= duration_ns as f64 {
                break;
            }
            all.push(Arrival {
                at_ns: t as u64,
                class,
                arg: args.next().expect("infinite stream"),
            });
        }
    }
    all.sort_by_key(|a| (a.at_ns, a.class));
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn burst_classes() -> &'static [Class] {
        workloads::by_name("burst").unwrap().classes
    }

    #[test]
    fn same_seed_same_inputs() {
        let a: Vec<u64> = arg_stream(7, 0).take(1_000).collect();
        let b: Vec<u64> = arg_stream(7, 0).take(1_000).collect();
        assert_eq!(a, b);
        let s1 = poisson_schedule(7, 0, burst_classes(), 2_000_000_000);
        let s2 = poisson_schedule(7, 0, burst_classes(), 2_000_000_000);
        assert_eq!(s1, s2);
    }

    #[test]
    fn different_seed_or_stream_differs() {
        let a: Vec<u64> = arg_stream(7, 0).take(16).collect();
        assert_ne!(a, arg_stream(8, 0).take(16).collect::<Vec<_>>());
        assert_ne!(a, arg_stream(7, 1).take(16).collect::<Vec<_>>());
        assert_ne!(
            poisson_schedule(7, 0, burst_classes(), 1_000_000_000),
            poisson_schedule(8, 0, burst_classes(), 1_000_000_000)
        );
        assert_ne!(
            poisson_schedule(7, 0, burst_classes(), 1_000_000_000),
            poisson_schedule(7, WARMUP_STREAM, burst_classes(), 1_000_000_000)
        );
    }

    #[test]
    fn schedule_is_sorted_and_hits_the_rates() {
        let classes = burst_classes();
        let secs = 20u64;
        let s = poisson_schedule(1, 0, classes, secs * 1_000_000_000);
        assert!(s.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        for (i, c) in classes.iter().enumerate() {
            let n = s.iter().filter(|a| a.class == i).count() as f64;
            let want = c.rate * secs as f64;
            assert!((n - want).abs() < 0.05 * want, "{}: {n} vs {want}", c.label);
        }
    }
}

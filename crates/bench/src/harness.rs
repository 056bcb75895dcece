//! The one timing authority of `hpm-bench`: the crate reads the clock
//! here and nowhere else. A measurement is a [`Timing`] from [`sample`] —
//! one warm-up call, then [`SAMPLES`] timed calls — printed as
//! `floor ± spread`.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Number of timed repetitions per measurement.
pub const SAMPLES: usize = 10;

/// What the timed repetitions of one body came to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timing {
    /// Fastest repetition: the cost with the least interference.
    pub floor: Duration,
    /// Middle repetition.
    pub median: Duration,
    /// Interquartile range: how far apart ordinary repetitions landed. A
    /// difference between two floors that is inside it is not resolved.
    pub spread: Duration,
}

impl Timing {
    /// The floor, median and interquartile range of [`SAMPLES`] spans.
    pub fn of(mut times: [Duration; SAMPLES]) -> Timing {
        times.sort();
        Timing {
            floor: times[0],
            median: times[SAMPLES / 2],
            spread: times[SAMPLES * 3 / 4] - times[SAMPLES / 4],
        }
    }

    /// Whether this floor and `other`'s are further apart than the two
    /// spreads together, or equal; otherwise their difference is not
    /// resolved.
    pub fn resolves_from(&self, other: &Timing) -> bool {
        let gap = self.floor.abs_diff(other.floor);
        gap.is_zero() || gap > self.spread + other.spread
    }
}

/// The factor and name of the unit — s, ms or µs — that prints `d` with
/// one to three integer digits.
pub(crate) fn unit_of(d: Duration) -> (f64, &'static str) {
    match d.as_micros() {
        1_000_000.. => (1.0, "s"),
        1_000.. => (1e3, "ms"),
        _ => (1e6, "µs"),
    }
}

impl std::fmt::Display for Timing {
    /// `floor ±spread`, both in the unit that suits the floor.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (scale, unit) = unit_of(self.floor);
        let (floor, spread) = (self.floor.as_secs_f64(), self.spread.as_secs_f64());
        write!(f, "{:.3} ±{:.3} {unit}", floor * scale, spread * scale)
    }
}

/// Time `body`: one untimed warm-up, then [`SAMPLES`] timed calls, each on
/// fresh input from `setup` (which is not timed). `reported` picks the
/// span out of a call's output when the callee measured it itself —
/// restoration is interleaved with the resumed program's execution, so
/// only the library can time it — and `None` takes the wall time of the
/// call. Returns the timing and the last call's output, so counters can
/// be read off a run that was also measured.
pub fn sample<S, T>(
    mut setup: impl FnMut() -> S,
    mut body: impl FnMut(S) -> T,
    reported: impl Fn(&T) -> Option<Duration>,
) -> (Timing, T) {
    let mut out = black_box(body(setup()));
    let mut times = [Duration::ZERO; SAMPLES];
    for t in &mut times {
        let input = setup();
        let t0 = Instant::now();
        out = black_box(body(input));
        let wall = t0.elapsed();
        *t = reported(&out).unwrap_or(wall);
    }
    (Timing::of(times), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_warms_up_once_and_times_every_repetition_on_fresh_input() {
        let (mut setups, mut calls) = (0usize, 0usize);
        let (timing, last) = sample(
            || {
                setups += 1;
                vec![0u8; setups]
            },
            |v| {
                calls += 1;
                v.len()
            },
            |_| None,
        );
        assert_eq!((setups, calls), (1 + SAMPLES, 1 + SAMPLES));
        assert_eq!(last, 1 + SAMPLES, "the output is the last repetition's");
        assert!(timing.floor <= timing.median);
    }

    #[test]
    fn spread_is_the_interquartile_range_and_floor_the_minimum() {
        // A body that sleeps 1 ms on every fourth call: two of the ten
        // timed calls are slow, so the floor and both quartiles sit on fast ones.
        let mut n = 0u32;
        let (timing, ()) = sample(
            || (),
            |()| {
                n += 1;
                if n.is_multiple_of(4) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            },
            |_| None,
        );
        assert!(timing.floor < Duration::from_millis(1), "{timing:?}");
        assert!(timing.median < Duration::from_millis(1), "{timing:?}");
        assert!(timing.spread < Duration::from_millis(1), "{timing:?}");
        // A span the callee reports replaces the wall time of the call.
        let (reported, ()) = sample(|| (), |()| (), |()| Some(Duration::from_secs(2)));
        assert_eq!(format!("{reported}"), "2.000 ±0.000 s");
    }
}

//! Message latency models.
//!
//! Assumption 3 of the paper only requires that "all communications
//! between adjacent blocks occur in finite time"; the algorithm must work
//! for any latency.  The simulator therefore supports several models, from
//! a fixed deterministic delay (useful for reproducible traces) to a
//! uniformly jittered delay (useful to exercise asynchrony, message
//! reordering across links, and the termination proof).
//!
//! [`LatencyModel::sample`] runs once per message, called from the
//! simulator's generic kernel, which is compiled in the crate that names
//! the block code.  A release build splits crates and modules into
//! separate codegen units, so it carries `#[inline]` to be folded into
//! that caller instead of paying an out-of-line call per message.

use crate::time::Duration;
use rand::rngs::SmallRng;
use rand::Rng;

/// How long a message takes from send to delivery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Fixed(Duration),
    /// Every message takes a duration drawn uniformly from
    /// `[min, max]` (inclusive), independently per message.
    Uniform {
        /// Minimum latency.
        min: Duration,
        /// Maximum latency.
        max: Duration,
    },
    /// Messages are delivered instantaneously (zero delay).  With FIFO
    /// tie-breaking this degenerates to a causally ordered execution.
    Instant,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::Fixed(Duration::micros(10))
    }
}

impl LatencyModel {
    /// Samples a delivery delay.
    #[inline]
    pub fn sample(&self, rng: &mut SmallRng) -> Duration {
        match *self {
            LatencyModel::Fixed(d) => d,
            LatencyModel::Instant => Duration::ZERO,
            LatencyModel::Uniform { min, max } => {
                let (lo, hi) = (min.as_micros(), max.as_micros().max(min.as_micros()));
                Duration::micros(rng.gen_range(lo..=hi))
            }
        }
    }

    /// The largest delay the model can produce.
    pub fn upper_bound(&self) -> Duration {
        match *self {
            LatencyModel::Fixed(d) => d,
            LatencyModel::Instant => Duration::ZERO,
            LatencyModel::Uniform { min, max } => {
                Duration::micros(max.as_micros().max(min.as_micros()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn fixed_and_instant_are_deterministic() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(
            LatencyModel::Fixed(Duration::micros(7)).sample(&mut rng),
            Duration::micros(7)
        );
        assert_eq!(LatencyModel::Instant.sample(&mut rng), Duration::ZERO);
    }

    #[test]
    fn uniform_stays_in_range_and_varies() {
        let model = LatencyModel::Uniform {
            min: Duration::micros(5),
            max: Duration::micros(50),
        };
        let mut rng = SmallRng::seed_from_u64(7);
        let samples: Vec<u64> = (0..200)
            .map(|_| model.sample(&mut rng).as_micros())
            .collect();
        assert!(samples.iter().all(|&s| (5..=50).contains(&s)));
        let distinct: std::collections::BTreeSet<u64> = samples.iter().copied().collect();
        assert!(distinct.len() > 5, "jitter should produce varied delays");
        assert_eq!(model.upper_bound(), Duration::micros(50));
    }

    #[test]
    fn uniform_with_inverted_bounds_does_not_panic() {
        let model = LatencyModel::Uniform {
            min: Duration::micros(50),
            max: Duration::micros(5),
        };
        let mut rng = SmallRng::seed_from_u64(7);
        assert_eq!(model.sample(&mut rng), Duration::micros(50));
    }

    #[test]
    fn default_is_a_small_fixed_latency() {
        assert_eq!(
            LatencyModel::default(),
            LatencyModel::Fixed(Duration::micros(10))
        );
    }
}

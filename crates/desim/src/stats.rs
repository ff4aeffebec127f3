//! Run statistics.

use crate::time::SimTime;
use std::fmt;
use std::time::Duration as WallDuration;

/// Counters accumulated over a simulation run.
///
/// The events-per-second figure reproduces the throughput metric the
/// authors report for VisibleSim ("650k events/sec on a simple laptop").
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimStats {
    /// Total events dequeued and dispatched.
    pub events_processed: u64,
    /// Messages sent by block codes.
    pub messages_sent: u64,
    /// Messages dropped by a fault-injecting network model (never
    /// delivered; a violation of the paper's Assumption 3).
    pub messages_dropped: u64,
    /// Duplicate deliveries injected by a fault-injecting network model.
    pub messages_duplicated: u64,
    /// Messages dropped because their target module was inside a
    /// [`FaultPlan`](crate::fault::FaultPlan) dead window at delivery
    /// time.
    pub messages_dropped_dead: u64,
    /// Timer events dropped because their module was dead at expiry (a
    /// control-exempt tag is never dropped).
    pub timers_dropped_dead: u64,
    /// Timers armed by block codes.
    pub timers_set: u64,
    /// Largest number of events simultaneously pending, deliveries and
    /// timers together.
    pub max_queue_len: usize,
    /// Simulated time of the last processed event.
    pub sim_time_end: SimTime,
    /// Wall-clock time spent inside the run loop.
    pub wall_elapsed: WallDuration,
}

impl SimStats {
    /// Events processed per wall-clock second (0 when nothing ran).
    // sb-allow: float-in-state — derived host-side throughput figure; never feeds simulation state
    pub fn events_per_second(&self) -> f64 {
        let secs = self.wall_elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            // sb-allow: float-in-state — same derived output as above
            self.events_processed as f64 / secs
        }
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} events, {} messages, {} timers, sim time {}, wall {:?} ({:.0} events/s)",
            self.events_processed,
            self.messages_sent,
            self.timers_set,
            self.sim_time_end,
            self.wall_elapsed,
            self.events_per_second()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_per_second_handles_zero_elapsed() {
        let stats = SimStats::default();
        assert_eq!(stats.events_per_second(), 0.0);
    }

    #[test]
    fn events_per_second_division() {
        let stats = SimStats {
            events_processed: 1000,
            wall_elapsed: WallDuration::from_millis(500),
            ..SimStats::default()
        };
        assert!((stats.events_per_second() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn display_mentions_throughput() {
        let stats = SimStats {
            events_processed: 10,
            wall_elapsed: WallDuration::from_millis(10),
            ..SimStats::default()
        };
        assert!(stats.to_string().contains("events/s"));
    }
}

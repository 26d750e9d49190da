//! The token bucket (GCRA-equivalent leaky bucket) behind ATM usage
//! parameter control: a policed VC's `Policer` tags the cells it sends
//! beyond its traffic contract.

use crate::time::{SimDuration, SimTime};

/// A token bucket: tokens accrue at `rate` per second up to `depth`;
/// conforming traffic spends tokens. This is the Generic Cell Rate
/// Algorithm in its leaky-bucket formulation, used both for ATM usage
/// parameter control (policing) and for source shaping.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_per_sec: f64,
    depth: f64,
    tokens: f64,
    last: SimTime,
}

impl TokenBucket {
    /// A bucket refilling at `rate_per_sec` tokens/s, holding at most
    /// `depth` tokens, initially full.
    ///
    /// # Panics
    /// Panics on non-positive rate or depth.
    pub fn new(rate_per_sec: f64, depth: f64) -> Self {
        assert!(rate_per_sec > 0.0, "non-positive rate");
        assert!(depth > 0.0, "non-positive depth");
        TokenBucket {
            rate_per_sec,
            depth,
            tokens: depth,
            last: SimTime::ZERO,
        }
    }

    fn refill(&mut self, now: SimTime) {
        let dt = now.since(self.last).as_secs_f64();
        self.tokens = (self.tokens + dt * self.rate_per_sec).min(self.depth);
        self.last = now;
    }

    /// Try to spend `cost` tokens at time `now`. Returns true when the
    /// traffic conforms (tokens were available and are now spent).
    pub fn try_take(&mut self, now: SimTime, cost: f64) -> bool {
        self.refill(now);
        if self.tokens >= cost {
            self.tokens -= cost;
            true
        } else {
            false
        }
    }

    /// How long from `now` until `cost` tokens will be available (zero if
    /// already available). Used by shapers to schedule the next emission.
    pub fn time_until(&mut self, now: SimTime, cost: f64) -> SimDuration {
        self.refill(now);
        if self.tokens >= cost {
            SimDuration::ZERO
        } else {
            let deficit = cost - self.tokens;
            SimDuration::from_secs_f64(deficit / self.rate_per_sec)
        }
    }

    /// Tokens currently available (after refilling to `now`).
    pub fn available(&mut self, now: SimTime) -> f64 {
        self.refill(now);
        self.tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_bucket_conformance() {
        // 10 tokens/s, depth 1: one token available every 100 ms.
        let mut tb = TokenBucket::new(10.0, 1.0);
        let t0 = SimTime::ZERO;
        assert!(tb.try_take(t0, 1.0), "bucket starts full");
        assert!(!tb.try_take(t0, 1.0), "immediately empty");
        let wait = tb.time_until(t0, 1.0);
        assert_eq!(wait.as_millis(), 100);
        let t1 = t0 + wait;
        assert!(tb.try_take(t1, 1.0), "conforms after refill interval");
    }

    #[test]
    fn token_bucket_burst_up_to_depth() {
        let mut tb = TokenBucket::new(1.0, 5.0);
        let t = SimTime::from_secs(100); // long idle ⇒ full bucket, capped at depth
        for _ in 0..5 {
            assert!(tb.try_take(t, 1.0));
        }
        assert!(!tb.try_take(t, 1.0), "burst limited by depth");
    }

    #[test]
    fn token_bucket_available_caps_at_depth() {
        let mut tb = TokenBucket::new(100.0, 3.0);
        assert!((tb.available(SimTime::from_secs(10)) - 3.0).abs() < 1e-9);
    }
}

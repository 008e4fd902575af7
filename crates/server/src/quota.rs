//! Per-tenant admission quotas.
//!
//! Quotas are *admission* controls, enforced before an event touches
//! the tenant's session, so a rejected event never perturbs packing
//! state. Bin and item caps are deliberately conservative (they
//! pre-check against the current session view rather than simulating
//! the placement), which keeps the hot path at two integer compares;
//! the rate limit is a classic token bucket holding one second of
//! burst.

use std::time::Instant;

/// Per-tenant resource limits. `None` disables a dimension.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Quotas {
    /// Maximum concurrently open bins.
    /// Conservative: arrivals are refused while the tenant is *at*
    /// the cap, even if the item would have fit an open bin.
    pub max_open_bins: Option<u64>,
    /// Maximum in-flight (arrived, not departed) items.
    pub max_active_items: Option<u64>,
    /// Sustained events per second, with a burst allowance of one
    /// second's worth.
    pub max_events_per_sec: Option<u64>,
}

impl Quotas {
    /// No limits on any dimension.
    pub fn unlimited() -> Quotas {
        Quotas::default()
    }
}

/// Token bucket: capacity and refill rate are both
/// `max_events_per_sec`, so a tenant can burst one second of events
/// and then sustains exactly the configured rate.
#[derive(Debug)]
pub struct RateLimiter {
    rate: f64,
    tokens: f64,
    last: Instant,
}

impl RateLimiter {
    /// A bucket starting full.
    pub fn new(events_per_sec: u64) -> RateLimiter {
        let rate = events_per_sec as f64;
        RateLimiter {
            rate,
            tokens: rate,
            last: Instant::now(),
        }
    }

    /// Takes `n` tokens, refilling for elapsed wall time first.
    /// Returns `false` (taking nothing) if the bucket cannot cover
    /// the whole batch — a partial batch admit would split one wire
    /// frame into applied and refused halves.
    pub fn admit(&mut self, n: u64) -> bool {
        let now = Instant::now();
        let elapsed = now.duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + elapsed * self.rate).min(self.rate);
        let need = n as f64;
        if self.tokens >= need {
            self.tokens -= need;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bursts_then_refuses() {
        let mut rl = RateLimiter::new(10);
        assert!(rl.admit(10), "full bucket covers one second of burst");
        assert!(!rl.admit(1), "drained bucket refuses");
    }

    #[test]
    fn batches_admit_all_or_nothing() {
        let mut rl = RateLimiter::new(10);
        assert!(rl.admit(4));
        assert!(!rl.admit(100), "oversized batch refused whole");
        assert!(rl.admit(6), "refusal consumed nothing");
    }

    #[test]
    fn bucket_refills_with_time() {
        let mut rl = RateLimiter::new(1_000_000);
        assert!(rl.admit(1_000_000));
        assert!(!rl.admit(1_000_000));
        std::thread::sleep(std::time::Duration::from_millis(20));
        // ~20ms at 1M/s refills ~20k tokens.
        assert!(rl.admit(10_000));
    }
}

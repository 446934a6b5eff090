//! Injection schedules: when faults arrive.

/// Requested vs. achievable injection rate for one schedule at one launch
/// shape.
///
/// A [`InjectionSchedule::Rate`] converts into a per-threadblock probability
/// which is clamped to 1.0; past that point the schedule physically cannot
/// deliver the requested arrival rate (each block suffers at most one
/// Bernoulli trial per launch) and silently under-injects. Campaign code
/// compares `achieved_hz` against `requested_hz` instead of trusting the
/// request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateRealization {
    /// The rate the schedule asks for, in errors/second.
    pub requested_hz: f64,
    /// The rate the clamped per-block probability can actually deliver.
    pub achieved_hz: f64,
}

impl RateRealization {
    /// A schedule that injects nothing realizes a zero rate exactly.
    pub fn zero() -> Self {
        RateRealization {
            requested_hz: 0.0,
            achieved_hz: 0.0,
        }
    }

    /// True when the per-block probability clamp truncated the request.
    pub fn saturated(&self) -> bool {
        self.achieved_hz < self.requested_hz * (1.0 - 1e-12)
    }

    /// Fraction of the requested rate actually delivered (1.0 when nothing
    /// was requested).
    pub fn delivered_fraction(&self) -> f64 {
        if self.requested_hz <= 0.0 {
            1.0
        } else {
            (self.achieved_hz / self.requested_hz).min(1.0)
        }
    }
}

/// How often transient faults arrive during a campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InjectionSchedule {
    /// No injection.
    Off,
    /// Each threadblock independently suffers one fault with this
    /// probability per kernel launch (the paper's per-threadblock model).
    PerBlock { probability: f64 },
    /// A Poisson arrival rate in errors per second of (estimated) kernel
    /// time — the paper evaluates "tens of errors injected per second".
    Rate { errors_per_second: f64 },
}

impl InjectionSchedule {
    /// The per-block probability for a kernel expected to run `kernel_s`
    /// seconds with `blocks` threadblocks.
    pub fn per_block_probability(&self, kernel_s: f64, blocks: usize) -> f64 {
        self.requested_per_block_probability(kernel_s, blocks)
            .clamp(0.0, 1.0)
    }

    /// The per-block probability *before* the `[0, 1]` clamp — may exceed
    /// 1.0 when a rate schedule asks for more errors than one Bernoulli
    /// trial per block can deliver. Compare with
    /// [`per_block_probability`](Self::per_block_probability) (or use
    /// [`realization`](Self::realization)) to detect saturation.
    pub fn requested_per_block_probability(&self, kernel_s: f64, blocks: usize) -> f64 {
        match *self {
            InjectionSchedule::Off => 0.0,
            InjectionSchedule::PerBlock { probability } => probability.max(0.0),
            InjectionSchedule::Rate { errors_per_second } => {
                if blocks == 0 {
                    0.0
                } else {
                    (errors_per_second * kernel_s / blocks as f64).max(0.0)
                }
            }
        }
    }

    /// Requested vs. achievable rate at this launch shape. The achieved
    /// rate re-expresses the clamped per-block probability in errors/second,
    /// so `achieved_hz < requested_hz` exactly when the clamp truncated.
    pub fn realization(&self, kernel_s: f64, blocks: usize) -> RateRealization {
        if kernel_s <= 0.0 {
            return RateRealization::zero();
        }
        let to_hz = blocks as f64 / kernel_s;
        RateRealization {
            requested_hz: self.requested_per_block_probability(kernel_s, blocks) * to_hz,
            achieved_hz: self.per_block_probability(kernel_s, blocks) * to_hz,
        }
    }

    /// The injection rate in errors/second this schedule corresponds to
    /// (used by the timing model).
    pub fn rate_hz(&self, kernel_s: f64, blocks: usize) -> f64 {
        match *self {
            InjectionSchedule::Off => 0.0,
            InjectionSchedule::Rate { errors_per_second } => errors_per_second,
            InjectionSchedule::PerBlock { probability } => {
                if kernel_s > 0.0 {
                    probability * blocks as f64 / kernel_s
                } else {
                    0.0
                }
            }
        }
    }

    /// True when this schedule injects anything.
    pub fn is_active(&self) -> bool {
        !matches!(self, InjectionSchedule::Off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_injects_nothing() {
        let s = InjectionSchedule::Off;
        assert_eq!(s.per_block_probability(1.0, 100), 0.0);
        assert!(!s.is_active());
    }

    #[test]
    fn rate_to_probability() {
        // 50 errors/s over a 10 ms kernel with 100 blocks -> 0.5 expected
        // errors -> 0.005 per block.
        let s = InjectionSchedule::Rate {
            errors_per_second: 50.0,
        };
        let p = s.per_block_probability(0.01, 100);
        assert!((p - 0.005).abs() < 1e-12);
    }

    #[test]
    fn probability_clamped() {
        let s = InjectionSchedule::Rate {
            errors_per_second: 1e12,
        };
        assert_eq!(s.per_block_probability(1.0, 1), 1.0);
        let s2 = InjectionSchedule::PerBlock { probability: 7.0 };
        assert_eq!(s2.per_block_probability(1.0, 1), 1.0);
    }

    #[test]
    fn roundtrip_rate() {
        let s = InjectionSchedule::PerBlock { probability: 0.01 };
        let hz = s.rate_hz(0.1, 1000);
        assert!((hz - 100.0).abs() < 1e-9);
    }

    #[test]
    fn realization_reports_saturation() {
        // 100 blocks over 1 s can absorb at most 100 errors/s; asking for
        // 250 saturates the per-block clamp at 1.0.
        let s = InjectionSchedule::Rate {
            errors_per_second: 250.0,
        };
        let r = s.realization(1.0, 100);
        assert!((r.requested_hz - 250.0).abs() < 1e-9);
        assert!((r.achieved_hz - 100.0).abs() < 1e-9);
        assert!(r.saturated());
        assert!((r.delivered_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn realization_exact_below_clamp() {
        let s = InjectionSchedule::Rate {
            errors_per_second: 50.0,
        };
        let r = s.realization(0.01, 100);
        assert!((r.requested_hz - 50.0).abs() < 1e-9);
        assert!((r.achieved_hz - 50.0).abs() < 1e-9);
        assert!(!r.saturated());
        assert_eq!(r.delivered_fraction(), 1.0);
    }

    #[test]
    fn realization_of_off_is_zero() {
        let r = InjectionSchedule::Off.realization(1.0, 64);
        assert_eq!(r.requested_hz, 0.0);
        assert_eq!(r.achieved_hz, 0.0);
        assert!(!r.saturated());
        assert_eq!(r.delivered_fraction(), 1.0);
    }
}

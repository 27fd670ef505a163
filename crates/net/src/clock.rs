//! Discrete virtual time: the engine's clock and per-channel latency models.
//!
//! The paper's model is purely asynchronous — the adversary picks delivery
//! order and "time" does not exist. This module bolts a *virtual* notion of
//! time onto that model without disturbing it: every delivery carries an
//! arrival timestamp drawn from a seeded per-channel [`LatencyModel`], the
//! engine's [`VirtualClock`] advances to the arrival time of whatever the
//! scheduler delivers. The clock only ever moves at a delivery: the model is
//! message-driven, and nothing else happens at a point in virtual time.
//!
//! The degenerate [`LatencyModel::Zero`] model keeps every timestamp at 0,
//! which reproduces the untimed engine bit-for-bit: same picks, same events,
//! same snapshots, same fingerprints. Time is therefore strictly opt-in.
//!
//! Everything here is deterministic. Latency samples come from the
//! workspace's seeded xoshiro256++ generator with one independent stream per
//! channel, so a run is a pure function of `(topology, protocol, scheduler
//! seed, latency plan)` — record/replay and snapshot/restore keep working
//! with time switched on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::str::FromStr;

/// A monotone discrete clock counting abstract virtual ticks.
///
/// The engine owns one; schedulers that need a notion of "now" (e.g.
/// [`crate::sched::BoundedDelayScheduler`]) own their own private instance.
/// Ticks are dimensionless — a latency model decides what one tick means.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtualClock {
    now: u64,
}

impl VirtualClock {
    /// A clock at time 0.
    #[must_use]
    pub fn new() -> VirtualClock {
        VirtualClock::default()
    }

    /// The current virtual time.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advances to `t` if `t` is in the future; never moves backwards.
    pub fn advance_to(&mut self, t: u64) {
        if t > self.now {
            self.now = t;
        }
    }

    /// Advances by exactly one tick and returns the new time.
    pub fn tick(&mut self) -> u64 {
        self.now += 1;
        self.now
    }
}

/// A per-channel message latency distribution, in virtual ticks.
///
/// Parsed from / rendered to the CLI syntax `zero`, `fixed:K`, or
/// `uniform:MIN..MAX` (inclusive bounds).
///
/// ```rust
/// use co_net::clock::LatencyModel;
///
/// let m: LatencyModel = "uniform:1..8".parse().unwrap();
/// assert_eq!(m, LatencyModel::Uniform { min: 1, max: 8 });
/// assert_eq!(m.to_string(), "uniform:1..8");
/// assert!(LatencyModel::Zero.is_zero());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LatencyModel {
    /// Every message takes 0 ticks — the untimed engine, bit-for-bit.
    #[default]
    Zero,
    /// Every message takes exactly this many ticks.
    Fixed(u64),
    /// Each message takes an independent uniform draw in `[min, max]`.
    Uniform {
        /// Smallest possible latency (inclusive).
        min: u64,
        /// Largest possible latency (inclusive).
        max: u64,
    },
}

impl LatencyModel {
    /// Whether this model never delays a message.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        match *self {
            LatencyModel::Zero => true,
            LatencyModel::Fixed(k) => k == 0,
            LatencyModel::Uniform { min, max } => min == 0 && max == 0,
        }
    }

    /// Draws one latency sample. [`LatencyModel::Zero`] and degenerate
    /// models never touch `rng`, so switching a channel to `zero` does not
    /// perturb the sample streams of other channels.
    #[must_use]
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        match *self {
            LatencyModel::Zero => 0,
            LatencyModel::Fixed(k) => k,
            LatencyModel::Uniform { min, max } => {
                assert!(min <= max, "uniform latency range is empty");
                if min == max {
                    min
                } else {
                    rng.gen_range(min..=max)
                }
            }
        }
    }
}

impl fmt::Display for LatencyModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            LatencyModel::Zero => f.write_str("zero"),
            LatencyModel::Fixed(k) => write!(f, "fixed:{k}"),
            LatencyModel::Uniform { min, max } => write!(f, "uniform:{min}..{max}"),
        }
    }
}

/// Error from parsing a [`LatencyModel`] out of its CLI syntax.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseLatencyError(String);

impl fmt::Display for ParseLatencyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid latency model `{}`; expected `zero`, `fixed:K`, or `uniform:MIN..MAX`",
            self.0
        )
    }
}

impl std::error::Error for ParseLatencyError {}

impl FromStr for LatencyModel {
    type Err = ParseLatencyError;

    fn from_str(s: &str) -> Result<LatencyModel, ParseLatencyError> {
        let err = || ParseLatencyError(s.to_string());
        if s == "zero" {
            return Ok(LatencyModel::Zero);
        }
        if let Some(rest) = s.strip_prefix("fixed:") {
            return rest
                .parse::<u64>()
                .map(LatencyModel::Fixed)
                .map_err(|_| err());
        }
        if let Some(rest) = s.strip_prefix("uniform:") {
            let (lo, hi) = rest.split_once("..").ok_or_else(err)?;
            let min = lo.parse::<u64>().map_err(|_| err())?;
            let max = hi.parse::<u64>().map_err(|_| err())?;
            if min > max {
                return Err(err());
            }
            return Ok(LatencyModel::Uniform { min, max });
        }
        Err(err())
    }
}

/// A complete, seeded latency assignment for a topology's channels.
///
/// A plan is a default model plus per-channel overrides and a seed. Each
/// channel draws from its own independent generator derived from the seed,
/// so latency samples on one channel do not depend on how often other
/// channels are used — delivery-order changes never leak across streams.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyPlan {
    default: LatencyModel,
    seed: u64,
    /// Sorted by channel id; at most one entry per channel.
    overrides: Vec<(usize, LatencyModel)>,
}

impl LatencyPlan {
    /// A plan applying `default` to every channel, seeded with `seed`.
    #[must_use]
    pub fn new(default: LatencyModel, seed: u64) -> LatencyPlan {
        LatencyPlan {
            default,
            seed,
            overrides: Vec::new(),
        }
    }

    /// The all-zero plan: virtual time stays switched off.
    #[must_use]
    pub fn zero() -> LatencyPlan {
        LatencyPlan::new(LatencyModel::Zero, 0)
    }

    /// Overrides the model of one channel (builder style).
    #[must_use]
    pub fn with_channel(mut self, channel: usize, model: LatencyModel) -> LatencyPlan {
        match self.overrides.binary_search_by_key(&channel, |&(c, _)| c) {
            Ok(i) => self.overrides[i].1 = model,
            Err(i) => self.overrides.insert(i, (channel, model)),
        }
        self
    }

    /// The model governing `channel`.
    #[must_use]
    pub fn model_for(&self, channel: usize) -> LatencyModel {
        match self.overrides.binary_search_by_key(&channel, |&(c, _)| c) {
            Ok(i) => self.overrides[i].1,
            Err(_) => self.default,
        }
    }

    /// The plan's base seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether every channel's model is (degenerate) zero — such a plan
    /// leaves the engine on its untimed fast path.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.default.is_zero() && self.overrides.iter().all(|(_, m)| m.is_zero())
    }

    /// The independent sample stream of one channel: seed and channel id are
    /// mixed through splitmix64-style constants so neighbouring channels get
    /// uncorrelated streams even for small seeds.
    #[must_use]
    pub fn channel_rng(&self, channel: usize) -> StdRng {
        let mixed = self
            .seed
            .wrapping_add((channel as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .rotate_left(17)
            ^ 0xD1B5_4A32_D192_ED03;
        StdRng::seed_from_u64(mixed)
    }
}

impl Default for LatencyPlan {
    fn default() -> LatencyPlan {
        LatencyPlan::zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone_under_advance() {
        let mut c = VirtualClock::new();
        assert_eq!(c.now(), 0);
        c.advance_to(5);
        assert_eq!(c.now(), 5);
        c.advance_to(3);
        assert_eq!(c.now(), 5, "advance_to never moves backwards");
        assert_eq!(c.tick(), 6);
    }

    #[test]
    fn model_parse_roundtrip() {
        for text in ["zero", "fixed:0", "fixed:7", "uniform:0..0", "uniform:1..8"] {
            let m: LatencyModel = text.parse().unwrap();
            assert_eq!(m.to_string(), text);
        }
        assert!("bogus".parse::<LatencyModel>().is_err());
        assert!("fixed:".parse::<LatencyModel>().is_err());
        assert!("uniform:5..1".parse::<LatencyModel>().is_err());
        assert!("uniform:3".parse::<LatencyModel>().is_err());
    }

    #[test]
    fn degenerate_models_are_zero() {
        assert!(LatencyModel::Zero.is_zero());
        assert!(LatencyModel::Fixed(0).is_zero());
        assert!(LatencyModel::Uniform { min: 0, max: 0 }.is_zero());
        assert!(!LatencyModel::Fixed(1).is_zero());
        assert!(!LatencyModel::Uniform { min: 0, max: 1 }.is_zero());
    }

    #[test]
    fn samples_respect_bounds_and_determinism() {
        let model = LatencyModel::Uniform { min: 2, max: 9 };
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let x = model.sample(&mut a);
            assert!((2..=9).contains(&x));
            assert_eq!(x, model.sample(&mut b));
        }
        // Degenerate models never consume randomness.
        let before = a.to_state();
        assert_eq!(LatencyModel::Zero.sample(&mut a), 0);
        assert_eq!(LatencyModel::Fixed(4).sample(&mut a), 4);
        assert_eq!(LatencyModel::Uniform { min: 3, max: 3 }.sample(&mut a), 3);
        assert_eq!(a.to_state(), before);
    }

    #[test]
    fn plan_overrides_and_zero_detection() {
        let plan = LatencyPlan::new(LatencyModel::Fixed(2), 7)
            .with_channel(3, LatencyModel::Zero)
            .with_channel(1, LatencyModel::Uniform { min: 1, max: 4 });
        assert_eq!(plan.model_for(0), LatencyModel::Fixed(2));
        assert_eq!(plan.model_for(1), LatencyModel::Uniform { min: 1, max: 4 });
        assert_eq!(plan.model_for(3), LatencyModel::Zero);
        assert!(!plan.is_zero());
        assert!(LatencyPlan::zero().is_zero());
        assert!(LatencyPlan::new(LatencyModel::Fixed(0), 9)
            .with_channel(0, LatencyModel::Uniform { min: 0, max: 0 })
            .is_zero());
        // Re-overriding a channel replaces, not duplicates.
        let plan = plan.with_channel(3, LatencyModel::Fixed(5));
        assert_eq!(plan.model_for(3), LatencyModel::Fixed(5));
    }

    #[test]
    fn channel_rngs_are_independent_and_stable() {
        let plan = LatencyPlan::new(LatencyModel::Uniform { min: 0, max: 100 }, 42);
        let s0: Vec<u64> = {
            let mut r = plan.channel_rng(0);
            (0..8).map(|_| rand::RngCore::next_u64(&mut r)).collect()
        };
        let s1: Vec<u64> = {
            let mut r = plan.channel_rng(1);
            (0..8).map(|_| rand::RngCore::next_u64(&mut r)).collect()
        };
        assert_ne!(s0, s1, "per-channel streams diverge");
        let again: Vec<u64> = {
            let mut r = plan.channel_rng(0);
            (0..8).map(|_| rand::RngCore::next_u64(&mut r)).collect()
        };
        assert_eq!(s0, again, "streams are reproducible");
    }
}

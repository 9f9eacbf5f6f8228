//! Run composition that does not depend on speed.
//!
//! A run is a whole number of rounds over a fixed design set, so every
//! design is placed equally often whatever the clock says, and quality
//! is averaged over the design set with each design counted once.
//! Averaging over however many jobs a time-bounded run happened to finish
//! would let the design mix — and so the mean objective — move with host
//! speed.

use std::time::{Duration, Instant};

/// Untraced runs set up at least this many times...
pub const MIN_SETUPS: usize = 3;
/// ...and until their set-ups add up to this many seconds.
pub const SETUP_FLOOR_S: f64 = 4.0;

/// Runs `set_up(k)` at least [`MIN_SETUPS`] times and until the set-ups
/// add up to [`SETUP_FLOOR_S`], returning each one's seconds. `setup_s`
/// is their median, so a short set-up is sampled more often and a slow
/// second of the host moves it less. Every set-up does the same work, so
/// host speed changes only how many samples the median has.
///
/// # Errors
///
/// Stops at the first failed set-up.
pub fn repeat_setups(
    mut set_up: impl FnMut(usize) -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let mut times = Vec::new();
    while times.len() < MIN_SETUPS || times.iter().sum::<f64>() < SETUP_FLOOR_S {
        times.push(set_up(times.len())?);
    }
    Ok(times)
}

/// Runs whole rounds — `job(d)` for every design `d` in order, starting at
/// `offset` — until `budget` has elapsed at a round boundary; at least one
/// round always runs. Returns the number of rounds.
pub fn run_rounds(
    designs: usize,
    offset: usize,
    budget: Duration,
    mut job: impl FnMut(usize),
) -> usize {
    let start = Instant::now();
    let mut rounds = 0;
    loop {
        for k in 0..designs {
            job((offset + k) % designs);
        }
        rounds += 1;
        if start.elapsed() >= budget {
            return rounds;
        }
    }
}

/// Quality of one placement, as reported by the system under test.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Quality {
    /// Bit-exact digest of the placement.
    pub digest: u64,
    /// Eq. 3 objective.
    pub objective: f64,
    /// Half-perimeter wirelength, meters.
    pub hpwl: f64,
    /// Interlayer via count.
    pub ilv: f64,
    /// Peak temperature rise, °C.
    pub t_max: f64,
}

/// Relative tolerance for temperatures: the CG solve's reduction order
/// follows the thread count, so `t_max` agrees only to solver round-off.
pub const T_MAX_REL_TOL: f64 = 1e-6;

impl Quality {
    /// Whether `other` is the same placement with the same metrics:
    /// digest, objective, wirelength and vias bit for bit, peak
    /// temperature to [`T_MAX_REL_TOL`].
    pub fn matches(&self, other: &Quality) -> bool {
        self.digest == other.digest
            && self.objective.to_bits() == other.objective.to_bits()
            && self.hpwl.to_bits() == other.hpwl.to_bits()
            && self.ilv.to_bits() == other.ilv.to_bits()
            && (self.t_max - other.t_max).abs() <= T_MAX_REL_TOL * self.t_max.abs()
    }
}

/// Per-design quality record: the first placement of each design is kept,
/// and every later one must match it.
#[derive(Clone, Debug)]
pub struct Ledger {
    designs: Vec<Option<Quality>>,
}

impl Ledger {
    /// An empty ledger for `designs` designs.
    pub fn new(designs: usize) -> Self {
        Self {
            designs: vec![None; designs],
        }
    }

    /// Records one placement of `design`.
    ///
    /// # Errors
    ///
    /// Describes the mismatch when the design was placed before with a
    /// different result.
    pub fn record(&mut self, design: usize, quality: Quality) -> Result<(), String> {
        match &self.designs[design] {
            None => {
                self.designs[design] = Some(quality);
                Ok(())
            }
            Some(first) if first.matches(&quality) => Ok(()),
            Some(first) => Err(format!(
                "design {design} is not reproducible: {first:?} then {quality:?}"
            )),
        }
    }

    /// Means over the design set, each design counted once, with the XOR
    /// of the designs' digests as the set's digest; `None` until every
    /// design has been placed.
    pub fn mean(&self) -> Option<Quality> {
        let all: Vec<&Quality> = self.designs.iter().flatten().collect();
        if all.len() != self.designs.len() || all.is_empty() {
            return None;
        }
        let n = all.len() as f64;
        let avg = |f: fn(&Quality) -> f64| all.iter().map(|q| f(q)).sum::<f64>() / n;
        Some(Quality {
            digest: all.iter().fold(0, |acc, q| acc ^ q.digest),
            objective: avg(|q| q.objective),
            hpwl: avg(|q| q.hpwl),
            ilv: avg(|q| q.ilv),
            t_max: avg(|q| q.t_max),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(digest: u64, objective: f64) -> Quality {
        Quality {
            digest,
            objective,
            hpwl: objective,
            ilv: 10.0,
            t_max: 30.0,
        }
    }

    #[test]
    fn rounds_are_whole_even_when_the_clock_runs_out_mid_round() {
        let mut placed = vec![0usize; 4];
        let mut order = Vec::new();
        let rounds = run_rounds(4, 2, Duration::from_millis(30), |d| {
            std::thread::sleep(Duration::from_millis(4));
            placed[d] += 1;
            order.push(d);
        });
        assert!(
            rounds >= 2,
            "30 ms at 16 ms per round is at least two rounds"
        );
        assert!(placed.iter().all(|&n| n == rounds), "{placed:?}");
        assert_eq!(&order[..4], &[2, 3, 0, 1], "rounds start at the offset");
    }

    #[test]
    fn at_least_one_round_runs_on_a_zero_budget() {
        let mut jobs = 0;
        assert_eq!(run_rounds(3, 0, Duration::ZERO, |_| jobs += 1), 1);
        assert_eq!(jobs, 3);
    }

    #[test]
    fn short_set_ups_repeat_until_the_floor() {
        let count = |secs: f64| repeat_setups(|_| Ok(secs)).unwrap().len();
        assert_eq!(count(4.0), MIN_SETUPS, "long set-ups stop at the minimum");
        assert_eq!(count(0.7), 6, "0.7 s set-ups need six to pass 4 s");
        let mut calls = Vec::new();
        let failed = repeat_setups(|k| {
            calls.push(k);
            if k == 1 {
                Err("daemon never became healthy".to_string())
            } else {
                Ok(1.0)
            }
        });
        assert!(failed.is_err());
        assert_eq!(calls, [0, 1], "no set-up runs after a failure");
    }

    #[test]
    fn quality_mean_counts_each_design_once() {
        let mut ledger = Ledger::new(2);
        ledger.record(0, q(1, 1.0)).unwrap();
        assert_eq!(ledger.mean(), None, "design 1 not placed yet");
        // Design 0 repeats many times, design 1 once: the mean must not
        // lean towards design 0.
        for _ in 0..5 {
            ledger.record(0, q(1, 1.0)).unwrap();
        }
        ledger.record(1, q(2, 3.0)).unwrap();
        assert_eq!(ledger.mean().unwrap().objective, 2.0);
    }

    #[test]
    fn a_changed_repeat_is_an_error() {
        let mut ledger = Ledger::new(1);
        ledger.record(0, q(1, 1.0)).unwrap();
        assert!(ledger.record(0, q(9, 1.0)).is_err(), "digest changed");
        assert!(
            ledger.record(0, q(1, 1.0 + 1e-12)).is_err(),
            "objective bits"
        );
        let mut warm = q(1, 1.0);
        warm.t_max *= 1.0 + 1e-9;
        assert!(ledger.record(0, warm).is_ok(), "temperature round-off");
        warm.t_max *= 1.0 + 1e-5;
        assert!(ledger.record(0, warm).is_err(), "temperature beyond 1e-6");
    }
}

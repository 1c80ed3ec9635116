//! Fault-injected machines: a seeded flake schedule over a real [`Machine`].
//!
//! Real testbeds are not reliable: boards drop off the network mid-run,
//! harnesses crash, and a wedged kernel occasionally reports garbage. The
//! paper's campaigns cope by re-running (Sec 8.1's experiments are the
//! union of many partially-failed sessions). [`FlakyMachine`] reproduces
//! that failure mode deterministically so the campaign driver's bounded
//! retry-with-reseed path can be exercised in tests: a wrapped machine
//! fails or misreports on a schedule derived purely from
//! `(fault_seed, test name, attempt)` — never from hit order or thread
//! identity — so a flaky campaign's outcome is identical whatever the
//! worker count.

use crate::silicon::Machine;

/// What a flaky attempt does instead of running honestly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flake {
    /// The harness crashes before producing any observations (board hang,
    /// lost connection): the attempt yields nothing and must be retried.
    Abort,
    /// The harness completes but reports garbage — only the modal state
    /// survives, rare outcomes are silently dropped. A misreported
    /// attempt must be discarded and retried like an abort.
    Misreport,
}

/// A [`Machine`] wrapped with a deterministic flake schedule.
///
/// Which tests flake, on which attempts, and how, is a pure function of
/// `(fault_seed, test name, attempt)`. Selected tests fail their first
/// `failures` attempts and then run honestly, so a retry budget of
/// `failures + 1` attempts always recovers every test — the property the
/// bounded-retry tests pin.
pub struct FlakyMachine<'m> {
    inner: &'m Machine,
    fault_seed: u64,
    /// One in this many tests is flaky (by name hash); `0` disables.
    flaky_one_in: u64,
    /// How many consecutive attempts fail on a selected test.
    failures: u32,
}

impl<'m> FlakyMachine<'m> {
    /// Wraps `inner` with the default schedule: one test in three flakes,
    /// failing its first two attempts.
    pub fn new(inner: &'m Machine, fault_seed: u64) -> Self {
        FlakyMachine { inner, fault_seed, flaky_one_in: 3, failures: 2 }
    }

    /// Overrides the schedule: one test in `flaky_one_in` flakes
    /// (`0` = never), failing its first `failures` attempts.
    pub fn with_schedule(mut self, flaky_one_in: u64, failures: u32) -> Self {
        self.flaky_one_in = flaky_one_in;
        self.failures = failures;
        self
    }

    /// The wrapped machine.
    pub fn machine(&self) -> &'m Machine {
        self.inner
    }

    /// Smallest retry budget that recovers every test on this schedule.
    pub fn attempts_to_recover(&self) -> u32 {
        self.failures + 1
    }

    /// FNV-1a over the seed and the test name: stable, order-free.
    fn mix(&self, test_name: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.fault_seed;
        for b in test_name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Final avalanche so the low bits used for selection are well
        // mixed even for short names.
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^ (h >> 33)
    }

    /// Does attempt `attempt` of `test_name` flake, and how?
    ///
    /// Deterministic in `(fault_seed, test name, attempt)` only.
    pub fn flake(&self, test_name: &str, attempt: u32) -> Option<Flake> {
        if self.flaky_one_in == 0 || attempt >= self.failures {
            return None;
        }
        let h = self.mix(test_name);
        if !h.is_multiple_of(self.flaky_one_in) {
            return None;
        }
        // The flake kind alternates per attempt so both recovery paths
        // (nothing observed, garbage observed) get exercised.
        Some(if (h >> 32).wrapping_add(u64::from(attempt)) & 1 == 0 {
            Flake::Abort
        } else {
            Flake::Misreport
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::silicon::arm_machines;

    #[test]
    fn schedule_is_deterministic_and_recovers() {
        let machines = arm_machines();
        let flaky = FlakyMachine::new(&machines[0], 42);
        let names = ["mp", "sb", "iriw", "wrc", "lb", "2+2w", "r", "s"];
        let mut saw_flake = false;
        for name in names {
            for attempt in 0..flaky.attempts_to_recover() + 2 {
                let a = flaky.flake(name, attempt);
                let b = flaky.flake(name, attempt);
                assert_eq!(a, b, "schedule is a pure function");
                if a.is_some() {
                    saw_flake = true;
                }
            }
            // Past the failure budget every test runs honestly.
            assert_eq!(flaky.flake(name, flaky.attempts_to_recover()), None);
        }
        assert!(saw_flake, "the default schedule selects some tests");
    }

    #[test]
    fn disabled_schedule_never_flakes() {
        let machines = arm_machines();
        let flaky = FlakyMachine::new(&machines[0], 7).with_schedule(0, 3);
        for name in ["mp", "sb", "iriw"] {
            for attempt in 0..4 {
                assert_eq!(flaky.flake(name, attempt), None);
            }
        }
    }

    #[test]
    fn seeds_select_different_tests() {
        let machines = arm_machines();
        let names =
            ["mp", "sb", "iriw", "wrc", "lb", "2+2w", "r", "s", "isa2", "rwc", "w+rr", "3.2w"];
        let pick = |seed: u64| -> Vec<&str> {
            let f = FlakyMachine::new(&machines[0], seed);
            names.iter().copied().filter(|n| f.flake(n, 0).is_some()).collect()
        };
        let some_differ = (1..20u64).any(|s| pick(s) != pick(0));
        assert!(some_differ, "the seed drives test selection");
    }
}

//! The benchmark's own generator: a SplitMix64 stream, the sub-seeds every
//! input is derived from, and the model/case sequence the clients replay.
//! Everything is a pure function of `--seed`; the program sees only what is
//! generated from it.

/// SplitMix64 (Steele, Lea & Flood): one 64-bit state, full period.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias over 64 bits is below 2⁻⁵⁰ here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Sub-seed for one named purpose, so adding a purpose never shifts the
/// values another one draws.
pub fn sub_seed(seed: u64, purpose: &str, index: u64) -> u64 {
    let mut h = Rng::new(seed);
    let mut acc = h.next_u64();
    for byte in purpose.bytes() {
        acc = Rng::new(acc ^ u64::from(byte)).next_u64();
    }
    Rng::new(acc ^ index).next_u64()
}

/// One request of the replayed sequence: which model, which of its cases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pick {
    pub model: usize,
    pub case: usize,
}

/// The uniform model × case mix one client replays. Each client (`stream`)
/// has its own sequence; the sequence never ends.
#[derive(Clone, Debug)]
pub struct Schedule {
    rng: Rng,
    models: usize,
    cases: usize,
}

impl Schedule {
    pub fn new(seed: u64, stream: u64, models: usize, cases: usize) -> Self {
        assert!(models > 0 && cases > 0, "a schedule needs models and cases");
        Self {
            rng: Rng::new(sub_seed(seed, "schedule", stream)),
            models,
            cases,
        }
    }
}

impl Iterator for Schedule {
    type Item = Pick;

    fn next(&mut self) -> Option<Pick> {
        let model = self.rng.below(self.models);
        let case = self.rng.below(self.cases);
        Some(Pick { model, case })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a: Vec<Pick> = Schedule::new(7, 0, 3, 4).take(500).collect();
        let b: Vec<Pick> = Schedule::new(7, 0, 3, 4).take(500).collect();
        assert_eq!(a, b);
        let other_seed: Vec<Pick> = Schedule::new(8, 0, 3, 4).take(500).collect();
        let other_stream: Vec<Pick> = Schedule::new(7, 1, 3, 4).take(500).collect();
        assert_ne!(a, other_seed);
        assert_ne!(a, other_stream);
        assert!(a.iter().all(|p| p.model < 3 && p.case < 4));
        // Uniform mix: every model × case pair shows up.
        for model in 0..3 {
            for case in 0..4 {
                assert!(a.contains(&Pick { model, case }));
            }
        }
    }

    #[test]
    fn sub_seeds_differ_by_purpose_and_index() {
        assert_eq!(sub_seed(1, "weights", 0), sub_seed(1, "weights", 0));
        assert_ne!(sub_seed(1, "weights", 0), sub_seed(1, "weights", 1));
        assert_ne!(sub_seed(1, "weights", 0), sub_seed(1, "inputs", 0));
        assert_ne!(sub_seed(1, "weights", 0), sub_seed(2, "weights", 0));
    }
}

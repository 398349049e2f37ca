//! Seeded workload generator.
//!
//! One `--seed` derives every random input of a workload: the world seed
//! (dataset, split, shards, DH keys), the public permutation seed
//! (groupings, cohort plans, sampling seeds) and, on `churn_durable`, the
//! dropout schedule. The protocol under test receives only the generated
//! [`FlConfig`]; the shapes below are fixed per workload.

use fedchain::config::{FlConfig, SvMethod};
use fl_ml::dataset::SyntheticDigits;

/// Every workload name, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["paper_train", "paper_sv", "cohort_scale", "churn_durable"];

/// One generated workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name (one of [`NAMES`]).
    pub name: &'static str,
    /// The only input the protocol receives.
    pub config: FlConfig,
    /// Persist the chain through a WAL while the rounds run.
    pub durable: bool,
}

impl Workload {
    /// Blocks a correct run commits: the setup block, one block per
    /// cohort per round, and one recovery block per churned round.
    pub fn expected_blocks(&self) -> u64 {
        let c = &self.config;
        let churned = (0..c.rounds)
            .filter(|&r| !c.dropped_in_round(r).is_empty())
            .count() as u64;
        1 + c.rounds * c.num_cohorts as u64 + churned
    }
}

/// splitmix64: the seed-derivation step (`seed`, `stream`) → value.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Builds workload `name` from `seed`; `None` for an unknown name.
pub fn generate(name: &str, seed: u64) -> Option<Workload> {
    let (name, mut config, durable) = match name {
        "paper_train" => {
            let mut c = FlConfig::paper_setting();
            c.num_groups = 3;
            c.rounds = 10;
            ("paper_train", c, false)
        }
        "paper_sv" => {
            let mut c = FlConfig::paper_setting();
            c.num_groups = 8;
            c.rounds = 4;
            ("paper_sv", c, false)
        }
        "cohort_scale" => {
            let mut c = FlConfig::paper_setting();
            c.num_owners = 512;
            c.num_cohorts = 16;
            c.num_groups = 4;
            c.sv_method = SvMethod::Stratified {
                samples_per_stratum: 2,
            };
            c.miner_committee = 4;
            c.data = SyntheticDigits {
                instances: 1024,
                features: 16,
                classes: 4,
                ..SyntheticDigits::default()
            };
            c.train.epochs = 6;
            c.rounds = 3;
            ("cohort_scale", c, false)
        }
        "churn_durable" => {
            let mut c = FlConfig::paper_setting();
            c.num_owners = 24;
            c.num_groups = 6;
            c.miner_committee = 4;
            c.data = SyntheticDigits::small();
            c.rounds = 20;
            ("churn_durable", c, true)
        }
        _ => return None,
    };
    config.world_seed = mix(seed, 1);
    config.permutation_seed = mix(seed, 2);
    if durable {
        // Two distinct seed-chosen owners drop on every odd round.
        let n = config.num_owners as u64;
        config.dropout_schedule = (1..config.rounds)
            .step_by(2)
            .map(|round| {
                let a = mix(seed, 100 + 2 * round) % n;
                let b = (a + 1 + mix(seed, 101 + 2 * round) % (n - 1)) % n;
                (round, vec![a as usize, b as usize])
            })
            .collect();
    }
    Some(Workload {
        name,
        config,
        durable,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_validates_and_is_seed_deterministic() {
        for name in NAMES {
            for seed in 0..8 {
                let w = generate(name, seed).unwrap();
                w.config.validate().unwrap();
                let again = generate(name, seed).unwrap();
                assert_eq!(w.config.world_seed, again.config.world_seed);
                assert_eq!(w.config.dropout_schedule, again.config.dropout_schedule);
            }
        }
        assert!(generate("nope", 0).is_none());
    }

    #[test]
    fn block_counts_match_the_workload_shapes() {
        assert_eq!(generate("paper_train", 1).unwrap().expected_blocks(), 11);
        assert_eq!(generate("paper_sv", 1).unwrap().expected_blocks(), 5);
        assert_eq!(generate("cohort_scale", 1).unwrap().expected_blocks(), 49);
        let churn = generate("churn_durable", 1).unwrap();
        assert_eq!(churn.expected_blocks(), 31);
        assert!(churn.config.dropped_in_round(0).is_empty());
        for (_, dropped) in &churn.config.dropout_schedule {
            assert_eq!(dropped.len(), 2);
            assert_ne!(dropped[0], dropped[1]);
        }
    }
}

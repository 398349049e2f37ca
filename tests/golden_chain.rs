//! Golden chain vectors: committed outputs of fixed small runs.
//!
//! Every other equivalence test compares one mode against another
//! (pipelined vs sequential, sharded vs flat), so a change that moves
//! both sides at once passes them. These vectors pin the absolute
//! outputs instead — miner 0's tip digest, every owner's Shapley value
//! as `f64::to_bits`, and the per-round test accuracy as bits. A change
//! to any constant here is a change to consensus-visible behaviour and
//! must be deliberate.
//!
//! To regenerate after a deliberate change, run this test: a mismatch
//! message prints the observed vector in the same Rust syntax as the
//! constants below.

use fedchain::config::{FlConfig, SvMethod};
use fedchain::protocol::FlProtocol;

/// The pinned outputs of one run.
struct Golden {
    tip: &'static str,
    sv_bits: &'static [u64],
    accuracy_bits: &'static [u64],
}

/// Runs `config` to completion and compares its outputs with `golden`.
fn check(name: &str, config: FlConfig, golden: &Golden) {
    let mut protocol = FlProtocol::new(config).expect("valid config");
    let report = protocol.run().expect("honest run");
    assert_eq!(report.failed_views, 0, "{name}: failed views");
    let tip = protocol
        .engine()
        .store_of(0)
        .expect("miner 0 always mines")
        .tip_digest()
        .to_hex();
    let sv_bits: Vec<u64> = report.per_owner_sv.iter().map(|v| v.to_bits()).collect();
    let accuracy_bits: Vec<u64> = report
        .accuracy_history
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let observed = format!(
        "tip: \"{tip}\",\nsv_bits: &[{}],\naccuracy_bits: &[{}],",
        hex_list(&sv_bits),
        hex_list(&accuracy_bits)
    );
    assert!(
        tip == golden.tip && sv_bits == golden.sv_bits && accuracy_bits == golden.accuracy_bits,
        "{name}: outputs differ from the golden vector; observed:\n{observed}"
    );
}

/// `quick_demo` on a noisier world: wider classes and per-owner quality
/// noise keep test accuracy well below 1, so the accuracy trace and the
/// Shapley values depend on many near-boundary predictions.
fn demo() -> FlConfig {
    let mut config = FlConfig::quick_demo();
    config.data.within_class_std = 6.0;
    config.sigma = 1.0;
    config.rounds = 2;
    config
}

fn hex_list(bits: &[u64]) -> String {
    bits.iter()
        .map(|b| format!("0x{b:016x}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Flat `quick_demo` (4 owners, m = 2, `GroupExact`) over two rounds.
#[test]
fn golden_flat_group_exact() {
    check(
        "flat_group_exact",
        demo(),
        &Golden {
            tip: "6ec15202c1b5cdca821c3717c8ad8e64ebea0efe86087fa2e60edb0725831739",
            sv_bits: &[
                0x3fd3ddddddddddde,
                0x3fd6888888888888,
                0x3fd3ddddddddddde,
                0x3fd6888888888888,
            ],
            accuracy_bits: &[0x3fe7777777777777, 0x3fe9555555555555],
        },
    );
}

/// 8 owners sharded into k = 2 cohorts, m = 2 groups per cohort,
/// `Stratified` sampling, two rounds.
#[test]
fn golden_sharded_stratified() {
    let mut config = demo();
    config.num_owners = 8;
    config.num_cohorts = 2;
    config.sv_method = SvMethod::Stratified {
        samples_per_stratum: 4,
    };
    check(
        "sharded_stratified",
        config,
        &Golden {
            tip: "e88865a278557b0cd79734ed3b89185d8e3628ae00acbc266147c646ba4d5be3",
            sv_bits: &[
                0x3fc78870f8a9c5c8,
                0x3fc2ba16fbc425fa,
                0x3fc1883fb72ea61e,
                0x3fc60ddc363318b8,
                0x3fb755847512dad8,
                0x3fc4559e26af37c0,
                0x3fc1883fb72ea61e,
                0x3fbd81bc4fd65884,
            ],
            accuracy_bits: &[0x3fe4888888888889, 0x3fe6666666666666],
        },
    );
}

/// Flat `quick_demo` where owner 1 drops after masking in round 1, so the
/// round completes through the on-chain key-escrow recovery.
#[test]
fn golden_dropout_recovery() {
    let mut config = demo();
    config.dropout_schedule = vec![(1, vec![1])];
    check(
        "dropout_recovery",
        config,
        &Golden {
            tip: "6dfc577cf1caed03f669ad731693544f03bc691c3a10f38894b0ae1a367a2178",
            sv_bits: &[
                0x3fd5ddddddddddde,
                0x3fc5dddddddddddd,
                0x3fd5ddddddddddde,
                0x3fdf333333333334,
            ],
            accuracy_bits: &[0x3fe7777777777777, 0x3fe9ddddddddddde],
        },
    );
}

/// Flat run with 6 owners in m = 3 groups, scored by permutation-sampling
/// `MonteCarlo` (cached coalition utilities), two rounds.
#[test]
fn golden_flat_monte_carlo() {
    let mut config = demo();
    config.num_owners = 6;
    config.num_groups = 3;
    config.sv_method = SvMethod::MonteCarlo { permutations: 5 };
    check(
        "flat_monte_carlo",
        config,
        &Golden {
            tip: "495ca81094a22c72d39faa161c65507ba01b2ba46781c276c894ab5d0d3da2e7",
            sv_bits: &[
                0x3fda147ae147ae15,
                0x3fd50369d0369d04,
                0x3f947ae147ae147d,
                0x3fc7ae147ae147b0,
                0x3fd0e81b4e81b4e9,
                0x3f947ae147ae147d,
            ],
            accuracy_bits: &[0x3fe4888888888889, 0x3fe9111111111111],
        },
    );
}

/// 16 owners sharded into k = 4 cohorts of m = 2 groups, `GroupExact`
/// within each cohort and over the cohorts, two rounds.
#[test]
fn golden_sharded_k4_group_exact() {
    let mut config = demo();
    config.num_owners = 16;
    config.num_cohorts = 4;
    check(
        "sharded_k4_group_exact",
        config,
        &Golden {
            tip: "30a6c612dad0dc50d6468318c45c9528135a609080f9ab89c67b485f02f16b6a",
            sv_bits: &[
                0x3faf65d1365d1366,
                0x3fb3fc6a0dff846d,
                0x3fb0f45f8aed7a42,
                0x3fb00b0e73c75c03,
                0x3fb5e1a8c536fe1a,
                0x3fa4f01ef424b335,
                0x3fb37b425ed097b4,
                0x3fb11faf7589303c,
                0x3faf19174b648b2c,
                0x3fac8d159e26af38,
                0x3fa7f941f2efc6ae,
                0x3fb278f10a5303ff,
                0x3fa87094828b870a,
                0x3face432bd6b97a2,
                0x3fa24fa4fa4fa4f9,
                0x3f94c29676d41217,
            ],
            accuracy_bits: &[0x3fde666666666666, 0x3fe5111111111111],
        },
    );
}

/// The paper's setting (9 owners, full-size synthetic digits) with
/// m = 8 groups: 256 coalitions a round under `GroupExact`. The world is
/// made as noisy as [`demo`]'s; on the clean paper world every coalition
/// scores accuracy 1 and the vector would pin little.
#[test]
fn golden_paper_setting_m8() {
    let mut config = FlConfig::paper_setting();
    config.num_groups = 8;
    config.data.within_class_std = 6.0;
    config.sigma = 1.0;
    check(
        "paper_setting_m8",
        config,
        &Golden {
            tip: "47c5c6608b38bcbda5bf0041566c2d5171f02400bc511ccbd50b8450a13881b0",
            sv_bits: &[
                0x3fac1c6c9853160c,
                0x3fb97f03e54fa43d,
                0x3fbb127003787920,
                0x3fb93b687060c2a2,
                0x3fb8e0e50f3a2d08,
                0x3fb7d4f6eedd29f3,
                0x3fb6f1d94032882b,
                0x3fb4cf9394195ebe,
                0x3fac1c6c9853160c,
            ],
            accuracy_bits: &[0x3febf5114f42815e],
        },
    );
}

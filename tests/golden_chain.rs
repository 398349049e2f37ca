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

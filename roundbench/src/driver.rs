//! The traced driver: rebuilds `FlProtocol::run`'s rounds from outside
//! the program, one public layer call at a time, with a span around each.
//!
//! It stages the same calls, nonces and bundles as the protocol (the
//! sequential round loop, which the protocol pins bit-identical to its
//! pipelined `run`), so a faithful driver ends at the same tip digest. On
//! top of the consensus commit it replays every committed block on one
//! extra genesis replica through `SmartContract::execute`, timed by call
//! kind, and checks each recomputed state root against the block.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use fedchain::contract_fl::{sharded_round_groups, share_commitment, RoundPhase};
use fedchain::owner::DataOwner;
use fedchain::{FlCall, FlContract, FlParams, World};
use fl_chain::consensus::leader::LeaderSchedule;
use fl_chain::durability::DurabilityConfig;
use fl_chain::tx::AccountId;
use fl_chain::{
    ConsensusEngine, DurableStore, EngineConfig, Hash32, Mempool, SmartContract, Transaction,
    TxContext,
};
use fl_crypto::shamir::{Shamir, Share};
use fl_crypto::ChaChaPrg;
use numeric::{par, U256};
use shapley::group::{grouping, permutation};

use crate::trace::{Span, SpanId, Tracer};
use crate::workload::Workload;

type Res<T> = Result<T, String>;

/// What one driver run produced.
pub struct DriverRun {
    /// Tip digest of miner 0's chain.
    pub tip: Hash32,
    /// Blocks committed.
    pub blocks: u64,
    /// Driver wall time, set-up to cold re-open.
    pub wall_s: f64,
    pub spans: Vec<Span>,
    pub counters: BTreeMap<&'static str, u64>,
}

/// The off-chain side: owners, their escrow shares, and the phase-0 key
/// snapshot.
struct OffChain<'a> {
    config: &'a fedchain::FlConfig,
    owners: &'a mut [DataOwner],
    escrows: &'a [Vec<Share>],
    keys: &'a [U256],
    epoch: [u8; 32],
}

/// The on-chain side: mempool, consensus engine, the extra replica and
/// the optional durable store.
struct Chain<'a> {
    t: &'a Tracer,
    engine: ConsensusEngine<FlContract>,
    pool: Mempool<FlCall>,
    replica: FlContract,
    /// Blocks the replica has executed.
    replica_blocks: u64,
    durable: Option<DurableStore<FlCall>>,
}

impl Chain<'_> {
    /// Assigns per-sender nonces in call order, as the protocol does.
    fn stage(&self, calls: Vec<(AccountId, FlCall)>) -> Vec<Transaction<FlCall>> {
        let mut staged: BTreeMap<AccountId, u64> = BTreeMap::new();
        calls
            .into_iter()
            .map(|(id, call)| {
                let count = staged.entry(id).or_insert(0);
                let nonce = self.pool.expected_nonce(id) + *count;
                *count += 1;
                Transaction::new(id, nonce, call)
            })
            .collect()
    }

    /// Admits `calls` in one batch and commits them as one block per
    /// entry of `sizes` (one block when `sizes` is `None`), then replays
    /// the new blocks on the replica and persists them.
    fn commit(
        &mut self,
        calls: Vec<(AccountId, FlCall)>,
        sizes: Option<&[usize]>,
        parent: Option<SpanId>,
        round: Option<u64>,
    ) -> Res<()> {
        let t = self.t;
        let txs = self.stage(calls);
        let admission = t.span("mempool.admit", parent, round, |_| {
            self.pool.submit_batch(txs)
        });
        t.count("mempool.admitted", admission.admitted as u64);
        t.count("mempool.rejected", admission.rejected.len() as u64);
        if let Some((_, reason)) = admission.rejected.first() {
            return Err(format!("mempool rejected a staged tx: {reason:?}"));
        }
        let bundles = t.span("mempool.drain", parent, round, |_| match sizes {
            Some(sizes) => self.pool.drain_bundles(sizes),
            None => vec![self.pool.drain_bundle(usize::MAX)],
        });
        let before = self.engine.stats();
        let reports = t
            .span("consensus.commit", parent, round, |_| {
                self.engine.commit_bundles(&bundles)
            })
            .map_err(|(_, at, e)| format!("consensus failed at bundle {at}: {e}"))?;
        let after = self.engine.stats();
        let miners = self.engine.miner_count() as u64;
        t.count("consensus.blocks", after.blocks - before.blocks);
        t.count("consensus.txs", after.txs - before.txs);
        t.count(
            "consensus.failed_views",
            after.failed_views - before.failed_views,
        );
        t.count(
            "consensus.executions",
            reports.iter().map(|r| r.attempts * miners).sum(),
        );
        t.span("replica", parent, round, |p| self.replicate(p, round))?;
        self.persist(parent, round)
    }

    /// Replays blocks the replica has not seen through
    /// `SmartContract::execute`, checking every state root.
    fn replicate(&mut self, parent: Option<SpanId>, round: Option<u64>) -> Res<()> {
        let t = self.t;
        let store = self.engine.store_of(0).expect("miner 0 always mines");
        for height in self.replica_blocks..store.height() {
            let block = store.block_at(height).expect("height bounded by store");
            for (tx_index, tx) in block.txs.iter().enumerate() {
                let kind = match &tx.call {
                    FlCall::SubmitRecoveryShare { .. } => "contract.recover",
                    FlCall::EvaluateRound { .. } => match self.replica.phase() {
                        RoundPhase::Recovering { .. } => "contract.recover",
                        RoundPhase::Submitting => "contract.evaluate",
                    },
                    _ => "contract.submit",
                };
                let ctx = TxContext {
                    block_height: height,
                    view: block.header.view,
                    sender: tx.sender,
                    tx_index,
                };
                t.span(kind, parent, round, |_| {
                    self.replica.execute(&ctx, &tx.call)
                })
                .map_err(|e| format!("replica failed at block {height}: {e:?}"))?;
            }
            let root = t.span("contract.digest", parent, round, |_| {
                self.replica.state_digest()
            });
            if root != block.header.state_root {
                return Err(format!("replica state root diverged at block {height}"));
            }
            self.replica_blocks = height + 1;
        }
        Ok(())
    }

    /// Appends every block beyond the durable height, then snapshots the
    /// honest contract when the cadence says so (the protocol's
    /// `persist_to` tail).
    fn persist(&mut self, parent: Option<SpanId>, round: Option<u64>) -> Res<()> {
        let t = self.t;
        let Some(durable) = self.durable.as_mut() else {
            return Ok(());
        };
        let live = self.engine.store_of(0).expect("miner 0 always mines");
        for height in durable.store().height()..live.height() {
            let block = live.block_at(height).expect("height bounded by store");
            t.span("durability.append", parent, round, |_| {
                durable.append(block)
            })
            .map_err(|e| format!("WAL append failed: {e}"))?;
            t.count("durability.appends", 1);
        }
        if durable.snapshot_due() {
            t.span("durability.snapshot", parent, round, |_| {
                durable.write_snapshot(&self.engine.honest_contract().snapshot_state())
            })
            .map_err(|e| format!("snapshot failed: {e}"))?;
            t.count("durability.snapshots", 1);
        }
        Ok(())
    }
}

/// Runs `workload` end to end with spans on (`traced`) or off, using
/// `dir` (which must not exist yet) for the WAL and snapshots.
pub fn drive(workload: &Workload, traced: bool, dir: &Path) -> Res<DriverRun> {
    let t = Tracer::new(traced);
    let start = Instant::now();
    let config = &workload.config;
    let n = config.num_owners;
    let threshold = config.escrow_threshold();

    // Set-up: `FlProtocol::new`'s steps, layer by layer.
    let (mut owners, escrows, mut chain) = t.span("setup", None, None, |p| -> Res<_> {
        let world = t
            .span("world.generate", p, None, |_| World::generate(config))
            .map_err(|e| format!("world: {e}"))?;
        let owner_ids: Vec<AccountId> = (0..n as u32).collect();
        let owners: Vec<DataOwner> = owner_ids
            .iter()
            .zip(world.shards)
            .map(|(&id, shard)| {
                t.span("owner.new", p, None, |_| {
                    DataOwner::new(
                        id,
                        shard,
                        config.train,
                        config.frac_bits,
                        config.sub_seed("dh-keys"),
                    )
                })
            })
            .collect();
        let escrow_seed = config.sub_seed("key-escrow");
        let escrows: Vec<Vec<Share>> = if config.dropout_schedule.is_empty() {
            Vec::new()
        } else {
            let shamir = Shamir::default();
            owners
                .iter()
                .enumerate()
                .map(|(i, owner)| {
                    t.span("owner.escrow", p, None, |_| {
                        let mut seed_bytes = [0u8; 32];
                        seed_bytes[..8].copy_from_slice(&escrow_seed.to_le_bytes());
                        seed_bytes[8..16].copy_from_slice(&(i as u64).to_le_bytes());
                        let mut prg = ChaChaPrg::from_seed(&seed_bytes);
                        owner.escrow_key_shares(&shamir, threshold, n, &mut prg)
                    })
                })
                .collect::<Result<_, _>>()
                .map_err(|e| format!("escrow: {e:?}"))?
        };
        let params = FlParams {
            owners: owner_ids.clone(),
            num_groups: config.num_groups,
            sv_method: config.sv_method,
            permutation_seed: config.permutation_seed,
            total_rounds: config.rounds,
            model_dim: (config.data.features + 1) * config.data.classes,
            num_features: config.data.features,
            num_classes: config.data.classes,
            frac_bits: config.frac_bits,
            escrow_threshold: threshold,
            num_cohorts: config.num_cohorts,
        };
        let engine = t
            .span("consensus.genesis", p, None, |_| {
                let miners: Vec<AccountId> = if config.miner_committee > 0 {
                    owner_ids[..config.miner_committee].to_vec()
                } else {
                    owner_ids
                };
                ConsensusEngine::new(
                    FlContract::genesis(params.clone(), world.test.clone()),
                    LeaderSchedule::round_robin(miners),
                    &BTreeMap::new(),
                    EngineConfig::default(),
                )
            })
            .map_err(|e| format!("engine: {e}"))?;
        // The protocol's pool sizing: the largest block any validated
        // schedule assembles, with headroom.
        let max_dropped = (0..config.rounds)
            .map(|r| config.dropped_in_round(r).len())
            .max()
            .unwrap_or(0);
        let max_block_txs = (2 * n).max(n + 1).max(max_dropped * threshold + 1);
        let chain = Chain {
            t: &t,
            engine,
            pool: Mempool::new(max_block_txs * 8),
            replica: FlContract::genesis(params, world.test),
            replica_blocks: 0,
            durable: None,
        };
        Ok((owners, escrows, chain))
    })?;

    if workload.durable {
        let (store, _) = DurableStore::open(dir, DurabilityConfig::default())
            .map_err(|e| format!("open WAL: {e}"))?;
        chain.durable = Some(store);
    }

    // Phase 0: keys (and escrow commitments) in one block.
    let (keys, epoch) = t.span("keys", None, None, |p| -> Res<_> {
        let mut calls: Vec<(AccountId, FlCall)> = owners
            .iter()
            .map(|o| {
                let public_key = o.public_key_bytes();
                (o.id(), FlCall::AdvertiseKey { public_key })
            })
            .collect();
        for (i, shares) in escrows.iter().enumerate() {
            let id = owners[i].id();
            let commitments = shares.iter().map(|s| share_commitment(id, s)).collect();
            calls.push((id, FlCall::EscrowKeyShares { commitments }));
        }
        chain.commit(calls, None, p, None)?;
        let contract = chain.engine.honest_contract();
        let mut directory: Vec<(AccountId, U256)> = Vec::with_capacity(n);
        for owner in &owners {
            let bytes = contract
                .public_key_of(owner.id())
                .ok_or_else(|| format!("owner {} has no key on-chain", owner.id()))?;
            directory.push((owner.id(), U256::from_be_bytes(bytes)));
        }
        let epoch = fl_crypto::key_epoch(&directory);
        Ok((
            directory.into_iter().map(|(_, k)| k).collect::<Vec<_>>(),
            epoch,
        ))
    })?;

    let mut off = OffChain {
        config,
        owners: &mut owners,
        escrows: &escrows,
        keys: &keys,
        epoch,
    };
    for round in 0..config.rounds {
        t.span("round", None, Some(round), |p| {
            run_round(&mut off, &mut chain, round, p)
        })?;
    }

    // Workloads that do not persist while running write their chain out
    // once after the rounds, as the benchmark's fast-sync check does.
    if !workload.durable {
        t.span("persist", None, None, |p| -> Res<()> {
            let (store, _) = DurableStore::open(dir, DurabilityConfig::default())
                .map_err(|e| format!("open WAL: {e}"))?;
            chain.durable = Some(store);
            chain.persist(p, None)
        })?;
    }
    drop(chain.durable.take());
    t.count("durability.bytes", dir_bytes(dir)?);

    let store = chain.engine.store_of(0).expect("miner 0 always mines");
    let tip = store.tip_digest();
    let (cold, _) = t
        .span("durability.open", None, None, |_| {
            DurableStore::<FlCall>::open(dir, DurabilityConfig::default())
        })
        .map_err(|e| format!("cold open: {e}"))?;
    if cold.store().tip_digest() != tip {
        return Err("cold WAL tip differs from the live tip".into());
    }

    let history = chain.engine.honest_contract().history();
    t.count(
        "sv.utility_evals",
        history.iter().map(|r| r.utility_evaluations as u64).sum(),
    );
    t.count("sv.samples", history.iter().map(|r| r.samples as u64).sum());
    let blocks = chain.engine.stats().blocks;
    let wall_s = start.elapsed().as_secs_f64();
    drop(chain);
    let (spans, counters) = t.finish();
    Ok(DriverRun {
        tip,
        blocks,
        wall_s,
        spans,
        counters,
    })
}

/// One round: the protocol's off-chain preparation (grouping, training,
/// masking, call assembly) against the live global model, then the
/// cohort bundles and, on churned rounds, the recovery block.
fn run_round(
    off: &mut OffChain<'_>,
    chain: &mut Chain<'_>,
    round: u64,
    parent: Option<SpanId>,
) -> Res<()> {
    let t = chain.t;
    let config = off.config;
    let n = off.owners.len();
    let dropped = config.dropped_in_round(round);
    let is_dropped = |idx: usize| dropped.binary_search(&idx).is_ok();

    let cohort_groups: Vec<Vec<Vec<usize>>> = if config.num_cohorts > 1 {
        sharded_round_groups(
            config.permutation_seed,
            round,
            n,
            config.num_cohorts,
            config.num_groups,
        )
        .1
    } else {
        vec![grouping(
            &permutation(config.permutation_seed, round, n),
            config.num_groups,
        )]
    };
    let mut directory_of: Vec<usize> = vec![0; n];
    let directories: Vec<Vec<(AccountId, U256)>> = cohort_groups
        .iter()
        .flatten()
        .enumerate()
        .map(|(j, group)| {
            group
                .iter()
                .map(|&idx| {
                    directory_of[idx] = j;
                    (idx as u32, off.keys[idx])
                })
                .collect()
        })
        .collect();

    let global = chain.engine.honest_contract().global_model().to_vec();
    let (features, classes) = (config.data.features, config.data.classes);
    let epoch = off.epoch;
    let mut masked: Vec<Option<Vec<u64>>> = t
        .span("round.train_mask", parent, Some(round), |p| {
            par::par_map_mut(off.owners, 1, |idx, owner| {
                if is_dropped(idx) {
                    return Ok(None);
                }
                let update = t.span("ml.train", p, Some(round), |_| {
                    owner.local_update(&global, features, classes)
                });
                t.count("ml.train_calls", 1);
                let cached = owner.cached_pair_secrets();
                let masked = t.span("crypto.mask", p, Some(round), |_| {
                    owner.mask_update_cached(&update, round, &directories[directory_of[idx]], epoch)
                })?;
                t.count("crypto.mask_calls", 1);
                t.count(
                    "crypto.dh_agreements",
                    (owner.cached_pair_secrets() - cached) as u64,
                );
                Ok(Some(masked))
            })
        })
        .into_iter()
        .collect::<Result<_, fl_crypto::SecureAggError>>()
        .map_err(|e| format!("masking: {e}"))?;

    // Submissions in cohort plan order, one bundle per cohort; the first
    // survivor's EvaluateRound rides the last bundle.
    let mut calls: Vec<(AccountId, FlCall)> = Vec::with_capacity(n + 1);
    let mut sizes: Vec<usize> = Vec::with_capacity(cohort_groups.len());
    for cohort in &cohort_groups {
        let before = calls.len();
        for &idx in cohort.iter().flatten() {
            if let Some(m) = masked[idx].take() {
                calls.push((
                    off.owners[idx].id(),
                    FlCall::SubmitMaskedUpdate { round, masked: m },
                ));
            }
        }
        sizes.push(calls.len() - before);
    }
    let survivors: Vec<usize> = (0..n).filter(|&i| !is_dropped(i)).collect();
    let trigger = off.owners[survivors[0]].id();
    calls.push((trigger, FlCall::EvaluateRound { round }));
    *sizes.last_mut().expect("at least one cohort") += 1;
    let sizes = (sizes.len() > 1).then_some(sizes.as_slice());
    chain.commit(calls, sizes, parent, Some(round))?;

    if !dropped.is_empty() {
        let threshold = config.escrow_threshold();
        let mut recovery: Vec<(AccountId, FlCall)> = Vec::new();
        for &d in &dropped {
            for &provider in survivors.iter().take(threshold) {
                let share = &off.escrows[d][provider];
                recovery.push((
                    off.owners[provider].id(),
                    FlCall::SubmitRecoveryShare {
                        round,
                        dropped: off.owners[d].id(),
                        share_x: share.x,
                        share_y: share.y.to_be_bytes(),
                    },
                ));
            }
        }
        recovery.push((trigger, FlCall::EvaluateRound { round }));
        chain.commit(recovery, None, parent, Some(round))?;
    }
    Ok(())
}

/// Total size of the files in `dir` (WAL segments and snapshots).
fn dir_bytes(dir: &Path) -> Res<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("stat in {}: {e}", dir.display()))?;
        total += meta.len();
    }
    Ok(total)
}

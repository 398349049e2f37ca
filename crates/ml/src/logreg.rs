//! Multinomial (softmax) logistic regression with gradient descent.
//!
//! The paper's local trainer (Sect. V-A2): "We use logistic regression
//! with gradient descent in local train epoch and FedAvg in global train
//! epoch." The model is a single linear layer with bias trained on
//! full-batch cross-entropy; `to_flat`/`from_flat` convert between the
//! matrix form and the flat weight vector that travels through secure
//! aggregation.
//!
//! # Batched execution
//!
//! Training and evaluation run over a [`Design`] — the input features
//! conditioned (fixed 1/16 scale) and bias-extended **once**, in a single
//! gather pass, instead of per call. The epoch loop is three batched
//! kernels with no per-row temporaries: one logits GEMM into a reused
//! buffer ([`Matrix::matmul_into`]), one fused softmax+residual pass in
//! place, and one gradient GEMM ([`Matrix::t_matmul_into`]). Every kernel
//! keeps the `numeric::linalg` determinism contract, so trained weights
//! are bit-identical for any thread count — and bit-identical to the
//! original unfused loop, whose operation order the fused pass preserves
//! exactly.
//!
//! Hard predictions ([`LogisticModel::predict`],
//! [`LogisticModel::predict_design`]) are one logits GEMM plus a
//! **certified argmax**, with no softmax matrix. The softmax is strictly
//! monotone within a row, so the class is read off the logits directly:
//! for each row, `k` is the first index of the maximum logit, and it is
//! returned when every logit is finite and every *earlier* logit lies
//! more than a margin of `2⁻³⁰` below it (`z_j − z_k < −2⁻³⁰`). Those
//! conditions certify the answer of the probability path: there class
//! `k` gets the numerator `exp(0) = 1`, every earlier class at most
//! `exp(−2⁻³⁰) ≤ 1 − 9·10⁻¹⁰` — millions of ulps below 1 — so the
//! correctly rounded division by the common row sum keeps them strictly
//! below `p_k`; later classes have `z_j ≤ z_k`, can at most tie `p_k`,
//! and lose the tie to the first index exactly as `stats::argmax` breaks
//! it. Every other row (an earlier class within the margin, or a
//! non-finite logit) falls back to that row's softmax followed by
//! `argmax`. Predictions are therefore bit-identical to the argmax of
//! [`LogisticModel::predict_proba`] / [`LogisticModel::predict_proba_design`]
//! on every input, while `exp` runs only on rows that could tie. The
//! softmax stays where probabilities are consumed: `predict_proba*`, the
//! training residual and [`LogisticModel::log_loss`].
//!
//! ## Superposed logits
//!
//! An accuracy game scores many averages `W_S = (1/s) Σ_{g∈S} W_g`
//! (`s = |S|`) of the same `m` models over the same design. Logits are
//! linear in the weights, so `x_r·W_S = (1/s) Σ_{g∈S} x_r·W_g`:
//! [`Design::superposition`] computes every `L_g = X·W_g` once (`m`
//! GEMMs), and [`LogitSuperposition::predict_mean`] reads a coalition's
//! classes off the row sums `T_r = Σ_{g∈S} L_g[r]` — `s − 1` vector adds
//! per row and no GEMM. `T_r/s` is not what the exact path computes
//! (that path rounds `W_S` first, then runs its own GEMM, then the
//! certified argmax above), so a row's class comes from `T_r` only under
//! a certificate that the two paths agree. Write `u = 2⁻⁵³`,
//! `γ_n = nu/(1 − nu)`, `K` for the design width (features + bias), `M`
//! for the largest `|w|` over all `m` models, `a_r = ‖x_r‖₁·M`, and
//! `z_r = x_r·W_S` for the real logits.
//!
//! * **Exact path.** Each entry of the rounded mean `Ŵ_S` costs at most
//!   `s − 1` additions and one multiplication by the rounded `1/s`, so it
//!   lies within `γ_{s+1}·M` of the real mean and below `(1 + γ_{s+1})·M`
//!   in magnitude, in whatever order the members are added. The GEMM
//!   sums `K` products in order, adding at most `γ_K·Σ_i |x_ri|·|Ŵ_S[i]|`.
//!   Together `|ẑ_rc − z_rc| ≤ (γ_{s+1} + γ_K + γ_{s+1}γ_K)·a_r ≤
//!   γ_{K+m+1}·a_r =: E_r`.
//! * **Superposed path.** Each `L_g` entry is a `K`-term dot product,
//!   within `γ_K·a_r` of `x_r·W_g` and below `(1 + γ_K)·a_r`; the `s − 1`
//!   additions of `T_r` add at most `γ_{s−1}·s·(1 + γ_K)·a_r`. So
//!   `|T_rc − s·z_rc| ≤ s·γ_{K+s−1}·a_r ≤ s·E_r`.
//! * **Certificate.** Hence `|ẑ_rc − T_rc/s| ≤ 2E_r`, and for any classes
//!   `k ≠ j` the exact gap `ẑ_rk − ẑ_rj` is at least `(T_rk − T_rj)/s −
//!   4E_r`. Let `k` be the first maximum of `T_r`. When the top-two gap of
//!   `T_r` exceeds `s·(2⁻³⁰ + 4E_r)`, every exact logit other than `ẑ_rk`
//!   lies more than `2⁻³⁰` below it: `k` is the unique maximum and the
//!   certified argmax above returns it from the logits alone.
//!
//! The test runs in floating point, so it is made against twice that
//! bound: the row is certified when `T_rk − T_r(2nd) > s·τ_r` with
//! `τ_r = 2·(2⁻³⁰ + 4·γ_{K+m+1}·a_r)`. The factor two absorbs the few
//! relative roundings (each a few `u`) in computing `a_r`, `τ_r`, the
//! product and the gap, keeps the exact path's own margin test
//! `ẑ_j − ẑ_k < −2⁻³⁰` strict after rounding, and covers underflow (at
//! most `2⁻¹⁰⁷⁵` absolute per product, against a margin of `2⁻³⁰`). A row
//! with `a_r` not below `2⁹⁰⁰` — in particular any non-finite weight or
//! feature — is never certified, which also rules out overflow on both
//! paths, so every certified logit is finite. A coalition with any
//! uncertified row gets `None` and is evaluated exactly by the caller;
//! rows with two classes tied exactly (all-zero models among them) land
//! there, since their gaps are zero.

use numeric::stats::argmax;
use numeric::Matrix;

use crate::dataset::{Dataset, DatasetView};

/// Hyper-parameters for local training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Gradient-descent step size.
    pub learning_rate: f64,
    /// Full-batch epochs per local training call.
    pub epochs: usize,
    /// L2 regularization strength (0 disables).
    pub l2: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            learning_rate: 0.1,
            epochs: 10,
            l2: 1e-4,
        }
    }
}

/// A conditioned design matrix: features scaled and bias-extended, with
/// labels, ready for repeated training or evaluation passes.
///
/// Building a `Design` pays the input conditioning (the fixed 1/16 scale
/// plus the constant bias column) exactly once; every
/// [`LogisticModel::train_design`] epoch and every
/// [`LogisticModel::predict_design`] call then runs straight GEMMs over
/// it. The FL hot paths build one design per dataset — per owner shard,
/// per coalition, and *once* for the test set an accuracy utility
/// evaluates `2^m` models against.
#[derive(Debug, Clone, PartialEq)]
pub struct Design {
    x: Matrix,
    labels: Vec<usize>,
    num_classes: usize,
}

impl Design {
    /// Conditions a dataset into a design matrix.
    pub fn new(data: &Dataset) -> Self {
        Self::from_view(&data.view())
    }

    /// Conditions a zero-copy coalition view: one fused gather-scale-bias
    /// pass over the member shards, no intermediate pooled dataset.
    ///
    /// Row order matches `Dataset::concat` over the same parts, so the
    /// trained weights are bit-identical to materializing first.
    ///
    /// # Panics
    ///
    /// Panics if the view is empty.
    pub fn from_view(view: &DatasetView<'_>) -> Self {
        assert!(!view.is_empty(), "cannot train on an empty dataset");
        let features = view.num_features();
        let mut x = Matrix::zeros(view.len(), features + 1);
        let mut labels = Vec::with_capacity(view.len());
        for (r, (row, label)) in view.rows().enumerate() {
            let out = x.row_mut(r);
            for (o, &v) in out[..features].iter_mut().zip(row) {
                *o = v / 16.0;
            }
            out[features] = 1.0;
            labels.push(label);
        }
        Self {
            x,
            labels,
            num_classes: view.num_classes(),
        }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the design holds no examples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of raw input features (bias column excluded).
    pub fn num_features(&self) -> usize {
        self.x.cols() - 1
    }

    /// Total number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Labels in row order.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// The logits of every flat model in `models` over this design, with
    /// the per-row certificate tolerances, for reading the classes of any
    /// average of the models (see the module's "Superposed logits"
    /// section). One GEMM per model.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty or a model's length is not
    /// `(features + 1) × classes`.
    pub fn superposition(&self, models: &[Vec<f64>]) -> LogitSuperposition {
        assert!(!models.is_empty(), "superposition of zero models");
        let (width, classes) = (self.x.cols(), self.num_classes);
        let stride = self.len().next_multiple_of(SUPERPOSITION_LANES);
        // One GEMM per model, scattered class-major into its slot: only
        // one model's row-major logits exist at a time.
        let mut logits = vec![0.0f64; models.len() * classes * stride];
        for (g, (w, slot)) in models
            .iter()
            .zip(logits.chunks_exact_mut(classes * stride))
            .enumerate()
        {
            assert_eq!(
                w.len(),
                width * classes,
                "model {g} has {} weights, the design needs {width}x{classes}",
                w.len()
            );
            let product = self.x.matmul(&Matrix::from_vec(width, classes, w.clone()));
            for (r, row) in product.as_slice().chunks_exact(classes).enumerate() {
                for (c, &z) in row.iter().enumerate() {
                    slot[c * stride + r] = z;
                }
            }
        }
        // A non-finite weight makes M infinite: no row is ever certified.
        let max_abs = models.iter().flatten().fold(0.0f64, |acc, &w| {
            if w.is_finite() {
                acc.max(w.abs())
            } else {
                f64::INFINITY
            }
        });
        let gamma = gamma(width + models.len() + 1);
        let tolerance = (0..self.len())
            .map(|r| {
                let scale = self.x.row(r).iter().map(|v| v.abs()).sum::<f64>() * max_abs;
                if scale < SUPERPOSITION_SCALE_CAP {
                    2.0 * (ARGMAX_MARGIN + 4.0 * gamma * scale)
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        LogitSuperposition {
            classes,
            stride,
            logits,
            tolerance,
        }
    }
}

/// The logits of `m` models over one [`Design`], from which the classes
/// of any average of the models are read without a GEMM when a
/// certificate shows they are exactly the mean model's own predictions
/// (see the module's "Superposed logits" section).
#[derive(Debug, Clone)]
pub struct LogitSuperposition {
    classes: usize,
    /// Row count rounded up to a multiple of [`SUPERPOSITION_LANES`].
    stride: usize,
    /// The models' logits, model-major then class-major
    /// (`models × classes × stride`, the padding rows zero), so the same
    /// class of adjacent rows is contiguous and the sums and the top-two
    /// scan vectorize across rows.
    logits: Vec<f64>,
    /// Per-row certificate tolerance `τ_r`, or `+∞` for a row that is
    /// never certified.
    tolerance: Vec<f64>,
}

/// Rows scanned together in [`LogitSuperposition::predict_mean`]: their
/// sums and top-two state stay in registers across all classes.
const SUPERPOSITION_LANES: usize = 8;

impl LogitSuperposition {
    /// The predictions [`LogisticModel::predict_design`] makes for the
    /// mean of the models at `members`, when every row carries the
    /// certificate; `None` as soon as one row does not, in which case the
    /// caller evaluates the mean model exactly.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or names a model out of range.
    pub fn predict_mean(&self, members: &[usize]) -> Option<Vec<usize>> {
        const L: usize = SUPERPOSITION_LANES;
        assert!(!members.is_empty(), "mean of zero models");
        let span = self.classes * self.stride;
        let models: Vec<&[f64]> = members
            .iter()
            .map(|&g| &self.logits[g * span..(g + 1) * span])
            .collect();
        let s = members.len() as f64;
        // `T` for class `c` of the `L` rows from `i0`: the members' logits
        // summed in the order given.
        let class_sums = |c: usize, i0: usize| -> [f64; L] {
            let at = c * self.stride + i0;
            let lanes = |m: &[f64]| -> [f64; L] { m[at..at + L].try_into().expect("L lanes") };
            let mut z = lanes(models[0]);
            for m in &models[1..] {
                let v = lanes(m);
                for l in 0..L {
                    z[l] += v[l];
                }
            }
            z
        };
        let mut predictions = Vec::with_capacity(self.tolerance.len());
        for (i0, tolerances) in (0..).step_by(L).zip(self.tolerance.chunks(L)) {
            // Per row: the maximum, the runner-up (equal to the maximum
            // on a tie) and the first index of the maximum, one class at
            // a time. Every update is a float select, so the lanes
            // vectorize; padding lanes are ignored.
            let mut top = class_sums(0, i0);
            let (mut second, mut argmax) = ([f64::NEG_INFINITY; L], [0.0f64; L]);
            for c in 1..self.classes {
                let z = class_sums(c, i0);
                let class = c as f64;
                for l in 0..L {
                    let above = z[l] > top[l];
                    let lower = if above { top[l] } else { z[l] };
                    second[l] = if lower > second[l] { lower } else { second[l] };
                    argmax[l] = if above { class } else { argmax[l] };
                    top[l] = if above { z[l] } else { top[l] };
                }
            }
            for (l, &tolerance) in tolerances.iter().enumerate() {
                let certified = top[l] - second[l] > s * tolerance;
                if !certified {
                    return None;
                }
                predictions.push(argmax[l] as usize);
            }
        }
        Some(predictions)
    }
}

/// `γ_n = nu/(1 − nu)` with `u = 2⁻⁵³`: the relative error bound of an
/// `n`-operation chain of rounded products and sums.
fn gamma(n: usize) -> f64 {
    let nu = n as f64 * (f64::EPSILON / 2.0);
    nu / (1.0 - nu)
}

/// Rows with `‖x_r‖₁·M` at or above `2⁹⁰⁰` are never certified, so no
/// logit on either path can overflow.
const SUPERPOSITION_SCALE_CAP: f64 = f64::from_bits((1023 + 900) << 52);

/// A trained softmax-regression model.
///
/// Weight layout: `(features + 1) × classes`, the final row being the
/// bias. Features are standardized by the caller if desired; the digits
/// data is already range-bounded so the trainer uses a fixed 1/16 input
/// scale for conditioning.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticModel {
    weights: Matrix,
    num_features: usize,
    num_classes: usize,
}

impl LogisticModel {
    /// A zero-initialized model.
    pub fn zeros(num_features: usize, num_classes: usize) -> Self {
        assert!(num_classes >= 2, "need at least two classes");
        Self {
            weights: Matrix::zeros(num_features + 1, num_classes),
            num_features,
            num_classes,
        }
    }

    /// Number of input features.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Immutable weight matrix view (rows = features + bias).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Length of the flat parameter vector.
    pub fn flat_len(&self) -> usize {
        (self.num_features + 1) * self.num_classes
    }

    /// Serializes parameters row-major into a flat vector.
    pub fn to_flat(&self) -> Vec<f64> {
        self.weights.as_slice().to_vec()
    }

    /// Rebuilds a model from a flat vector.
    ///
    /// # Panics
    ///
    /// Panics if the length does not match `(features+1) * classes`.
    pub fn from_flat(flat: &[f64], num_features: usize, num_classes: usize) -> Self {
        assert_eq!(
            flat.len(),
            (num_features + 1) * num_classes,
            "flat vector length {} does not match ({num_features}+1)x{num_classes}",
            flat.len()
        );
        Self {
            weights: Matrix::from_vec(num_features + 1, num_classes, flat.to_vec()),
            num_features,
            num_classes,
        }
    }

    /// Class-probability matrix for `features` (one row per example).
    ///
    /// Conditions the input on every call; evaluation loops that hit the
    /// same data repeatedly should build a [`Design`] once and use
    /// [`LogisticModel::predict_proba_design`].
    pub fn predict_proba(&self, features: &Matrix) -> Matrix {
        self.check_features(features.cols());
        let x = scaled_with_bias(features);
        let mut logits = x.matmul(&self.weights);
        softmax_rows_in_place(&mut logits);
        logits
    }

    /// Class-probability matrix over a prepared design (no conditioning
    /// pass: one GEMM plus the in-place softmax).
    pub fn predict_proba_design(&self, design: &Design) -> Matrix {
        self.check_features(design.num_features());
        let mut logits = design.x.matmul(&self.weights);
        softmax_rows_in_place(&mut logits);
        logits
    }

    /// Hard label predictions: the row-wise argmax of
    /// [`LogisticModel::predict_proba`], taken from the logits by the
    /// certified argmax (see the module's "Batched execution" section).
    pub fn predict(&self, features: &Matrix) -> Vec<usize> {
        self.check_features(features.cols());
        let x = scaled_with_bias(features);
        certified_argmax_rows(x.matmul(&self.weights))
    }

    /// Hard label predictions over a prepared design: the row-wise argmax
    /// of [`LogisticModel::predict_proba_design`], bit for bit, from one
    /// GEMM plus the certified argmax.
    pub fn predict_design(&self, design: &Design) -> Vec<usize> {
        self.check_features(design.num_features());
        certified_argmax_rows(design.x.matmul(&self.weights))
    }

    /// Trains in place on `data` for `config.epochs` full-batch steps.
    pub fn train(&mut self, data: &Dataset, config: &TrainConfig) {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        let design = Design::new(data);
        self.train_design(&design, config);
    }

    /// Trains in place over a prepared design — the batched epoch loop
    /// every trainer entry point funnels through.
    ///
    /// Per epoch: one logits GEMM into a reused buffer, one fused
    /// softmax+residual pass in place (`P − Y` without materializing the
    /// one-hot labels), one gradient GEMM into a reused buffer, then the
    /// L2 and step AXPYs. No per-row or per-epoch allocations.
    ///
    /// # Panics
    ///
    /// Panics on an empty design or class/feature-count mismatch.
    pub fn train_design(&mut self, design: &Design, config: &TrainConfig) {
        assert!(!design.is_empty(), "cannot train on an empty dataset");
        assert_eq!(design.num_classes, self.num_classes, "class count mismatch");
        self.check_features(design.num_features());
        let x = &design.x;
        let n = design.len() as f64;
        let mut logits = Matrix::zeros(design.len(), self.num_classes);
        let mut grad = Matrix::zeros(self.num_features + 1, self.num_classes);

        for _ in 0..config.epochs {
            x.matmul_into(&self.weights, &mut logits);
            softmax_residual_in_place(&mut logits, &design.labels); // P − Y
            x.t_matmul_into(&logits, &mut grad);
            grad.scale(1.0 / n);
            if config.l2 > 0.0 {
                grad.axpy(config.l2, &self.weights);
            }
            self.weights.axpy(-config.learning_rate, &grad);
        }
    }

    /// Warm start: builds a model from the flat `global` weights and
    /// trains it on `design` — one FL round's local update without
    /// re-deriving the conditioned design (the caller keeps it across
    /// rounds) and without an intermediate zero model.
    pub fn train_from(global: &[f64], design: &Design, config: &TrainConfig) -> Self {
        let mut model = Self::from_flat(global, design.num_features(), design.num_classes);
        model.train_design(design, config);
        model
    }

    /// Panics unless the input has the model's feature count.
    fn check_features(&self, input_features: usize) {
        assert_eq!(
            input_features, self.num_features,
            "feature count mismatch: model {}, input {input_features}",
            self.num_features
        );
    }

    /// Cross-entropy loss on `data` (mean negative log-likelihood).
    pub fn log_loss(&self, data: &Dataset) -> f64 {
        let proba = self.predict_proba(&data.features);
        let eps = 1e-12;
        let total: f64 = data
            .labels
            .iter()
            .enumerate()
            .map(|(i, &l)| -(proba[(i, l)].max(eps)).ln())
            .sum();
        total / data.len() as f64
    }
}

/// Trains a fresh model on `data`.
pub fn train_model(data: &Dataset, config: &TrainConfig) -> LogisticModel {
    let mut model = LogisticModel::zeros(data.num_features(), data.num_classes);
    model.train(data, config);
    model
}

/// Trains a fresh model over a prepared design.
pub fn train_model_design(design: &Design, config: &TrainConfig) -> LogisticModel {
    let mut model = LogisticModel::zeros(design.num_features(), design.num_classes());
    model.train_design(design, config);
    model
}

/// Input conditioning: scale bitmap counts (0–16) towards unit range and
/// append the bias column. A fixed constant keeps the transformation
/// identical on every owner without sharing statistics.
fn scaled_with_bias(features: &Matrix) -> Matrix {
    features.map(|v| v / 16.0).with_bias_column()
}

/// How far below the row's maximum logit every earlier logit must lie
/// for [`logit_argmax`] to skip the softmax: `2⁻³⁰`.
const ARGMAX_MARGIN: f64 = 1.0 / (1u64 << 30) as f64;

/// Row-wise class predictions from a logits matrix, consumed in place.
fn certified_argmax_rows(mut logits: Matrix) -> Vec<usize> {
    (0..logits.rows())
        .map(|r| certified_argmax(logits.row_mut(r)))
        .collect()
}

/// `argmax(softmax(row))`, bit for bit: the certified logit argmax when
/// it applies, otherwise this row's softmax followed by `argmax` exactly
/// as [`LogisticModel::predict_proba`] computes them.
fn certified_argmax(row: &mut [f64]) -> usize {
    logit_argmax(row).unwrap_or_else(|| {
        softmax_row_in_place(row);
        argmax(row).expect("non-empty probability row")
    })
}

/// The class of a logit row, when the logits alone certify it: `Some(k)`
/// for the first index `k` of the maximum when every logit is finite and
/// every earlier logit lies more than [`ARGMAX_MARGIN`] below `z_k` (the
/// module's "Batched execution" section shows why that is exactly the
/// softmax path's answer). `None` — a near-tie with an earlier class, a
/// non-finite logit, or an empty row — sends the row to the softmax.
fn logit_argmax(row: &[f64]) -> Option<usize> {
    let (&first, rest) = row.split_first()?;
    let (mut k, mut max, mut finite) = (0, first, first.is_finite());
    for (j, &z) in rest.iter().enumerate() {
        finite &= z.is_finite();
        // Select, not branch: where the maximum sits is data-dependent,
        // and a mispredicted branch per row would cost as much as the
        // rest of the scan.
        let above = z > max;
        k = if above { j + 1 } else { k };
        max = if above { z } else { max };
    }
    let certified = finite && row[..k].iter().all(|&z| z - max < -ARGMAX_MARGIN);
    certified.then_some(k)
}

/// Row-wise numerically-stable softmax, in place, no temporaries.
fn softmax_rows_in_place(logits: &mut Matrix) {
    for r in 0..logits.rows() {
        softmax_row_in_place(logits.row_mut(r));
    }
}

/// Numerically-stable softmax of one row, in place.
///
/// Operation order per element matches the original out-of-place
/// version — `(v − max).exp()`, then a division by the row sum — so the
/// probabilities are bit-identical to the unfused pipeline.
fn softmax_row_in_place(row: &mut [f64]) {
    let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in row.iter_mut() {
        *v /= sum;
    }
}

/// Fused softmax + residual: turns a logits matrix into `P − Y` in one
/// pass, subtracting the one-hot label directly instead of materializing
/// `Y` and AXPY-ing it (`p − 1.0` is the identical float operation).
fn softmax_residual_in_place(logits: &mut Matrix, labels: &[usize]) {
    debug_assert_eq!(logits.rows(), labels.len());
    softmax_rows_in_place(logits);
    for (r, &label) in labels.iter().enumerate() {
        logits.row_mut(r)[label] -= 1.0;
    }
}

/// Row-wise numerically-stable softmax (out of place).
#[cfg(test)]
fn softmax_rows(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    softmax_rows_in_place(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SyntheticDigits;
    use crate::metrics::accuracy;
    use crate::rng::Xoshiro256;
    use crate::split::train_test_split;
    use proptest::prelude::*;

    fn quick_config() -> TrainConfig {
        TrainConfig {
            learning_rate: 0.5,
            epochs: 60,
            l2: 1e-4,
        }
    }

    /// The retained probability path: the argmax of each softmax row.
    fn proba_argmax(proba: &Matrix) -> Vec<usize> {
        (0..proba.rows())
            .map(|r| argmax(proba.row(r)).expect("non-empty probability row"))
            .collect()
    }

    /// `argmax(softmax(row))` for one row, `None` where the softmax
    /// row is all NaN.
    fn softmax_argmax(row: &[f64]) -> Option<usize> {
        let mut p = row.to_vec();
        softmax_row_in_place(&mut p);
        argmax(&p)
    }

    /// Asserts both hard-prediction routes equal the argmax of their
    /// probability routes for `model` on `data`.
    fn assert_predictions_match_proba(model: &LogisticModel, data: &Dataset) {
        let design = Design::new(data);
        assert_eq!(
            model.predict(&data.features),
            proba_argmax(&model.predict_proba(&data.features))
        );
        assert_eq!(
            model.predict_design(&design),
            proba_argmax(&model.predict_proba_design(&design))
        );
    }

    /// A model with zero feature weights and bias row `bias`: every
    /// example's logits are exactly `bias` (each product adds `+0.0`).
    fn bias_model(num_features: usize, bias: &[f64]) -> LogisticModel {
        let mut flat = vec![0.0; num_features * bias.len()];
        flat.extend_from_slice(bias);
        LogisticModel::from_flat(&flat, num_features, bias.len())
    }

    /// `steps` ulps below `x` (for finite positive or negative `x`).
    fn ulps_below(x: f64, steps: u32) -> f64 {
        (0..steps).fold(x, |v, _| {
            if v > 0.0 {
                f64::from_bits(v.to_bits() - 1)
            } else {
                f64::from_bits(v.to_bits() + 1)
            }
        })
    }

    /// Finite logit rows at the edges of the certificate: exact ties at
    /// the maximum, earlier near-ties of 1–4 ulp and around the `2⁻³⁰`
    /// margin, signed zeros, and logits at the fixed-point bound.
    fn crafted_rows() -> Vec<Vec<f64>> {
        let bound = (1u64 << 39) as f64;
        let mut rows = vec![
            vec![2.0, 2.0, 0.0],
            vec![0.0, 2.0, 2.0],
            vec![2.0, 0.0, 2.0],
            vec![1.0, 5.0, 3.0, 5.0, 5.0],
            vec![-3.0, -3.0, -3.0, -3.0],
            vec![0.0, -0.0],
            vec![-0.0, 0.0],
            vec![-0.0, -1.0, 0.0],
            vec![-1.0, -0.0, 0.0, -0.0],
            vec![0.0; 10],
            vec![bound, -bound, bound],
            vec![-bound, bound, ulps_below(bound, 1)],
            vec![ulps_below(bound, 1), bound],
            vec![-bound, -bound, -bound],
        ];
        for &top in &[1.0, 0.37, 1e3, -7.5, 2f64.powi(-40), 6.0e11] {
            for steps in 1..=4 {
                rows.push(vec![ulps_below(top, steps), top, -1.0]);
                rows.push(vec![-1.0, top, ulps_below(top, steps)]);
            }
            let at_margin = top - ARGMAX_MARGIN;
            for near in [
                ulps_below(at_margin, 1),
                at_margin,
                -ulps_below(-at_margin, 1),
            ] {
                rows.push(vec![near, top]);
                rows.push(vec![near, -5.0, top, near]);
            }
        }
        rows
    }

    #[test]
    fn certified_argmax_matches_softmax_on_crafted_rows() {
        for row in crafted_rows() {
            let expected = softmax_argmax(&row).expect("finite row");
            assert_eq!(certified_argmax(&mut row.clone()), expected, "{row:?}");
        }
    }

    #[test]
    fn certificate_covers_clear_rows_and_defers_near_ties() {
        // Clear maxima are read off the logits.
        assert_eq!(logit_argmax(&[0.0, 3.0, 1.0]), Some(1));
        assert_eq!(logit_argmax(&[3.0, 3.0, 1.0]), Some(0));
        assert_eq!(logit_argmax(&[0.0, 0.0]), Some(0));
        let top = 1.0;
        let at_margin = top - ARGMAX_MARGIN;
        assert_eq!(logit_argmax(&[ulps_below(at_margin, 1), top]), Some(1));
        // An earlier logit on or within the margin takes the softmax.
        assert_eq!(logit_argmax(&[at_margin, top]), None);
        assert_eq!(logit_argmax(&[ulps_below(top, 1), top]), None);
        assert_eq!(logit_argmax(&[-0.0, 0.0]), Some(0));
        // Non-finite logits always take the softmax.
        assert_eq!(logit_argmax(&[f64::NEG_INFINITY, 1.0]), None);
        assert_eq!(logit_argmax(&[1.0, f64::INFINITY]), None);
        assert_eq!(logit_argmax(&[f64::NAN, 1.0, 2.0]), None);
        assert_eq!(logit_argmax(&[]), None);
    }

    #[test]
    fn non_finite_rows_behave_as_the_softmax_path() {
        // −∞ logits have a well-defined softmax: the fallback follows it.
        for row in [
            vec![f64::NEG_INFINITY, 1.0, 2.0],
            vec![1.0, f64::NEG_INFINITY],
            vec![f64::NEG_INFINITY, f64::NEG_INFINITY, 0.0],
        ] {
            let expected = softmax_argmax(&row).expect("defined softmax");
            assert_eq!(certified_argmax(&mut row.clone()), expected, "{row:?}");
        }
        // NaN or +∞ logits turn the softmax row into NaNs, which the
        // probability path rejects; the prediction path rejects them too.
        for row in [
            vec![f64::NAN, 1.0, 2.0],
            vec![0.0, f64::INFINITY],
            vec![f64::INFINITY, f64::INFINITY],
        ] {
            assert_eq!(softmax_argmax(&row), None, "{row:?}");
            let outcome = std::panic::catch_unwind(|| certified_argmax(&mut row.clone()));
            assert!(outcome.is_err(), "{row:?} must be rejected");
        }
    }

    #[test]
    fn crafted_logits_predict_like_the_probability_path() {
        let ds = SyntheticDigits::small().generate(13);
        let data = ds.subset(&[0, 1, 2]);
        for row in crafted_rows() {
            let model = bias_model(ds.num_features(), &row);
            assert_predictions_match_proba(&model, &data);
        }
        let model = bias_model(ds.num_features(), &[f64::NEG_INFINITY, 0.5, 0.25]);
        assert_predictions_match_proba(&model, &data);
    }

    #[test]
    fn zero_model_predicts_class_zero() {
        let ds = SyntheticDigits::small().generate(14);
        let model = LogisticModel::zeros(ds.num_features(), ds.num_classes);
        assert_eq!(model.predict(&ds.features), vec![0; ds.len()]);
        assert_eq!(model.predict_design(&Design::new(&ds)), vec![0; ds.len()]);
        assert_predictions_match_proba(&model, &ds);
    }

    // Random models — smooth weights, coarse-grid weights that make
    // exact and near ties common, and weights at the fixed-point bound —
    // predict exactly the probability path's classes.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_predictions_match_probability_argmax(
            seed in any::<u64>(),
            features in 1usize..=8,
            classes in 2usize..=10,
            style in 0u8..3,
        ) {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let bound = (1u64 << 39) as f64;
            let flat: Vec<f64> = (0..(features + 1) * classes)
                .map(|_| match style {
                    0 => rng.next_gaussian() * 4.0,
                    1 => rng.next_below(5) as f64 * 0.5 - 1.0,
                    _ => match rng.next_below(4) {
                        0 => bound,
                        1 => -bound,
                        _ => rng.next_gaussian(),
                    },
                })
                .collect();
            let model = LogisticModel::from_flat(&flat, features, classes);
            let rows = 1 + rng.next_below(24) as usize;
            let x: Vec<f64> = (0..rows * features)
                .map(|_| rng.next_below(17) as f64)
                .collect();
            let labels = (0..rows).map(|r| r % classes).collect();
            let data = Dataset::new(Matrix::from_vec(rows, features, x), labels, classes);
            assert_predictions_match_proba(&model, &data);
        }
    }

    /// The mean model the exact path evaluates: members summed in order,
    /// then scaled by the rounded `1/s`.
    fn mean_model(models: &[Vec<f64>], members: &[usize]) -> Vec<f64> {
        let mut sum = vec![0.0; models[0].len()];
        for &g in members {
            for (a, w) in sum.iter_mut().zip(&models[g]) {
                *a += w;
            }
        }
        let inv = 1.0 / members.len() as f64;
        sum.iter().map(|v| v * inv).collect()
    }

    /// Every non-empty member set of `0..m`, ascending.
    fn member_sets(m: usize) -> impl Iterator<Item = Vec<usize>> {
        (1u32..1 << m).map(move |mask| (0..m).filter(|&g| mask >> g & 1 == 1).collect())
    }

    /// Asserts that every certified superposed prediction equals the
    /// exact path's prediction for the mean model.
    fn assert_superposition_exact(models: &[Vec<f64>], design: &Design) {
        let superposition = design.superposition(models);
        let (features, classes) = (design.num_features(), design.num_classes());
        for members in member_sets(models.len()) {
            if let Some(predicted) = superposition.predict_mean(&members) {
                let mean =
                    LogisticModel::from_flat(&mean_model(models, &members), features, classes);
                assert_eq!(
                    predicted,
                    mean.predict_design(design),
                    "members {members:?}"
                );
            }
        }
    }

    #[test]
    fn superposition_defers_ties_zero_and_non_finite_models() {
        let ds = SyntheticDigits::small().generate(22);
        let design = Design::new(&ds.subset(&(0..40).collect::<Vec<_>>()));
        let (features, classes) = (ds.num_features(), ds.num_classes);
        // A bias-only model whose remaining classes sit at −1.
        let flat = |head: &[f64]| {
            let mut bias = head.to_vec();
            bias.resize(classes, -1.0);
            bias_model(features, &bias).to_flat()
        };
        let clear = flat(&[0.0, 3.0, 1.0]);
        // Two classes tie exactly on every row.
        let tied = flat(&[2.0, 2.0, 0.0]);
        let zero = vec![0.0; (features + 1) * classes];
        let superposition = design.superposition(&[clear.clone(), tied.clone(), zero.clone()]);
        assert_eq!(superposition.predict_mean(&[0]), Some(vec![1; 40]));
        assert_eq!(superposition.predict_mean(&[1]), None);
        assert_eq!(superposition.predict_mean(&[2]), None);
        // Duplicated models superpose to a doubled gap: still certified.
        let duplicated = design.superposition(&[clear.clone(), clear.clone()]);
        assert_eq!(duplicated.predict_mean(&[0, 1]), Some(vec![1; 40]));
        assert_superposition_exact(&[clear.clone(), tied, zero, clear.clone()], &design);
        // A non-finite weight anywhere voids every certificate, even for
        // member sets without that model.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut poisoned = clear.clone();
            poisoned[7] = bad;
            let superposition = design.superposition(&[clear.clone(), poisoned]);
            assert_eq!(superposition.predict_mean(&[0]), None, "{bad}");
            assert_eq!(superposition.predict_mean(&[0, 1]), None, "{bad}");
        }
    }

    // Random models — smooth weights, coarse-grid weights that make exact
    // and near ties common, and weights at the fixed-point bound — never
    // certify a class the exact path of the mean model would not return.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_superposition_agrees_with_the_mean_model(
            seed in any::<u64>(),
            m in 1usize..=5,
            features in 1usize..=8,
            classes in 2usize..=10,
            style in 0u8..3,
        ) {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let bound = (1u64 << 39) as f64;
            let models: Vec<Vec<f64>> = (0..m)
                .map(|_| {
                    (0..(features + 1) * classes)
                        .map(|_| match style {
                            0 => rng.next_gaussian() * 4.0,
                            1 => rng.next_below(5) as f64 * 0.5 - 1.0,
                            _ => match rng.next_below(4) {
                                0 => bound,
                                1 => -bound,
                                _ => rng.next_gaussian(),
                            },
                        })
                        .collect()
                })
                .collect();
            let rows = 1 + rng.next_below(24) as usize;
            let x: Vec<f64> = (0..rows * features)
                .map(|_| rng.next_below(17) as f64)
                .collect();
            let labels = (0..rows).map(|r| r % classes).collect();
            let data = Dataset::new(Matrix::from_vec(rows, features, x), labels, classes);
            assert_superposition_exact(&models, &Design::new(&data));
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0]);
        let p = softmax_rows(&logits);
        for r in 0..2 {
            let s: f64 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
            assert!(p.row(r).iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn softmax_stable_for_huge_logits() {
        let logits = Matrix::from_vec(1, 2, vec![1000.0, 999.0]);
        let p = softmax_rows(&logits);
        assert!(p[(0, 0)].is_finite() && p[(0, 1)].is_finite());
        assert!(p[(0, 0)] > p[(0, 1)]);
    }

    #[test]
    fn zero_model_predicts_uniform() {
        let model = LogisticModel::zeros(4, 5);
        let x = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        let p = model.predict_proba(&x);
        for c in 0..5 {
            assert!((p[(0, c)] - 0.2).abs() < 1e-12);
        }
    }

    #[test]
    fn flat_round_trip() {
        let mut model = LogisticModel::zeros(3, 4);
        model.weights[(0, 0)] = 1.5;
        model.weights[(3, 3)] = -2.5;
        let flat = model.to_flat();
        assert_eq!(flat.len(), 16);
        let back = LogisticModel::from_flat(&flat, 3, 4);
        assert_eq!(back, model);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_flat_bad_length_panics() {
        let _ = LogisticModel::from_flat(&[0.0; 5], 3, 4);
    }

    #[test]
    fn training_reduces_loss() {
        let ds = SyntheticDigits::small().generate(1);
        let mut model = LogisticModel::zeros(ds.num_features(), ds.num_classes);
        let before = model.log_loss(&ds);
        model.train(&ds, &quick_config());
        let after = model.log_loss(&ds);
        assert!(
            after < before * 0.8,
            "loss should drop substantially: {before} -> {after}"
        );
    }

    #[test]
    fn learns_separable_digits() {
        let ds = SyntheticDigits::small().generate(2);
        let split = train_test_split(&ds, 0.8, 3);
        let model = train_model(&split.train, &quick_config());
        let preds = model.predict(&split.test.features);
        let acc = accuracy(&preds, &split.test.labels);
        assert!(acc > 0.9, "synthetic digits should be learnable, got {acc}");
    }

    #[test]
    fn training_deterministic() {
        let ds = SyntheticDigits::small().generate(4);
        let a = train_model(&ds, &quick_config());
        let b = train_model(&ds, &quick_config());
        assert_eq!(a, b, "full-batch GD from zeros is deterministic");
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_training_panics() {
        let ds = SyntheticDigits::small().generate(1);
        let empty = ds.subset(&[]);
        let mut model = LogisticModel::zeros(64, 10);
        model.train(&empty, &quick_config());
    }

    #[test]
    fn l2_shrinks_weights() {
        let ds = SyntheticDigits::small().generate(5);
        let no_reg = train_model(
            &ds,
            &TrainConfig {
                l2: 0.0,
                ..quick_config()
            },
        );
        let reg = train_model(
            &ds,
            &TrainConfig {
                l2: 0.5,
                ..quick_config()
            },
        );
        assert!(
            reg.weights().frobenius_norm() < no_reg.weights().frobenius_norm(),
            "L2 must shrink the weight norm"
        );
    }

    #[test]
    fn design_training_is_bit_identical_to_dataset_training() {
        let ds = SyntheticDigits::small().generate(7);
        let via_dataset = train_model(&ds, &quick_config());
        let design = Design::new(&ds);
        let via_design = train_model_design(&design, &quick_config());
        assert_eq!(via_dataset, via_design);
        // Prediction paths agree too.
        assert_eq!(
            via_dataset.predict(&ds.features),
            via_design.predict_design(&design)
        );
        assert_eq!(
            via_dataset.predict_proba(&ds.features),
            via_design.predict_proba_design(&design)
        );
    }

    #[test]
    fn coalition_view_trains_like_materialized_concat() {
        use crate::dataset::{Dataset, DatasetView};
        let ds = SyntheticDigits::small().generate(9);
        let a = ds.subset(&(0..200).collect::<Vec<_>>());
        let b = ds.subset(&(200..450).collect::<Vec<_>>());
        let view = DatasetView::of_parts(vec![&a, &b]);
        let via_view = train_model_design(&Design::from_view(&view), &quick_config());
        let pooled = Dataset::concat(&[&a, &b]);
        let via_concat = train_model(&pooled, &quick_config());
        assert_eq!(via_view, via_concat, "zero-copy view must not change bits");
    }

    #[test]
    fn train_from_warm_starts_from_global_weights() {
        let ds = SyntheticDigits::small().generate(10);
        let design = Design::new(&ds);
        let global = train_model_design(
            &design,
            &TrainConfig {
                epochs: 5,
                ..quick_config()
            },
        );
        let warm = LogisticModel::train_from(
            &global.to_flat(),
            &design,
            &TrainConfig {
                epochs: 20,
                ..quick_config()
            },
        );
        // Identical to the long-hand from_flat + train path.
        let mut long_hand =
            LogisticModel::from_flat(&global.to_flat(), ds.num_features(), ds.num_classes);
        long_hand.train(
            &ds,
            &TrainConfig {
                epochs: 20,
                ..quick_config()
            },
        );
        assert_eq!(warm, long_hand);
    }

    #[test]
    #[should_panic(expected = "feature count mismatch")]
    fn design_feature_mismatch_panics() {
        let ds = SyntheticDigits::small().generate(12);
        let design = Design::new(&ds);
        let mut model = LogisticModel::zeros(32, 10);
        model.train_design(&design, &quick_config());
    }

    #[test]
    fn continued_training_from_flat_improves() {
        // Simulates the FL pattern: download global weights, train locally.
        let ds = SyntheticDigits::small().generate(6);
        let mut global = LogisticModel::zeros(ds.num_features(), ds.num_classes);
        global.train(
            &ds,
            &TrainConfig {
                epochs: 5,
                ..quick_config()
            },
        );
        let mut local =
            LogisticModel::from_flat(&global.to_flat(), ds.num_features(), ds.num_classes);
        let before = local.log_loss(&ds);
        local.train(
            &ds,
            &TrainConfig {
                epochs: 20,
                ..quick_config()
            },
        );
        assert!(local.log_loss(&ds) < before);
    }
}

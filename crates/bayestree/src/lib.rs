//! # The Bayes tree: index-based anytime stream classification
//!
//! This crate is the core of the reproduction of *"Using Index Structures for
//! Anytime Stream Mining"* (Kranen, VLDB 2009): the **Bayes tree**, an
//! R*-tree–style index whose directory entries aggregate cluster features so
//! that every frontier of the tree is a complete Gaussian mixture model of
//! the training data.  Refining the frontier one node at a time turns
//! Bayesian kernel-density classification into an *anytime* algorithm.
//!
//! The arena, descent and split machinery lives in the shared
//! [`bt_anytree`] core (the same core the clustering extension builds on);
//! this crate instantiates it with the [`KernelSummary`] payload and adds
//! everything classification-specific: frontiers, descent strategies, the
//! qbk scheduler and the bulk loaders.
//!
//! The main entry points are:
//!
//! * [`tree::BayesTree`] — the index itself (incremental insertion via
//!   [`insert`], bulk construction via [`bulk`]),
//! * [`frontier::TreeFrontier`] — the anytime probability density query
//!   (Definition 3) with the descent strategies of Section 2.2, a thin
//!   instantiation of the shared query engine in [`bt_anytree::query`],
//! * [`query::KernelQueryModel`] — the kernel-density query model behind
//!   the frontier: budget-bracketed density queries with certain
//!   `[lower, upper]` bounds ([`BayesTree::anytime_density`]) and the
//!   insert-free anytime outlier scoring workload
//!   ([`BayesTree::outlier_score`]); [`ShardedBayesTree`] refines per-shard
//!   frontiers in parallel and folds them into one global mixture.  Both
//!   handles snapshot to the one [`BayesTreeSnapshot`] type (one pinned
//!   shard per live shard), and every density and outlier read goes
//!   through [`bt_anytree::ShardSet`], a plain tree being the one-shard
//!   case,
//! * [`classifier::AnytimeClassifier`] — one tree per class, the qbk
//!   refinement strategy and budgeted classification,
//! * [`bulk`] — the bulk-loading strategies of Section 3 (Hilbert, Z-curve,
//!   STR, Goldberger, EM top-down) and the iterative baseline,
//! * [`multiclass::SingleTreeClassifier`] — the single-tree multi-class
//!   variant sketched as future work in Section 4.1.
//!
//! ## Stored precision
//!
//! [`BayesTree`] (and [`ShardedBayesTree`], and [`BayesTreeSnapshot`]) carry a
//! stored-precision parameter `E` defaulting to `f64`.  [`BayesTreeF32`]
//! stores every directory summary — CF linear/squared sums and MBR corners —
//! as `f32`, halving the resident bytes per entry and the memory bandwidth
//! of the block-scoring hot path.  [`BayesTreeQuantized`] goes further:
//! CF components become 16-bit mantissas against a shared per-summary
//! block exponent and MBR corners become outward-rounded 16-bit floats,
//! roughly quadrupling the directory fanout per page relative to `f64`.
//! In every mode all accumulation stays `f64` and is quantised on write;
//! MBR corners round *outward* so the stored boxes always enclose the
//! exact ones and the certified `[lower, upper]` density intervals remain
//! sound (leaf kernels are exact `f64` in all modes, so a fully refined
//! answer is exact regardless of stored precision).  See
//! [`node::StoredElement`] for the contract and `docs/PERF.md` for measured
//! effects.
//!
//! ## Observability
//!
//! Every [`BayesTree`] inherits the `bt-obs` instrumentation of the shared
//! core for free: inserts, anytime queries, outlier certifications and
//! snapshot refreshes record `bt_*` counters and histograms into the
//! process-global registry at batch/query boundaries (including the
//! per-round refinement trace behind the paper's quality-over-time curve),
//! with nothing added to the hot loops.  [`ShardedBayesTree`] buffers per
//! shard and folds at the query boundary.  See `docs/OBSERVABILITY.md` for
//! the catalogue, switches and cost contract.
//!
//! ```
//! use bayestree::{AnytimeClassifier, ClassifierConfig};
//! use bt_data::synth::blobs::BlobConfig;
//!
//! let data = BlobConfig::new(3, 4).samples_per_class(60).seed(1).generate();
//! let (train, test) = data.split_holdout(0.25, 7);
//! let classifier = AnytimeClassifier::train(&train, &ClassifierConfig::default());
//!
//! // Interrupt after 15 node reads — the hallmark of an anytime algorithm is
//! // that any budget yields a usable answer.
//! let result = classifier.classify_with_budget(test.feature(0), 15);
//! assert!(result.label < 3);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod bulk;
pub mod classifier;
pub mod descent;
pub mod frontier;
pub mod insert;
pub mod multiclass;
pub mod node;
pub mod pdq;
pub mod qbk;
pub mod query;
pub mod sharded;
pub mod tree;
pub mod view;

pub use bulk::{build_tree, BulkLoadMethod};
pub use classifier::{AnytimeClassifier, AnytimeTrace, Classification, ClassifierConfig};
pub use descent::{DescentStrategy, PriorityMeasure};
pub use frontier::{FrontierElement, TreeFrontier};
pub use multiclass::{SingleTreeClassifier, SingleTreeConfig};
pub use node::{
    Entry, KernelSummary, Node, NodeId, NodeKind, Quantized, QuantizedSummary, StoredElement,
    StoredScalar, StoredSummary,
};
pub use qbk::{RefinementScheduler, RefinementStrategy};
pub use query::{summary_mixture_term, KernelQueryModel};
pub use sharded::ShardedBayesTree;
pub use tree::BayesTree;
pub use view::{BayesTreeSnapshot, ClassifierSnapshot};

/// A Bayes tree whose stored summaries (CF sums, MBR corners) are quantised
/// to `f32` — half the resident bytes per directory entry; all accumulation
/// and every leaf kernel stay `f64`.  See the [crate docs](self) for the
/// precision contract.
pub type BayesTreeF32 = BayesTree<f32>;

/// The epoch-pinned snapshot of a [`BayesTreeF32`].
pub type BayesTreeF32Snapshot = BayesTreeSnapshot<f32>;

/// A Bayes tree whose stored summaries are block-exponent quantised: CF
/// linear/squared sums as 16-bit mantissas against a shared per-summary
/// power-of-two step, MBR corners as outward-rounded 16-bit floats.  A
/// directory entry shrinks from 520 bytes (`f64`, dims = 16) to 136,
/// roughly quadrupling fanout per 4 KiB page.  Bounds stay certified: the
/// stored boxes enclose the exact ones and gathers decode to full-width
/// `f64` columns, so the block kernels are untouched.  See the
/// [crate docs](self) for the precision contract.
pub type BayesTreeQuantized = BayesTree<Quantized>;

/// The epoch-pinned snapshot of a [`BayesTreeQuantized`].
pub type BayesTreeQuantizedSnapshot = BayesTreeSnapshot<Quantized>;

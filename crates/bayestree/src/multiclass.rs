//! Single-tree multi-class variant (Section 4.1).
//!
//! Instead of one Bayes tree per class, the complete training data is stored
//! in a *single* tree whose entries additionally record how many objects of
//! each class live in their subtree.  A single descent then refines the
//! models of several classes in parallel: every node read sharpens the
//! class-conditional density of every class present in that subtree.
//!
//! Following the "variance pooling" option discussed in the paper, an entry
//! stores one cluster feature over all objects of its subtree (so all classes
//! share the entry's Gaussian shape) plus a per-class object count that
//! splits the entry's weight across the classes.  Leaf observations keep
//! their individual labels, so a fully refined frontier is exactly the same
//! per-class kernel density model the per-class forest converges to.
//!
//! Like the plain Bayes tree and the clustering extension, the structure is
//! an instantiation of the shared [`bt_anytree`] core — here with a
//! label-aware payload (a per-class cluster-feature summary) and
//! `(point, label)` leaf items.

use crate::descent::{DescentStrategy, PriorityMeasure};
use bt_anytree::{AnytimeTree, InsertModel, Node, NodeKind, Summary};
use bt_data::Dataset;
use bt_index::rstar::rstar_split;
use bt_index::{Mbr, PageGeometry};
use bt_stats::bandwidth::silverman_bandwidth;
use bt_stats::kernel::{GaussianKernel, Kernel};
use bt_stats::ClusterFeature;

/// Arena index of a node in the single multi-class tree.
type McNodeId = bt_anytree::NodeId;

/// A labelled observation stored at leaf level.
type McPoint = (Vec<f64>, usize);

/// The single tree's payload: pooled MBR + CF plus per-class counts.
#[derive(Debug, Clone)]
struct LabeledSummary {
    mbr: Mbr,
    cf: ClusterFeature,
    class_counts: Vec<f64>,
}

impl LabeledSummary {
    fn absorb(&mut self, point: &[f64], label: usize) {
        self.mbr.extend_point(point);
        self.cf.insert(point);
        self.class_counts[label] += 1.0;
    }

    fn from_labeled_points(points: &[McPoint], dims: usize, num_classes: usize) -> Self {
        let mbr = Mbr::from_points(points.iter().map(|(p, _)| p.as_slice()))
            .expect("cannot summarise an empty node");
        let cf = ClusterFeature::from_points(points.iter().map(|(p, _)| p.as_slice()), dims);
        let mut class_counts = vec![0.0; num_classes];
        for (_, l) in points {
            class_counts[*l] += 1.0;
        }
        Self {
            mbr,
            cf,
            class_counts,
        }
    }
}

impl Summary for LabeledSummary {
    type Ctx = ();
    const MBR_ROUTED: bool = true;

    fn merge(&mut self, other: &Self, _ctx: ()) {
        self.mbr.extend_mbr(&other.mbr);
        self.cf.merge(&other.cf);
        for (acc, c) in self.class_counts.iter_mut().zip(&other.class_counts) {
            *acc += c;
        }
    }

    fn weight(&self) -> f64 {
        self.cf.weight()
    }

    fn sq_dist_to(&self, point: &[f64]) -> f64 {
        self.mbr.min_dist_sq(point)
    }

    fn center(&self) -> Vec<f64> {
        self.cf.mean()
    }

    fn as_mbr(&self) -> Option<&Mbr> {
        Some(&self.mbr)
    }
}

type McEntry = bt_anytree::Entry<LabeledSummary>;

/// The label-aware insertion policy over the shared core.
struct LabeledModel {
    dims: usize,
    num_classes: usize,
}

impl InsertModel<LabeledSummary> for LabeledModel {
    type Object = McPoint;
    type LeafItem = McPoint;

    fn ctx(&self) {}

    fn route_point<'a>(&self, obj: &'a McPoint, _scratch: &'a mut Vec<f64>) -> &'a [f64] {
        &obj.0
    }

    fn summary_of(&self, obj: &McPoint) -> LabeledSummary {
        let mut class_counts = vec![0.0; self.num_classes];
        class_counts[obj.1] = 1.0;
        LabeledSummary {
            mbr: Mbr::from_point(&obj.0),
            cf: ClusterFeature::from_point(&obj.0),
            class_counts,
        }
    }

    fn absorb_into(&self, summary: &mut LabeledSummary, obj: &McPoint) {
        summary.absorb(&obj.0, obj.1);
    }

    fn insert_into_leaf(&mut self, items: &mut Vec<McPoint>, obj: McPoint) {
        items.push(obj);
    }

    fn summarize_leaf_items(&self, items: &[McPoint]) -> LabeledSummary {
        LabeledSummary::from_labeled_points(items, self.dims, self.num_classes)
    }

    fn split_leaf_items(
        &self,
        items: Vec<McPoint>,
        geometry: &PageGeometry,
    ) -> (Vec<McPoint>, Vec<McPoint>) {
        let mbrs: Vec<Mbr> = items.iter().map(|(p, _)| Mbr::from_point(p)).collect();
        let min = geometry.min_leaf.min(items.len() / 2).max(1);
        let split = rstar_split(&mbrs, min);
        bt_anytree::distribute(items, &split.first, &split.second)
    }
}

/// Configuration of the single-tree classifier.
#[derive(Debug, Clone, Default)]
pub struct SingleTreeConfig {
    /// Fanout / leaf-capacity parameters; `None` derives them from a 4 KiB
    /// page.
    pub geometry: Option<PageGeometry>,
    /// Descent strategy for the single shared frontier.
    pub descent: DescentStrategy,
    /// Whether the descent priority additionally weighs an entry by the
    /// entropy of its class distribution (the paper's open question: "is it
    /// favorable to include the class distribution into the decision?").
    pub entropy_weighted_descent: bool,
}

/// The single-tree multi-class anytime classifier of Section 4.1.
#[derive(Debug, Clone)]
pub struct SingleTreeClassifier {
    core: AnytimeTree<LabeledSummary, McPoint>,
    num_classes: usize,
    class_totals: Vec<f64>,
    priors: Vec<f64>,
    bandwidth: Vec<f64>,
    config: SingleTreeConfig,
}

impl SingleTreeClassifier {
    /// Trains the classifier by iteratively inserting the whole data set into
    /// one shared tree (a batch size of 1 over
    /// [`Self::train_batched`] — observably the same construction).
    ///
    /// # Panics
    ///
    /// Panics if the data set is empty.
    #[must_use]
    pub fn train(dataset: &Dataset, config: &SingleTreeConfig) -> Self {
        Self::train_batched(dataset, config, 1)
    }

    /// Trains the classifier by inserting the data set in mini-batches of
    /// `batch_size` through the shared core's batched descent engine
    /// ([`bt_anytree::descent`]): each visited node refreshes its summaries
    /// once per batch and splits once after the batch drains.  A batch size
    /// of 1 builds exactly the tree [`Self::train`] builds.
    ///
    /// # Panics
    ///
    /// Panics if the data set is empty or `batch_size == 0`.
    #[must_use]
    pub fn train_batched(dataset: &Dataset, config: &SingleTreeConfig, batch_size: usize) -> Self {
        assert!(!dataset.is_empty(), "cannot train on an empty data set");
        assert!(batch_size > 0, "batch size must be positive");
        let dims = dataset.dims();
        let geometry = config
            .geometry
            .unwrap_or_else(|| PageGeometry::default_for_dims(dims));
        let mut clf = Self {
            core: AnytimeTree::new(dims, geometry),
            num_classes: dataset.num_classes(),
            class_totals: vec![0.0; dataset.num_classes()],
            priors: dataset.class_priors(),
            bandwidth: silverman_bandwidth(dataset.features(), dims),
            config: config.clone(),
        };
        let n = dataset.len();
        let mut start = 0;
        while start < n {
            let end = (start + batch_size).min(n);
            let chunk: Vec<McPoint> = (start..end)
                .map(|i| (dataset.feature(i).to_vec(), dataset.label(i)))
                .collect();
            clf.insert_batch(chunk);
            start = end;
        }
        clf
    }

    /// Number of stored observations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.class_totals.iter().sum::<f64>() as usize
    }

    /// Whether the classifier holds no observations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of classes.
    #[must_use]
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Inserts one labelled observation (online learning).
    ///
    /// # Panics
    ///
    /// Panics if the label is out of range or the point has the wrong
    /// dimensionality.
    pub fn insert(&mut self, point: Vec<f64>, label: usize) {
        assert!(label < self.num_classes, "label out of range");
        assert_eq!(
            point.len(),
            self.core.dims(),
            "point dimensionality mismatch"
        );
        let mut model = LabeledModel {
            dims: self.core.dims(),
            num_classes: self.num_classes,
        };
        let _ = self.core.insert(&mut model, (point, label), usize::MAX);
        self.class_totals[label] += 1.0;
        self.refresh_priors();
    }

    /// Inserts a mini-batch of labelled observations through the core's
    /// batched descent engine, sharing summary refreshes and split handling
    /// across the batch.
    ///
    /// # Panics
    ///
    /// Panics if any label is out of range or any point has the wrong
    /// dimensionality.
    pub fn insert_batch(&mut self, batch: Vec<(Vec<f64>, usize)>) {
        let dims = self.core.dims();
        assert!(
            batch.iter().all(|(p, _)| p.len() == dims),
            "point dimensionality mismatch"
        );
        assert!(
            batch.iter().all(|(_, l)| *l < self.num_classes),
            "label out of range"
        );
        let mut model = LabeledModel {
            dims,
            num_classes: self.num_classes,
        };
        for (_, label) in &batch {
            self.class_totals[*label] += 1.0;
        }
        let _ = self.core.insert_batch(&mut model, batch, usize::MAX);
        self.refresh_priors();
    }

    fn refresh_priors(&mut self) {
        let total: f64 = self.class_totals.iter().sum();
        for (p, &c) in self.priors.iter_mut().zip(&self.class_totals) {
            *p = c / total;
        }
    }

    /// Classifies `x` with a budget of `budget` node reads on the single
    /// shared frontier.
    #[must_use]
    pub fn classify_with_budget(&self, x: &[f64], budget: usize) -> crate::Classification {
        let labels = self.anytime_labels(x, budget, false);
        crate::Classification {
            label: labels.1,
            posteriors: labels.2,
            nodes_read: labels.0,
        }
    }

    /// The decision after every node read up to `max_nodes`.
    #[must_use]
    pub fn anytime_trace(&self, x: &[f64], max_nodes: usize) -> Vec<usize> {
        self.anytime_labels(x, max_nodes, true).3
    }

    fn anytime_labels(
        &self,
        x: &[f64],
        budget: usize,
        record: bool,
    ) -> (usize, usize, Vec<f64>, Vec<usize>) {
        assert_eq!(x.len(), self.core.dims(), "query dimensionality mismatch");
        let mut frontier = McFrontier::new(self, x);
        let mut trace = Vec::new();
        let mut posteriors = frontier.posteriors();
        if record {
            trace.push(argmax(&posteriors));
        }
        let mut reads = 0usize;
        for _ in 0..budget {
            if !frontier.refine() {
                break;
            }
            reads += 1;
            posteriors = frontier.posteriors();
            if record {
                trace.push(argmax(&posteriors));
            }
        }
        (reads, argmax(&posteriors), posteriors, trace)
    }

    fn node(&self, id: McNodeId) -> &Node<LabeledSummary, McPoint> {
        self.core.node(id)
    }

    /// The entry describing `child` (used for the synthetic root entry of a
    /// leaf-rooted tree).
    fn summarise(&self, child: McNodeId) -> McEntry {
        let model = LabeledModel {
            dims: self.core.dims(),
            num_classes: self.num_classes,
        };
        self.core.summarize_node(&model, child)
    }
}

/// One element of the shared multi-class frontier: per-class density
/// contributions plus the refinement metadata.
struct McElement {
    child: Option<McNodeId>,
    per_class: Vec<f64>,
    total_contribution: f64,
    entropy: f64,
    min_dist_sq: f64,
    depth: usize,
    seq: u64,
}

struct McFrontier<'a> {
    clf: &'a SingleTreeClassifier,
    query: Vec<f64>,
    elements: Vec<McElement>,
    per_class_density: Vec<f64>,
    next_seq: u64,
}

impl<'a> McFrontier<'a> {
    fn new(clf: &'a SingleTreeClassifier, query: &[f64]) -> Self {
        let mut f = Self {
            clf,
            query: query.to_vec(),
            elements: Vec::new(),
            per_class_density: vec![0.0; clf.num_classes],
            next_seq: 0,
        };
        let root = clf.core.root();
        match &clf.node(root).kind {
            NodeKind::Inner { entries } => {
                for entry in entries {
                    f.push_entry_value(entry, 1);
                }
            }
            NodeKind::Leaf { items } => {
                if !items.is_empty() {
                    // Synthetic root entry over the leaf root.
                    let entry = clf.summarise(root);
                    f.push_entry_value(&entry, 1);
                }
            }
        }
        f
    }

    fn posteriors(&self) -> Vec<f64> {
        let joint: Vec<f64> = self
            .per_class_density
            .iter()
            .zip(&self.clf.priors)
            .map(|(d, p)| d.max(0.0) * p)
            .collect();
        let total: f64 = joint.iter().sum();
        if total > 0.0 {
            joint.iter().map(|j| j / total).collect()
        } else {
            self.clf.priors.clone()
        }
    }

    fn refine(&mut self) -> bool {
        let Some(idx) = self.select() else {
            return false;
        };
        let element = self.elements.swap_remove(idx);
        for (acc, c) in self.per_class_density.iter_mut().zip(&element.per_class) {
            *acc -= c;
        }
        let child = element.child.expect("selected element is refinable");
        let depth = element.depth + 1;
        match &self.clf.node(child).kind {
            NodeKind::Inner { entries } => {
                for i in 0..entries.len() {
                    self.push_entry(child, i, depth);
                }
            }
            NodeKind::Leaf { items } => {
                for (p, l) in items {
                    self.push_kernel(p, *l, depth);
                }
            }
        }
        true
    }

    fn select(&self) -> Option<usize> {
        let refinable = self
            .elements
            .iter()
            .enumerate()
            .filter(|(_, e)| e.child.is_some());
        let entropy_weight = self.clf.config.entropy_weighted_descent;
        match self.clf.config.descent {
            DescentStrategy::BreadthFirst => refinable
                .min_by(|(_, a), (_, b)| a.depth.cmp(&b.depth).then(a.seq.cmp(&b.seq)))
                .map(|(i, _)| i),
            DescentStrategy::DepthFirst => refinable
                .max_by(|(_, a), (_, b)| a.depth.cmp(&b.depth).then(a.seq.cmp(&b.seq)))
                .map(|(i, _)| i),
            DescentStrategy::GlobalBest(PriorityMeasure::Geometric) => refinable
                .min_by(|(_, a), (_, b)| {
                    a.min_dist_sq
                        .partial_cmp(&b.min_dist_sq)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|(i, _)| i),
            DescentStrategy::GlobalBest(PriorityMeasure::Probabilistic) => refinable
                .max_by(|(_, a), (_, b)| {
                    let pa =
                        a.total_contribution * if entropy_weight { 1.0 + a.entropy } else { 1.0 };
                    let pb =
                        b.total_contribution * if entropy_weight { 1.0 + b.entropy } else { 1.0 };
                    pa.partial_cmp(&pb).unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|(i, _)| i),
        }
    }

    fn push_entry(&mut self, node: McNodeId, entry_idx: usize, depth: usize) {
        let NodeKind::Inner { entries } = &self.clf.node(node).kind else {
            unreachable!("push_entry called for a leaf node");
        };
        let entry = entries[entry_idx].clone();
        self.push_entry_value(&entry, depth);
    }

    fn push_entry_value(&mut self, entry: &McEntry, depth: usize) {
        let gaussian = entry.cf.to_gaussian();
        let g = gaussian.pdf(&self.query);
        let per_class: Vec<f64> = entry
            .class_counts
            .iter()
            .zip(&self.clf.class_totals)
            .map(|(count, total)| if *total > 0.0 { count / total * g } else { 0.0 })
            .collect();
        let total_contribution: f64 = per_class
            .iter()
            .zip(&self.clf.priors)
            .map(|(d, p)| d * p)
            .sum();
        for (acc, c) in self.per_class_density.iter_mut().zip(&per_class) {
            *acc += c;
        }
        let entropy = class_entropy(&entry.class_counts);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.elements.push(McElement {
            child: Some(entry.child),
            per_class,
            total_contribution,
            entropy,
            min_dist_sq: entry.mbr.min_dist_sq(&self.query),
            depth,
            seq,
        });
    }

    fn push_kernel(&mut self, point: &[f64], label: usize, depth: usize) {
        let kernel = GaussianKernel;
        let density = kernel.density(point, &self.query, &self.clf.bandwidth);
        let mut per_class = vec![0.0; self.clf.num_classes];
        if self.clf.class_totals[label] > 0.0 {
            per_class[label] = density / self.clf.class_totals[label];
        }
        let total_contribution = per_class[label] * self.clf.priors[label];
        self.per_class_density[label] += per_class[label];
        let min_dist_sq: f64 = point
            .iter()
            .zip(&self.query)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        let seq = self.next_seq;
        self.next_seq += 1;
        self.elements.push(McElement {
            child: None,
            per_class,
            total_contribution,
            entropy: 0.0,
            min_dist_sq,
            depth,
            seq,
        });
    }
}

/// Shannon entropy (in nats) of a count vector, used by the
/// entropy-weighted descent option.
fn class_entropy(counts: &[f64]) -> f64 {
    let total: f64 = counts.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    counts
        .iter()
        .filter(|&&c| c > 0.0)
        .map(|&c| {
            let p = c / total;
            -p * p.ln()
        })
        .sum()
}

fn argmax(values: &[f64]) -> usize {
    let mut best = 0;
    let mut best_v = f64::NEG_INFINITY;
    for (i, &v) in values.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_data::synth::blobs::BlobConfig;

    fn dataset() -> Dataset {
        BlobConfig::new(3, 4)
            .samples_per_class(70)
            .seed(21)
            .generate()
    }

    #[test]
    fn training_stores_every_observation() {
        let data = dataset();
        let clf = SingleTreeClassifier::train(&data, &SingleTreeConfig::default());
        assert_eq!(clf.len(), data.len());
        assert_eq!(clf.num_classes(), 3);
    }

    #[test]
    fn classification_is_accurate_on_easy_data() {
        let data = dataset();
        let (train, test) = data.split_holdout(0.3, 5);
        let clf = SingleTreeClassifier::train(&train, &SingleTreeConfig::default());
        let mut correct = 0;
        for (x, &y) in test.iter() {
            if clf.classify_with_budget(x, 20).label == y {
                correct += 1;
            }
        }
        let acc = correct as f64 / test.len() as f64;
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn posteriors_are_normalised() {
        let data = dataset();
        let clf = SingleTreeClassifier::train(&data, &SingleTreeConfig::default());
        let c = clf.classify_with_budget(data.feature(0), 10);
        let sum: f64 = c.posteriors.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn trace_starts_at_root_model() {
        let data = dataset();
        let clf = SingleTreeClassifier::train(&data, &SingleTreeConfig::default());
        let trace = clf.anytime_trace(data.feature(1), 12);
        assert!(!trace.is_empty());
        assert!(trace.len() <= 13);
    }

    #[test]
    fn entropy_weighted_descent_still_classifies() {
        let data = dataset();
        let (train, test) = data.split_holdout(0.3, 6);
        let config = SingleTreeConfig {
            entropy_weighted_descent: true,
            ..SingleTreeConfig::default()
        };
        let clf = SingleTreeClassifier::train(&train, &config);
        let mut correct = 0;
        for (x, &y) in test.iter() {
            if clf.classify_with_budget(x, 20).label == y {
                correct += 1;
            }
        }
        assert!(correct as f64 / test.len() as f64 > 0.8);
    }

    #[test]
    fn online_insert_updates_priors() {
        let data = dataset();
        let mut clf = SingleTreeClassifier::train(&data, &SingleTreeConfig::default());
        for _ in 0..50 {
            clf.insert(data.feature(0).to_vec(), 2);
        }
        assert!(clf.priors[2] > 1.0 / 3.0);
    }

    #[test]
    fn class_entropy_is_zero_for_pure_nodes() {
        assert_eq!(class_entropy(&[5.0, 0.0, 0.0]), 0.0);
        assert!(class_entropy(&[5.0, 5.0]) > 0.6);
    }

    #[test]
    fn batched_training_with_batch_size_one_matches_sequential() {
        let data = dataset();
        let sequential = SingleTreeClassifier::train(&data, &SingleTreeConfig::default());
        let batched = SingleTreeClassifier::train_batched(&data, &SingleTreeConfig::default(), 1);
        assert_eq!(sequential.len(), batched.len());
        for i in [0usize, 7, 19] {
            let a = sequential.classify_with_budget(data.feature(i), 15);
            let b = batched.classify_with_budget(data.feature(i), 15);
            assert_eq!(a.label, b.label);
            for (pa, pb) in a.posteriors.iter().zip(&b.posteriors) {
                assert!((pa - pb).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn batched_training_classifies_accurately() {
        let data = dataset();
        let (train, test) = data.split_holdout(0.3, 5);
        let clf = SingleTreeClassifier::train_batched(&train, &SingleTreeConfig::default(), 16);
        let mut correct = 0;
        for (x, &y) in test.iter() {
            if clf.classify_with_budget(x, 20).label == y {
                correct += 1;
            }
        }
        let acc = correct as f64 / test.len() as f64;
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn single_tree_converges_to_per_class_kernel_model() {
        // With an unbounded budget the single-tree frontier refines to the
        // exact per-class kernel densities, so the decision must match a
        // direct kernel-density classification.
        let data = dataset();
        let clf = SingleTreeClassifier::train(&data, &SingleTreeConfig::default());
        let c = clf.classify_with_budget(data.feature(5), usize::MAX);
        assert!(c.posteriors[c.label] >= 1.0 / 3.0 - 1e-9);
    }
}

//! Template-interned planning artifacts.
//!
//! A serve stream typically round-robins a handful of application
//! *templates*: submissions whose DAG structure — RDD partition counts,
//! block sizes, compute costs, storage levels, lineage, and action targets —
//! is identical, differing only in which tenant submits them and at what
//! offset their RDD ids land in the global id space. Planning
//! ([`AppPlan::build`]) and reference analysis ([`RefAnalyzer::profile`])
//! depend only on that structure, so their results can be computed once per
//! distinct template and shared by every repeat submission.
//!
//! [`TemplateCache`] memoizes the local-space `(Arc<AppPlan>,
//! Arc<AppProfile>)` pair per structural identity. Lookups hash the spec's
//! structure directly (no key allocation on the hit path) and confirm
//! candidates with a full structural comparison, so a 64-bit hash collision
//! can never alias two different templates. Human-readable names — the
//! spec's and each RDD's — are deliberately **not** part of the identity:
//! they do not appear in the memoized artifacts (reports take the app name
//! from the spec at hand, and the engine splices RDD names from the spec at
//! admission). Action names *are* part of the identity, because they land
//! in [`JobPlan::action`](crate::plan::JobPlan) inside the cached plan.
//!
//! The cached artifacts stay in *local* RddId space (ids `0..spec.rdds.len()`
//! as the template's own builder assigned them). Per-submission global-space
//! ids never recycle across a stream — only slot ranges do — so caching any
//! rebased form would miss every time; instead the rebase itself is cheap:
//! [`remap_plan`](crate::tenant::remap_plan) /
//! [`remap_profile`](crate::tenant::remap_profile) share the stage/job/refs
//! spines via `Arc` and copy only the id-bearing parts.

use crate::analyze::{AppProfile, RefAnalyzer};
use crate::app::AppSpec;
use crate::plan::AppPlan;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The memoized local-space planning artifacts of one template.
#[derive(Debug)]
pub struct PlannedTemplate {
    /// The template's plan, in local RddId space.
    pub plan: Arc<AppPlan>,
    /// The template's reference profile, in local RddId space.
    pub profile: Arc<AppProfile>,
}

impl PlannedTemplate {
    /// Plan and profile a spec from scratch (the cache-miss path, also the
    /// cold baseline the `admission` bench measures against).
    pub fn build(spec: &AppSpec) -> PlannedTemplate {
        let plan = Arc::new(AppPlan::build(spec));
        let profile = Arc::new(RefAnalyzer::new(spec, &plan).profile());
        PlannedTemplate { plan, profile }
    }
}

/// Hash the structural identity of a spec: everything planning and analysis
/// read, nothing they do not (spec name, RDD names).
fn structural_hash(spec: &AppSpec) -> u64 {
    let mut h = DefaultHasher::new();
    spec.rdds.len().hash(&mut h);
    for r in &spec.rdds {
        r.num_partitions.hash(&mut h);
        r.block_size.hash(&mut h);
        r.compute_us.hash(&mut h);
        (r.storage as u8).hash(&mut h);
        r.deps.len().hash(&mut h);
        for d in &r.deps {
            d.is_shuffle().hash(&mut h);
            d.parent().0.hash(&mut h);
        }
    }
    spec.actions.len().hash(&mut h);
    for a in &spec.actions {
        a.target.0.hash(&mut h);
        a.name.hash(&mut h);
    }
    h.finish()
}

/// Full structural comparison backing the hash: two specs are the same
/// template iff planning and analysis would produce identical artifacts.
fn structurally_eq(a: &AppSpec, b: &AppSpec) -> bool {
    a.rdds.len() == b.rdds.len()
        && a.actions.len() == b.actions.len()
        && a.rdds.iter().zip(&b.rdds).all(|(x, y)| {
            x.num_partitions == y.num_partitions
                && x.block_size == y.block_size
                && x.compute_us == y.compute_us
                && x.storage == y.storage
                && x.deps == y.deps
        })
        && a.actions
            .iter()
            .zip(&b.actions)
            .all(|(x, y)| x.target == y.target && x.name == y.name)
}

/// Memoizes per-template planning artifacts by structural spec identity.
///
/// One cache serves one stream; entries live for the stream's duration (a
/// stream draws from a fixed catalog of templates, so the cache is bounded
/// by the catalog size — the tier-1 smoke pins this).
#[derive(Debug, Default)]
pub struct TemplateCache {
    /// Hash buckets; each entry keeps the spec that created it so lookups
    /// confirm structural equality rather than trusting the 64-bit hash.
    buckets: HashMap<u64, Vec<(AppSpec, Arc<PlannedTemplate>)>>,
    entries: usize,
    hits: u64,
    misses: u64,
}

impl TemplateCache {
    /// An empty cache.
    pub fn new() -> TemplateCache {
        TemplateCache::default()
    }

    /// The planning artifacts for `spec`'s template, building them on first
    /// sight. Hits are O(spec) comparison with no allocation.
    pub fn intern(&mut self, spec: &AppSpec) -> Arc<PlannedTemplate> {
        let bucket = self.buckets.entry(structural_hash(spec)).or_default();
        if let Some((_, tpl)) = bucket.iter().find(|(s, _)| structurally_eq(s, spec)) {
            self.hits += 1;
            return Arc::clone(tpl);
        }
        self.misses += 1;
        self.entries += 1;
        let tpl = Arc::new(PlannedTemplate::build(spec));
        bucket.push((spec.clone(), Arc::clone(&tpl)));
        tpl
    }

    /// Number of distinct templates interned.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether no template has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Lookups that returned an existing entry.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to build a new entry.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppBuilder;
    use crate::rdd::StorageLevel;

    fn app(name: &str, iters: usize, block: u64) -> AppSpec {
        let mut b = AppBuilder::new(name);
        let input = b.input("in", 4, block, 1_000);
        let data = b.narrow("data", input, block, 2_000);
        b.persist(data, StorageLevel::MemoryAndDisk);
        for i in 0..iters {
            let agg = b.shuffle(format!("agg{i}"), &[data], 4, block / 8, 500);
            b.action(format!("job{i}"), agg);
        }
        b.build()
    }

    #[test]
    fn repeat_submissions_share_one_entry() {
        let mut cache = TemplateCache::new();
        let spec = app("a", 2, 1 << 10);
        let first = cache.intern(&spec);
        for _ in 0..10 {
            let again = cache.intern(&spec);
            assert!(Arc::ptr_eq(&first, &again));
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hits(), 10);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn names_do_not_split_templates_but_structure_does() {
        let mut cache = TemplateCache::new();
        let a = cache.intern(&app("alpha", 2, 1 << 10));
        // Different spec name, same structure: same template.
        let b = cache.intern(&app("beta", 2, 1 << 10));
        assert!(Arc::ptr_eq(&a, &b));
        // Different structure: new templates.
        cache.intern(&app("alpha", 3, 1 << 10));
        cache.intern(&app("alpha", 2, 1 << 11));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn action_names_are_part_of_the_identity() {
        // Action names are baked into JobPlan::action inside the cached
        // plan, so templates differing only there must not alias.
        let mk = |action: &str| {
            let mut b = AppBuilder::new("same");
            let input = b.input("in", 2, 64, 10);
            b.cache(input);
            b.action(action, input);
            b.build()
        };
        let mut cache = TemplateCache::new();
        let a = cache.intern(&mk("count"));
        let b = cache.intern(&mk("collect"));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.buckets.len(), 2, "hashes should differ too");
    }

    #[test]
    fn interned_artifacts_match_cold_build() {
        let spec = app("a", 3, 1 << 12);
        let cold = PlannedTemplate::build(&spec);
        let mut cache = TemplateCache::new();
        let hot = cache.intern(&spec);
        assert_eq!(format!("{:?}", cold.plan), format!("{:?}", hot.plan));
        assert_eq!(format!("{:?}", cold.profile), format!("{:?}", hot.profile));
    }

    #[test]
    fn hash_collisions_cannot_alias_templates() {
        // Force both entries into one bucket: even then, the structural
        // comparison keeps them apart.
        let x = app("x", 1, 1 << 10);
        let y = app("y", 2, 1 << 10);
        let mut cache = TemplateCache::new();
        let tx = cache.intern(&x);
        cache
            .buckets
            .entry(structural_hash(&y))
            .or_default()
            .clear();
        let moved = cache.buckets.remove(&structural_hash(&y));
        drop(moved);
        let h = structural_hash(&x);
        // Reinsert y's entry under x's hash bucket.
        let ty = Arc::new(PlannedTemplate::build(&y));
        cache
            .buckets
            .get_mut(&h)
            .unwrap()
            .push((y.clone(), Arc::clone(&ty)));
        let got_x = cache.intern(&x);
        assert!(Arc::ptr_eq(&tx, &got_x));
        let got_y = cache
            .buckets
            .get(&h)
            .unwrap()
            .iter()
            .find(|(s, _)| structurally_eq(s, &y))
            .map(|(_, t)| Arc::clone(t))
            .unwrap();
        assert!(Arc::ptr_eq(&ty, &got_y));
    }
}

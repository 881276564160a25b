//! Application specifications and the builder used by workload generators.
//!
//! An [`AppSpec`] is the static description of a user program: the RDD
//! lineage graph plus the ordered list of actions. It corresponds to what a
//! Spark driver program *would* produce; the DAGScheduler model in
//! [`crate::plan`] turns it into jobs and stages.

use crate::ids::{JobId, RddId};
use crate::rdd::{Dependency, Rdd, StorageLevel};

/// An action on an RDD (e.g. `count`, `collect`). Each action triggers one
/// job.
#[derive(Debug, Clone)]
pub struct Action {
    /// The RDD the action is applied to.
    pub target: RddId,
    /// Descriptive name, for reports.
    pub name: String,
}

/// A complete application: lineage graph plus actions.
#[derive(Debug, Clone)]
pub struct AppSpec {
    /// Application name (doubles as the recurring-profile key).
    pub name: String,
    /// RDDs, indexed by `RddId`.
    pub rdds: Vec<Rdd>,
    /// Actions in submission order; index is the `JobId`.
    pub actions: Vec<Action>,
}

impl AppSpec {
    /// Look up an RDD.
    #[inline]
    pub fn rdd(&self, id: RddId) -> &Rdd {
        &self.rdds[id.index()]
    }

    /// All RDDs the program marked cached.
    pub fn cached_rdds(&self) -> impl Iterator<Item = &Rdd> {
        self.rdds.iter().filter(|r| r.is_cached())
    }

    /// Number of jobs the application will submit.
    #[inline]
    pub fn num_jobs(&self) -> usize {
        self.actions.len()
    }

    /// Total bytes of input RDDs (the paper's "Data Input Size").
    pub fn input_bytes(&self) -> u64 {
        self.rdds
            .iter()
            .filter(|r| r.is_input())
            .map(|r| r.total_size())
            .sum()
    }

    /// Validate structural invariants; used by the builder and by property
    /// tests on generated workloads.
    pub fn validate(&self) -> Result<(), String> {
        for (i, r) in self.rdds.iter().enumerate() {
            if r.id.index() != i {
                return Err(format!("rdd at index {i} has id {}", r.id));
            }
            if r.num_partitions == 0 {
                return Err(format!("{} has zero partitions", r.name));
            }
            for d in &r.deps {
                let p = d.parent();
                if p.index() >= i {
                    return Err(format!(
                        "{} depends on {} which is not an earlier RDD (cycle or forward ref)",
                        r.name, p
                    ));
                }
                if !d.is_shuffle() {
                    let pp = self.rdd(p).num_partitions;
                    if pp != r.num_partitions {
                        return Err(format!(
                            "narrow dep {} ({} parts) -> {} ({} parts) must preserve partitioning",
                            self.rdd(p).name,
                            pp,
                            r.name,
                            r.num_partitions
                        ));
                    }
                }
            }
        }
        if self.actions.is_empty() {
            return Err("application has no actions".into());
        }
        for a in &self.actions {
            if a.target.index() >= self.rdds.len() {
                return Err(format!("action {} targets unknown rdd", a.name));
            }
        }
        Ok(())
    }
}

/// Fluent builder for [`AppSpec`]; the API the workload generators (and the
/// examples) are written against. RDDs must be created parents-first, which
/// mirrors how a driver program executes and guarantees the lineage is
/// acyclic by construction.
#[derive(Debug)]
pub struct AppBuilder {
    name: String,
    rdds: Vec<Rdd>,
    actions: Vec<Action>,
}

impl AppBuilder {
    /// Start building an application.
    pub fn new(name: impl Into<String>) -> Self {
        AppBuilder {
            name: name.into(),
            rdds: Vec::new(),
            actions: Vec::new(),
        }
    }

    fn push(&mut self, mut rdd: Rdd) -> RddId {
        let id = RddId(self.rdds.len() as u32);
        rdd.id = id;
        self.rdds.push(rdd);
        id
    }

    /// An input RDD read from external storage.
    pub fn input(
        &mut self,
        name: impl Into<String>,
        partitions: u32,
        block_size: u64,
        compute_us: u64,
    ) -> RddId {
        self.push(Rdd {
            id: RddId(0),
            name: name.into(),
            num_partitions: partitions,
            block_size,
            compute_us,
            storage: StorageLevel::None,
            deps: vec![],
        })
    }

    /// A narrow transformation of one parent (map/filter/flatMap). Preserves
    /// the parent's partitioning.
    pub fn narrow(
        &mut self,
        name: impl Into<String>,
        parent: RddId,
        block_size: u64,
        compute_us: u64,
    ) -> RddId {
        let partitions = self.rdds[parent.index()].num_partitions;
        self.push(Rdd {
            id: RddId(0),
            name: name.into(),
            num_partitions: partitions,
            block_size,
            compute_us,
            storage: StorageLevel::None,
            deps: vec![Dependency::Narrow(parent)],
        })
    }

    /// A narrow transformation of several co-partitioned parents
    /// (zip, union of co-partitioned RDDs, co-partitioned join).
    ///
    /// # Panics
    /// Panics if `parents` is empty or their partition counts differ.
    pub fn narrow_multi(
        &mut self,
        name: impl Into<String>,
        parents: &[RddId],
        block_size: u64,
        compute_us: u64,
    ) -> RddId {
        assert!(
            !parents.is_empty(),
            "narrow_multi needs at least one parent"
        );
        let partitions = self.rdds[parents[0].index()].num_partitions;
        assert!(
            parents
                .iter()
                .all(|p| self.rdds[p.index()].num_partitions == partitions),
            "narrow_multi parents must be co-partitioned"
        );
        self.push(Rdd {
            id: RddId(0),
            name: name.into(),
            num_partitions: partitions,
            block_size,
            compute_us,
            storage: StorageLevel::None,
            deps: parents.iter().map(|&p| Dependency::Narrow(p)).collect(),
        })
    }

    /// A wide transformation (groupByKey, reduceByKey, join with shuffle).
    /// Forces a stage boundary below each parent.
    pub fn shuffle(
        &mut self,
        name: impl Into<String>,
        parents: &[RddId],
        partitions: u32,
        block_size: u64,
        compute_us: u64,
    ) -> RddId {
        assert!(!parents.is_empty(), "shuffle needs at least one parent");
        self.push(Rdd {
            id: RddId(0),
            name: name.into(),
            num_partitions: partitions,
            block_size,
            compute_us,
            storage: StorageLevel::None,
            deps: parents.iter().map(|&p| Dependency::Shuffle(p)).collect(),
        })
    }

    /// A join that shuffles one side and narrowly reads the other (common in
    /// Pregel-style graph programs where the vertex RDD keeps its
    /// partitioner).
    pub fn shuffle_join(
        &mut self,
        name: impl Into<String>,
        narrow_parent: RddId,
        shuffle_parent: RddId,
        block_size: u64,
        compute_us: u64,
    ) -> RddId {
        let partitions = self.rdds[narrow_parent.index()].num_partitions;
        self.push(Rdd {
            id: RddId(0),
            name: name.into(),
            num_partitions: partitions,
            block_size,
            compute_us,
            storage: StorageLevel::None,
            deps: vec![
                Dependency::Narrow(narrow_parent),
                Dependency::Shuffle(shuffle_parent),
            ],
        })
    }

    /// Mark `rdd` cached with the default level (`MemoryOnly`, Spark's
    /// `.cache()`).
    pub fn cache(&mut self, rdd: RddId) -> &mut Self {
        self.persist(rdd, StorageLevel::MemoryOnly)
    }

    /// Mark `rdd` persisted at `level`.
    pub fn persist(&mut self, rdd: RddId, level: StorageLevel) -> &mut Self {
        self.rdds[rdd.index()].storage = level;
        self
    }

    /// Submit an action on `rdd`, creating the next job.
    pub fn action(&mut self, name: impl Into<String>, rdd: RddId) -> JobId {
        let id = JobId(self.actions.len() as u32);
        self.actions.push(Action {
            target: rdd,
            name: name.into(),
        });
        id
    }

    /// Finish, validating the spec.
    ///
    /// # Panics
    /// Panics if the spec violates structural invariants — generators are
    /// trusted code and a malformed DAG is a programming error.
    pub fn build(self) -> AppSpec {
        let spec = AppSpec {
            name: self.name,
            rdds: self.rdds,
            actions: self.actions,
        };
        if let Err(e) = spec.validate() {
            panic!("invalid application spec `{}`: {e}", spec.name);
        }
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> AppSpec {
        // in -> a -> c(shuffle) ; in -> b -> c ; action on c
        let mut b = AppBuilder::new("diamond");
        let input = b.input("in", 4, 100, 10);
        let a = b.narrow("a", input, 100, 10);
        let bb = b.narrow("b", input, 100, 10);
        let c = b.shuffle("c", &[a, bb], 8, 50, 20);
        b.cache(c);
        b.action("count", c);
        b.build()
    }

    #[test]
    fn builder_assigns_sequential_ids() {
        let spec = diamond();
        for (i, r) in spec.rdds.iter().enumerate() {
            assert_eq!(r.id.index(), i);
        }
    }

    #[test]
    fn narrow_preserves_partitions() {
        let spec = diamond();
        assert_eq!(spec.rdd(RddId(1)).num_partitions, 4);
        assert_eq!(spec.rdd(RddId(3)).num_partitions, 8);
    }

    #[test]
    fn cache_sets_storage_level() {
        let spec = diamond();
        assert!(spec.rdd(RddId(3)).is_cached());
        assert!(!spec.rdd(RddId(0)).is_cached());
        assert_eq!(spec.cached_rdds().count(), 1);
    }

    #[test]
    fn input_bytes_sums_inputs_only() {
        let spec = diamond();
        assert_eq!(spec.input_bytes(), 400);
    }

    #[test]
    fn validate_rejects_forward_reference() {
        let spec = AppSpec {
            name: "bad".into(),
            rdds: vec![Rdd {
                id: RddId(0),
                name: "r".into(),
                num_partitions: 1,
                block_size: 1,
                compute_us: 1,
                storage: StorageLevel::None,
                deps: vec![Dependency::Narrow(RddId(0))], // self-dep
            }],
            actions: vec![Action {
                target: RddId(0),
                name: "count".into(),
            }],
        };
        assert!(spec.validate().is_err());
    }

    #[test]
    fn validate_rejects_no_actions() {
        let mut spec = diamond();
        spec.actions.clear();
        assert!(spec.validate().is_err());
    }

    #[test]
    fn validate_rejects_mismatched_narrow_partitions() {
        let mut spec = diamond();
        // Corrupt: make rdd1 narrow-depend on rdd0 but change its partitions.
        spec.rdds[1].num_partitions = 7;
        assert!(spec.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "co-partitioned")]
    fn narrow_multi_rejects_mispartitioned_parents() {
        let mut b = AppBuilder::new("x");
        let p1 = b.input("p1", 4, 1, 1);
        let p2 = b.input("p2", 8, 1, 1);
        b.narrow_multi("z", &[p1, p2], 1, 1);
    }

    #[test]
    fn shuffle_join_mixes_dep_kinds() {
        let mut b = AppBuilder::new("x");
        let v = b.input("vertices", 4, 1, 1);
        let m = b.input("messages", 8, 1, 1);
        let j = b.shuffle_join("joined", v, m, 1, 1);
        b.action("count", j);
        let spec = b.build();
        let deps = &spec.rdd(j).deps;
        assert_eq!(deps.len(), 2);
        assert!(!deps[0].is_shuffle());
        assert!(deps[1].is_shuffle());
        assert_eq!(spec.rdd(j).num_partitions, 4);
    }
}

//! Seeded property test of the `K′`-order split walk.
//!
//! Structural map tasks read each split instance by instance in `K′`
//! row-major order, so their emissions arrive key-sorted. For random
//! geometries — rank 1–4, strided and plain extraction shapes, query
//! regions with non-zero corners, aligned and `naive_linear` splits —
//! this checks that
//!
//! (a) the walk yields exactly the row-major reader's multiset of
//!     `(coord, value)`, `|Iᵢ|` records per split;
//! (b) `StructuralMapper` emissions are non-decreasing in every
//!     partition, under `partition+` and hash partitioning, with
//!     corner keys and with a push-down filter;
//! (c) `run_query` output is bit-identical (`f64::to_bits`) to a run
//!     that reads every split row-major, for Mean, Median, SortValues,
//!     Filter with push-down, and corner keys under hash partitioning.
//!
//! Every failure names its seed; `PROPTEST_CASES` widens the run.

use std::fmt;

use proptest::prelude::*;
use proptest::TestRng;
use sidr_coords::{Coord, Shape, Slab};
use sidr_core::framework::{generate_splits, run_query, FrameworkMode, RunOptions};
use sidr_core::operators::OperatorReducer;
use sidr_core::source::{
    ordered_source_factory, scinc_source_factory, ScincRecordSource, StructuralMapper,
};
use sidr_core::{Operator, SidrPlanner, StructuralQuery};
use sidr_mapreduce::{
    run_job, CoordHashPartitioner, DefaultPlan, InMemoryOutput, InputSplit, JobConfig, Mapper,
    RecordSource, RoutingPlan,
};
use sidr_scifile::gen::{DatasetSpec, ValueModel};
use sidr_scifile::ScincFile;

/// One random geometry.
struct Case {
    seed: u64,
    variable_space: Shape,
    query: StructuralQuery,
    mode: FrameworkMode,
    reducers: usize,
    split_bytes: u64,
}

impl fmt::Display for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let e = &self.query.extraction;
        write!(
            f,
            "seed {:#x}: variable {}, region {}, extraction {} stride {:?}, {} with {} reducers, \
             {}-byte splits",
            self.seed,
            self.variable_space,
            self.query.region(),
            e.shape(),
            e.stride(),
            self.mode,
            self.reducers,
            self.split_bytes
        )
    }
}

fn below(rng: &mut TestRng, n: u64) -> u64 {
    rng.next_below(u128::from(n)) as u64
}

impl Case {
    fn generate(seed: u64) -> Case {
        let mut rng = TestRng::from_seed(seed);
        let rank = 1 + below(&mut rng, 4) as usize;
        let max_extent = [40, 14, 8, 6][rank - 1];
        let strided = below(&mut rng, 2) == 0;
        let mut region_extent = Vec::new();
        let mut corner = Vec::new();
        let mut variable = Vec::new();
        let mut tile = Vec::new();
        let mut stride = Vec::new();
        for _ in 0..rank {
            let e = 2 + below(&mut rng, max_extent - 1);
            // A strided query tiles the variable from its origin; a
            // plain one may sit at a non-zero corner.
            let c = if strided { 0 } else { below(&mut rng, 3) };
            let t = 1 + below(&mut rng, e.min(3));
            let s = if strided { t + below(&mut rng, 3) } else { t };
            region_extent.push(e);
            corner.push(c);
            variable.push(c + e + below(&mut rng, 3));
            tile.push(t);
            stride.push(s);
        }
        let operator = match below(&mut rng, 4) {
            0 => Operator::Mean,
            1 => Operator::Median,
            2 => Operator::SortValues,
            _ => Operator::Filter { threshold: 0.0 },
        };
        let variable_space = Shape::new(variable).unwrap();
        let region_shape = Shape::new(region_extent).unwrap();
        let tile = Shape::new(tile).unwrap();
        let query = if strided {
            StructuralQuery::with_stride("v", region_shape, tile, stride, operator)
        } else {
            let region = Slab::new(Coord::new(corner), region_shape).unwrap();
            StructuralQuery::over_region("v", &variable_space, region, tile, operator)
        }
        .unwrap();
        let mode = match below(&mut rng, 3) {
            0 => FrameworkMode::Hadoop,
            1 => FrameworkMode::SciHadoop,
            _ => FrameworkMode::Sidr,
        };
        let cells = query.input_space().count();
        Case {
            seed,
            variable_space,
            query,
            mode,
            reducers: 1 + below(&mut rng, 5) as usize,
            split_bytes: (cells * 8 / (1 + below(&mut rng, 6))).max(8),
        }
    }

    /// Writes the variable as order-sensitive f64 values (full
    /// mantissas, mixed signs), so a changed summation order shows.
    fn dataset(&self) -> (ScincFile, std::path::PathBuf) {
        let dir = std::env::temp_dir().join("sidr-kprime-walk-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{:x}-{}.scinc", self.seed, std::process::id()));
        let spec = DatasetSpec {
            variable: "v".into(),
            dim_names: (0..self.variable_space.rank())
                .map(|i| format!("d{i}"))
                .collect(),
            space: self.variable_space.clone(),
            model: ValueModel::Normal {
                mean: 0.0,
                std_dev: 1e3,
            },
            seed: self.seed,
        };
        (spec.generate::<f64>(&path).unwrap(), path)
    }

    fn pushdown(&self) -> bool {
        matches!(self.query.operator, Operator::Filter { .. })
    }

    fn mapper(&self) -> StructuralMapper {
        let m = StructuralMapper::for_query(&self.query);
        match self.query.operator {
            Operator::Filter { threshold } => m.push_down_filter(threshold),
            _ => m,
        }
    }

    fn options(&self) -> RunOptions {
        let mut opts = RunOptions::new(self.mode, self.reducers);
        opts.split_bytes = self.split_bytes;
        opts.filter_pushdown = self.pushdown();
        opts.map_slots = 2;
        opts.reduce_slots = 2;
        opts
    }
}

fn drain(mut source: ScincRecordSource<'_, f64>) -> Vec<(Coord, f64)> {
    let mut out = Vec::new();
    while let Some(rec) = source.next_record().unwrap() {
        out.push(rec);
    }
    out
}

fn bits(records: &[(Coord, f64)]) -> Vec<(Coord, u64)> {
    records
        .iter()
        .map(|(k, v)| (k.clone(), v.to_bits()))
        .collect()
}

/// (a): same multiset as the row-major reader, `|Iᵢ|` records.
fn check_walk_multiset(
    case: &Case,
    file: &ScincFile,
    splits: &[InputSplit],
) -> Result<(), TestCaseError> {
    let order = case.mapper().walk_order();
    for split in splits {
        let row_major = drain(ScincRecordSource::open(file, "v", split).unwrap());
        let walked = drain(ScincRecordSource::open_in_order(file, "v", split, &order).unwrap());
        prop_assert_eq!(
            walked.len() as u64,
            split.slab.count(),
            "{}: split {} yielded a wrong record count",
            case,
            split.slab
        );
        let coords: Vec<&Coord> = row_major.iter().map(|(c, _)| c).collect();
        let want: Vec<Coord> = split.slab.iter_coords().collect();
        prop_assert!(
            coords.iter().copied().eq(want.iter()),
            "{}: the unit-tile walk of {} is not row-major",
            case,
            split.slab
        );
        let (mut a, mut b) = (bits(&row_major), bits(&walked));
        a.sort();
        b.sort();
        prop_assert!(a == b, "{}: split {} multisets differ", case, split.slab);
    }
    Ok(())
}

/// (b): emissions of every split, in walk order, are non-decreasing in
/// each partition.
fn check_born_sorted(
    case: &Case,
    file: &ScincFile,
    splits: &[InputSplit],
    mapper: &StructuralMapper,
    plan: &dyn RoutingPlan<Coord>,
    what: &str,
) -> Result<(), TestCaseError> {
    let factory = ordered_source_factory::<f64>(file, "v", mapper.walk_order());
    for (task, split) in splits.iter().enumerate() {
        let source = factory(task, split);
        let mut last: Vec<Option<Coord>> = vec![None; plan.num_reducers()];
        let mut unsorted = None;
        for (k, v) in drain(source.unwrap()) {
            mapper.map(&k, &v, &mut |key, _| {
                let p = plan.partition(&key);
                if last[p].as_ref().is_some_and(|prev| *prev > key) {
                    unsorted.get_or_insert((p, key.clone()));
                }
                last[p] = Some(key);
            });
        }
        prop_assert!(
            unsorted.is_none(),
            "{}: {} emissions of split {} go backwards in partition/key {:?}",
            case,
            what,
            split.slab,
            unsorted
        );
    }
    Ok(())
}

/// Runs the case's query on the engine with every split read row-major
/// (or in the mapper's walk order), under `plan`.
fn run_with(
    case: &Case,
    file: &ScincFile,
    splits: &[InputSplit],
    mapper: &StructuralMapper,
    plan: &dyn RoutingPlan<Coord>,
    walk: bool,
) -> Vec<(Coord, f64)> {
    let reducer = OperatorReducer {
        op: case.query.operator,
    };
    let combiner = case.query.operator.combiner();
    let combiner = combiner
        .as_ref()
        .map(|c| c as &dyn sidr_mapreduce::Combiner<Key = Coord, Value = f64>);
    let output = InMemoryOutput::<Coord, f64>::new();
    let config = JobConfig {
        map_slots: 2,
        reduce_slots: 2,
        ..JobConfig::default()
    };
    if walk {
        let factory = ordered_source_factory::<f64>(file, "v", mapper.walk_order());
        run_job(
            splits, &factory, mapper, combiner, &reducer, plan, &output, &config,
        )
    } else {
        let factory = scinc_source_factory::<f64>(file, "v");
        run_job(
            splits, &factory, mapper, combiner, &reducer, plan, &output, &config,
        )
    }
    .unwrap_or_else(|e| panic!("{case}: job failed: {e}"));
    output.sorted_records()
}

fn check_case(case: &Case) -> Result<(), TestCaseError> {
    let (file, path) = case.dataset();
    let splits = generate_splits(&file, &case.query, case.mode, case.split_bytes).unwrap();
    let mapper = case.mapper();
    let hash = DefaultPlan::<Coord, _>::new(CoordHashPartitioner, case.reducers);
    let corner_mapper = StructuralMapper::new(case.query.extraction.clone()).emit_corner_keys();
    let sidr_plan = SidrPlanner::new(&case.query, case.reducers)
        .skip_preflight()
        .build(&splits)
        .unwrap();
    let plan: &dyn RoutingPlan<Coord> = match case.mode {
        FrameworkMode::Sidr => &sidr_plan,
        _ => &hash,
    };

    check_walk_multiset(case, &file, &splits)?;
    check_born_sorted(case, &file, &splits, &mapper, plan, "structural")?;
    // Corner keys only make sense where the region starts at the
    // origin (they are `k′ · stride`, region-relative).
    let at_origin = case
        .query
        .region()
        .corner()
        .components()
        .iter()
        .all(|&c| c == 0);
    if at_origin {
        check_born_sorted(case, &file, &splits, &corner_mapper, &hash, "corner-key")?;
    }

    // (c) The served query against a row-major read of the same splits.
    let outcome = run_query(&file, &case.query, &case.options())
        .unwrap_or_else(|e| panic!("{case}: run_query failed: {e}"));
    let row_major = run_with(case, &file, &splits, &mapper, plan, false);
    prop_assert!(
        bits(&outcome.records) == bits(&row_major),
        "{}: run_query output differs from the row-major run ({} vs {} records)",
        case,
        outcome.records.len(),
        row_major.len()
    );
    if at_origin {
        let walked = run_with(case, &file, &splits, &corner_mapper, &hash, true);
        let row_major = run_with(case, &file, &splits, &corner_mapper, &hash, false);
        prop_assert!(
            bits(&walked) == bits(&row_major),
            "{}: corner-key output differs between walk orders",
            case
        );
    }
    std::fs::remove_file(&path).ok();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kprime_walk_is_a_reordering_that_keeps_output_bit_identical(seed in any::<u64>()) {
        check_case(&Case::generate(seed))?;
    }
}

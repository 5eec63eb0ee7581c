//! Direct evaluation of each workload's query and the output check
//! every benchmarked job must pass.
//!
//! The reference is computed from the generated dataset with
//! `ScincFile::read_slab` and this file's own mean and median code:
//! no engine, no `Operator`. Mean results may differ from the
//! reference by float summation order, so they are compared with a
//! relative tolerance of [`MEAN_REL_TOL`]; median results are exact
//! order statistics and must match bit for bit.

use std::path::Path;

use sidr_coords::{Coord, Shape, Slab};
use sidr_core::{Operator, StructuralQuery};
use sidr_scifile::ScincFile;

/// Relative tolerance for mean results: `|got − want| ≤ 1e-9 · max(1, |want|)`.
pub const MEAN_REL_TOL: f64 = 1e-9;

/// One keyblock's committed output, as delivered to the caller.
pub type Block = (usize, Vec<(Coord, f64)>);

pub struct Reference {
    kspace: Shape,
    keyblocks: usize,
    exact: bool,
    values: Vec<f64>,
}

impl Reference {
    /// Reads the whole variable and evaluates the query per key of `K′`.
    pub fn compute(input: &Path, query: &StructuralQuery, keyblocks: usize) -> Reference {
        let file = ScincFile::open(input).expect("dataset opens");
        let space = query.input_space().clone();
        let data: Vec<f32> = file
            .read_slab(&query.variable, &Slab::whole(&space))
            .expect("dataset reads");
        let kspace = query.intermediate_space();
        let ext = query.extraction.shape().extents().to_vec();
        let kext = kspace.extents().to_vec();
        assert_eq!(
            query.extraction.stride(),
            &ext[..],
            "reference assumes non-overlapping, gap-free instances"
        );
        // Walk the input in row-major order, tracking each cell's key
        // index; cells of partial instances map to no key.
        let keys = kspace.count() as usize;
        let exact = match query.operator {
            Operator::Mean => false,
            Operator::Median => true,
            other => panic!("no reference for operator {other:?}"),
        };
        let mut sums = vec![0f64; if exact { 0 } else { keys }];
        let mut counts = vec![0u64; sums.len()];
        let mut lists: Vec<Vec<f64>> = vec![Vec::new(); if exact { keys } else { 0 }];
        let rank = space.rank();
        let mut coord = vec![0u64; rank];
        for &v in &data {
            let mut idx = 0usize;
            let mut inside = true;
            for d in 0..rank {
                let k = coord[d] / ext[d];
                if k >= kext[d] {
                    inside = false;
                    break;
                }
                idx = idx * kext[d] as usize + k as usize;
            }
            if inside {
                if exact {
                    lists[idx].push(f64::from(v));
                } else {
                    sums[idx] += f64::from(v);
                    counts[idx] += 1;
                }
            }
            for d in (0..rank).rev() {
                coord[d] += 1;
                if coord[d] < space[d] {
                    break;
                }
                coord[d] = 0;
            }
        }
        let values = if exact {
            lists.into_iter().map(median).collect()
        } else {
            sums.iter()
                .zip(&counts)
                .map(|(s, &n)| s / n as f64)
                .collect()
        };
        Reference {
            kspace,
            keyblocks,
            exact,
            values,
        }
    }

    /// Writes the reference values (f64 little-endian) for the
    /// repetition processes to load.
    pub fn save(&self, path: &Path) {
        let bytes: Vec<u8> = self.values.iter().flat_map(|v| v.to_le_bytes()).collect();
        std::fs::write(path, bytes).expect("reference writes");
    }

    /// Loads what [`Reference::save`] wrote for the same query.
    pub fn load(path: &Path, query: &StructuralQuery, keyblocks: usize) -> Reference {
        let bytes = std::fs::read(path).expect("reference reads");
        let values: Vec<f64> = bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect();
        let kspace = query.intermediate_space();
        assert_eq!(values.len() as u64, kspace.count(), "reference size");
        Reference {
            kspace,
            keyblocks,
            exact: query.operator == Operator::Median,
            values,
        }
    }

    /// Checks one job's output: every key of `K′` exactly once, with
    /// the reference value, and every keyblock delivered once.
    pub fn check(&self, blocks: &[Block]) -> Result<(), String> {
        let mut seen_block = vec![false; self.keyblocks];
        let mut seen = vec![false; self.values.len()];
        for (b, records) in blocks {
            match seen_block.get_mut(*b) {
                Some(s) if !*s => *s = true,
                Some(_) => return Err(format!("keyblock {b} delivered twice")),
                None => return Err(format!("keyblock {b} out of range")),
            }
            for (k, got) in records {
                let idx = self
                    .kspace
                    .linearize(k)
                    .map_err(|e| format!("key {k} outside K': {e}"))?
                    as usize;
                if std::mem::replace(&mut seen[idx], true) {
                    return Err(format!("key {k} delivered twice"));
                }
                let want = self.values[idx];
                let ok = if self.exact {
                    *got == want
                } else {
                    (got - want).abs() <= MEAN_REL_TOL * want.abs().max(1.0)
                };
                if !ok {
                    return Err(format!("key {k}: got {got}, reference {want}"));
                }
            }
        }
        if let Some(b) = seen_block.iter().position(|s| !s) {
            return Err(format!("keyblock {b} missing"));
        }
        if let Some(idx) = seen.iter().position(|s| !s) {
            return Err(format!("key #{idx} missing"));
        }
        Ok(())
    }

    /// Checks the checker: a correct output built from the reference
    /// passes, while one perturbed value and one dropped keyblock are
    /// each reported as failures.
    pub fn self_test(&self, covers: &[Vec<Slab>]) -> Result<(), String> {
        let mut blocks: Vec<Block> = covers
            .iter()
            .enumerate()
            .map(|(b, cover)| {
                let records = cover
                    .iter()
                    .flat_map(|slab| slab.iter_coords())
                    .map(|k| {
                        let idx = self.kspace.linearize(&k).expect("cover is inside K'");
                        (k, self.values[idx as usize])
                    })
                    .collect();
                (b, records)
            })
            .collect();
        self.check(&blocks)
            .map_err(|e| format!("self-test: correct output rejected: {e}"))?;
        let last = blocks.len() - 1;
        let (_, records) = &mut blocks[last];
        let n = records.len();
        let v = &mut records[n / 2].1;
        let saved = *v;
        *v += 1e-3 * saved.abs().max(1.0);
        if self.check(&blocks).is_ok() {
            return Err("self-test: perturbed value not detected".into());
        }
        blocks[last].1[n / 2].1 = saved;
        let dropped = blocks.remove(last / 2);
        if self.check(&blocks).is_ok() {
            return Err(format!(
                "self-test: dropped keyblock {} not detected",
                dropped.0
            ));
        }
        Ok(())
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_unstable_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

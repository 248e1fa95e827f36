//! The fuzz corpus generator: seed → shape → random well-formed program.
//!
//! `harness fuzz` drives every generated program through a differential
//! oracle stack (lint, interpreter vs replay timing, lane-packed vs
//! scalar sweeps, cycle-attribution sums); this module owns the *generation*
//! side so the corpus is reproducible from a single `u64` seed anywhere in
//! the workspace — tests, the CLI sweep, and the predictor-zoo ranking all
//! regenerate identical programs.
//!
//! A [`FuzzShape`] is derived from the seed (one xorshift stream, disjoint
//! from the program-body stream) and then drives
//! [`crate::synthetic::random_program`]. Keeping the shape explicit — and
//! serialisable as `key=value` lines — is what makes shrinking work: a
//! failing `(seed, shape)` pair re-runs exactly, and the shrinker walks
//! the shape lattice downward while the failure reproduces.
//!
//! # Termination bound
//!
//! The generator's call DAG means a function's dynamic instruction count
//! can grow like `constructs^functions` in the worst case (every construct
//! a call to the next function). The shape space is therefore capped at
//! [`MAX_FUNCTIONS`] × [`MAX_CONSTRUCTS`] so the worst-case dynamic length
//! (driver trips × call-tree size) stays well inside [`MAX_STEPS`]; the
//! differential harness treats budget exhaustion as a generator bug.

use crate::rng::{Rng, SeedableRng, StdRng};
use crate::synthetic::{random_program, SyntheticConfig};
use multiscalar_isa::Program;

/// Largest function count a derived shape uses (see the module-level
/// termination bound).
pub const MAX_FUNCTIONS: usize = 6;

/// Largest per-function construct count a derived shape uses.
pub const MAX_CONSTRUCTS: usize = 6;

/// Largest construct-nesting depth a derived shape uses.
pub const MAX_NESTING: u32 = 3;

/// Number of task-former budget points a shape can select (index into the
/// harness's budget table; 1 is the default former).
pub const FORMER_BUDGETS: usize = 3;

/// Largest per-function memory-op shape count a fuzz case uses (see
/// [`crate::synthetic::SyntheticConfig::mem_ops`]).
pub const MAX_MEMOPS: usize = 4;

/// Interpreter step budget every fuzz case must halt within. Sized ~4×
/// above the worst shape's dynamic length: `6^6` worst-case call tree ×
/// ≤5 driver trips × ~4 instructions per construct ≈ 1M steps.
pub const MAX_STEPS: u64 = 16_000_000;

/// The size/shape coordinates of one fuzz case. Together with the seed it
/// fully determines the generated program *and* (via `former`) the task
/// partition the harness forms over it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzShape {
    /// Number of functions (1..=[`MAX_FUNCTIONS`]).
    pub functions: usize,
    /// Constructs per function body (1..=[`MAX_CONSTRUCTS`]).
    pub constructs: usize,
    /// Maximum construct nesting depth (0..=[`MAX_NESTING`]).
    pub nesting: u32,
    /// Task-former budget index (0..[`FORMER_BUDGETS`]; the harness maps
    /// it onto its small/default/large budget table).
    pub former: usize,
    /// Boundary-stressing memory-op shapes per function
    /// (0..=[`MAX_MEMOPS`]). Always 0 in seed-derived shapes so every
    /// historical seed's program stays byte-identical; the harness sweeps
    /// a memops-enabled companion case per seed.
    pub memops: usize,
}

impl FuzzShape {
    /// Derives the shape a bare seed fuzzes at. The stream is offset from
    /// the program-body stream, so shape and body are independent draws.
    pub fn from_seed(seed: u64) -> FuzzShape {
        // Distinct stream from `random_program`'s body stream (which seeds
        // from the bare seed): xor a fixed tag before seeding.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5AAD_F02A_5AAD_F02A);
        FuzzShape {
            functions: rng.gen_range(1..MAX_FUNCTIONS + 1),
            constructs: rng.gen_range(1..MAX_CONSTRUCTS + 1),
            nesting: rng.gen_range(0..MAX_NESTING + 1),
            former: rng.gen_range(0..FORMER_BUDGETS),
            // Not drawn from the stream: a bare seed's program must stay
            // byte-identical across releases. Memop coverage comes from
            // the sweep's explicit companion cases.
            memops: 0,
        }
    }

    /// The default shape (used by shrinking as the `former` floor).
    pub fn minimal() -> FuzzShape {
        FuzzShape {
            functions: 1,
            constructs: 1,
            nesting: 0,
            former: 1,
            memops: 0,
        }
    }

    /// One-step-smaller neighbours of this shape, largest reduction first:
    /// the shrinker tries each and keeps the first that still fails.
    /// Every dimension strictly decreases toward [`FuzzShape::minimal`]
    /// (with `former` stepping toward the default budget, index 1), so
    /// shrinking terminates.
    pub fn shrink_candidates(&self) -> Vec<FuzzShape> {
        let mut out = Vec::new();
        if self.functions > 1 {
            // Halve first (fast descent), then decrement.
            if self.functions > 2 {
                out.push(FuzzShape {
                    functions: self.functions / 2,
                    ..*self
                });
            }
            out.push(FuzzShape {
                functions: self.functions - 1,
                ..*self
            });
        }
        if self.constructs > 1 {
            if self.constructs > 2 {
                out.push(FuzzShape {
                    constructs: self.constructs / 2,
                    ..*self
                });
            }
            out.push(FuzzShape {
                constructs: self.constructs - 1,
                ..*self
            });
        }
        if self.nesting > 0 {
            out.push(FuzzShape {
                nesting: self.nesting - 1,
                ..*self
            });
        }
        if self.memops > 0 {
            out.push(FuzzShape {
                memops: self.memops - 1,
                ..*self
            });
        }
        if self.former != 1 {
            out.push(FuzzShape { former: 1, ..*self });
        }
        out
    }

    /// Serialises the shape as the `key=value` lines of a reproducer
    /// artifact (see `harness fuzz --repro`).
    pub fn render(&self) -> String {
        format!(
            "functions={}\nconstructs={}\nnesting={}\nformer={}\nmemops={}\n",
            self.functions, self.constructs, self.nesting, self.former, self.memops
        )
    }
}

/// Generates the fuzz program for `(seed, shape)`. Deterministic; the
/// guarantees of [`random_program`] apply (builds, halts within
/// [`MAX_STEPS`], no recursion, bounded memory, declared indirect
/// targets) — the differential harness re-checks every one of them.
pub fn fuzz_program(seed: u64, shape: &FuzzShape) -> Program {
    random_program(
        seed,
        &SyntheticConfig {
            functions: shape.functions,
            constructs: shape.constructs,
            nesting: shape.nesting,
            mem_ops: shape.memops,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiscalar_isa::Interpreter;

    #[test]
    fn shapes_are_deterministic_and_in_bounds() {
        for seed in 0..200 {
            let a = FuzzShape::from_seed(seed);
            assert_eq!(a, FuzzShape::from_seed(seed));
            assert!((1..=MAX_FUNCTIONS).contains(&a.functions), "{a:?}");
            assert!((1..=MAX_CONSTRUCTS).contains(&a.constructs), "{a:?}");
            assert!(a.nesting <= MAX_NESTING, "{a:?}");
            assert!(a.former < FORMER_BUDGETS, "{a:?}");
            assert_eq!(a.memops, 0, "bare seeds must stay byte-identical");
        }
    }

    /// FNV-1a over the disassembly: a cheap stable fingerprint.
    fn disasm_hash(p: &Program) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for byte in p.disassemble().bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
        h
    }

    #[test]
    fn seed_derived_programs_are_pinned() {
        // Historical seeds must regenerate the exact same programs —
        // reproducer artifacts and triage notes reference them by seed.
        // If a deliberate generator change breaks this, re-pin AND bump
        // the artifact format notes in the fuzz module docs.
        let pinned: [(u64, u64); 3] = [
            (0, 0xf9c2_ba81_9744_761a),
            (1, 0x6842_5df7_e59a_6fdc),
            (17, 0x8c90_0c1a_5982_02d0),
        ];
        for (seed, want) in pinned {
            let case = FuzzShape::from_seed(seed);
            let got = disasm_hash(&fuzz_program(seed, &case));
            assert_eq!(got, want, "seed {seed} drifted (got {got:#x})");
        }
    }

    #[test]
    fn memop_shapes_build_halt_and_add_memory_traffic() {
        for seed in 0..12 {
            let mut shape = FuzzShape::from_seed(seed);
            shape.memops = 1 + (seed % MAX_MEMOPS as u64) as usize;
            let with = fuzz_program(seed, &shape);
            let without = fuzz_program(seed, &FuzzShape::from_seed(seed));
            assert!(
                with.len() > without.len(),
                "seed {seed}: memops must add instructions"
            );
            let out = Interpreter::new(&with)
                .run(MAX_STEPS)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(out.halted, "seed {seed} must halt with memops");
        }
    }

    #[test]
    fn shapes_cover_the_space() {
        // The derivation must not collapse: over a few hundred seeds every
        // dimension should take more than one value.
        let shapes: Vec<FuzzShape> = (0..300).map(FuzzShape::from_seed).collect();
        let distinct = |f: fn(&FuzzShape) -> usize| {
            let mut v: Vec<usize> = shapes.iter().map(f).collect();
            v.sort_unstable();
            v.dedup();
            v.len()
        };
        assert!(distinct(|s| s.functions) >= MAX_FUNCTIONS);
        assert!(distinct(|s| s.constructs) >= MAX_CONSTRUCTS);
        assert!(distinct(|s| s.nesting as usize) >= 3);
        assert!(distinct(|s| s.former) == FORMER_BUDGETS);
    }

    #[test]
    fn fuzz_programs_build_and_halt_within_budget() {
        for seed in 0..30 {
            let shape = FuzzShape::from_seed(seed);
            let p = fuzz_program(seed, &shape);
            let out = Interpreter::new(&p)
                .run(MAX_STEPS)
                .unwrap_or_else(|e| panic!("seed {seed} ({shape:?}): {e}"));
            assert!(out.halted, "seed {seed} must halt");
        }
    }

    #[test]
    fn shrinking_strictly_descends_and_terminates() {
        let mut shape = FuzzShape {
            functions: MAX_FUNCTIONS,
            constructs: MAX_CONSTRUCTS,
            nesting: MAX_NESTING,
            former: 2,
            memops: MAX_MEMOPS,
        };
        let weight = |s: &FuzzShape| {
            s.functions * 1000
                + s.constructs * 100
                + s.nesting as usize * 10
                + s.memops
                + (s.former != 1) as usize
        };
        let mut steps = 0;
        loop {
            let candidates = shape.shrink_candidates();
            let Some(next) = candidates.first() else {
                break;
            };
            assert!(weight(next) < weight(&shape), "{next:?} !< {shape:?}");
            shape = *next;
            steps += 1;
            assert!(steps < 100, "shrinking must terminate");
        }
        assert_eq!(shape, FuzzShape::minimal());
    }
}

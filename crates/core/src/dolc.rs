//! DOLC index construction for path-based predictors (paper §6).
//!
//! A realizable path predictor cannot index its table with full task
//! addresses, so the paper builds an *intermediate index* from a few bits of
//! each task address along the path, then *folds* it down with XOR:
//!
//! * **D** — depth: how many preceding tasks represent the path,
//! * **O** — bits taken from each *older* task (current−2 … current−D),
//! * **L** — bits taken from the *last* task (current−1),
//! * **C** — bits taken from the *current* task,
//! * **F** — number of equal sub-fields XORed together to form the final
//!   index.
//!
//! Notation `D-O-L-C (F)`; e.g. `6-5-8-9 (3)` has a 42-bit intermediate
//! index folded into 14 bits → a 16K-entry table, exactly the example in
//! the paper.
//!
//! Two heuristics drive the design (both reproduced here and ablated in
//! `tests/paper_claims.rs`): low-order address bits carry the most
//! information, and more recent tasks deserve more bits than older ones.

use multiscalar_isa::Addr;
use std::fmt;

/// A shift register of the most recent task addresses, most recent first.
///
/// Every path-indexed structure reads one: the path-based exit predictor,
/// the correlated task target buffer and the lane-packed sweep engine.
/// Pushing the current task's entry address advances the path by one step.
/// [`Dolc::index`] reads the first `D` addresses, so one register sized to
/// the deepest configuration serves every shallower one as well.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathRegister {
    /// `window[0]` is the last task; entries at or past `len` are unused.
    window: Vec<u32>,
    len: usize,
}

impl PathRegister {
    /// Creates a register holding up to `depth` addresses.
    pub fn new(depth: usize) -> PathRegister {
        PathRegister {
            window: vec![0; depth],
            len: 0,
        }
    }

    /// Shifts in the newest task address, discarding the oldest when full.
    #[inline]
    pub fn push(&mut self, addr: Addr) {
        let d = self.window.len();
        if d == 0 {
            return;
        }
        self.window.copy_within(0..d - 1, 1);
        self.window[0] = addr.0;
        if self.len < d {
            self.len += 1;
        }
    }

    /// The `i`-th most recent address (0 = last task), if present.
    #[inline]
    pub fn recent(&self, i: usize) -> Option<Addr> {
        (i < self.len).then(|| Addr(self.window[i]))
    }

    /// The exact path of the `depth` most recent addresses (fewer while
    /// the register warms up) as a fixed-size `Copy` key — the key used by
    /// ideal, alias-free predictors. Building one never touches the heap,
    /// so it can sit on the per-event hot path.
    ///
    /// # Panics
    ///
    /// Panics when the key would hold more than [`MAX_PATH_KEY_DEPTH`]
    /// addresses.
    pub fn key(&self, depth: usize) -> PathKey {
        let n = depth.min(self.len);
        assert!(
            n <= MAX_PATH_KEY_DEPTH,
            "path too deep for a fixed key: {n}"
        );
        let mut addrs = [0u32; MAX_PATH_KEY_DEPTH];
        addrs[..n].copy_from_slice(&self.window[..n]);
        PathKey {
            len: n as u8,
            addrs,
        }
    }
}

/// Deepest path an allocation-free [`PathKey`] can hold. The paper's ideal
/// sweeps stop at depth 8, so every ideal predictor fits.
pub const MAX_PATH_KEY_DEPTH: usize = 8;

/// A fixed-size, `Copy` image of a [`PathRegister`]'s exact contents
/// (most recent first, `len` valid entries). Two keys compare equal exactly
/// when the underlying paths are identical, so ideal predictors stay
/// alias-free while their per-event key construction stays off the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathKey {
    len: u8,
    addrs: [u32; MAX_PATH_KEY_DEPTH],
}

/// A `D-O-L-C (F)` index configuration.
///
/// See the [module docs](self) for the meaning of the five parameters.
///
/// ```
/// use multiscalar_core::dolc::Dolc;
/// let d = Dolc::new(6, 5, 8, 9, 3); // the paper's example
/// assert_eq!(d.intermediate_bits(), 42);
/// assert_eq!(d.index_bits(), 14);
/// assert_eq!(d.table_entries(), 1 << 14);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dolc {
    depth: u8,
    older_bits: u8,
    last_bits: u8,
    current_bits: u8,
    folds: u8,
}

impl Dolc {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `folds == 0`, if any bit count exceeds 32, or if the
    /// configuration selects zero index bits.
    pub fn new(depth: u8, older_bits: u8, last_bits: u8, current_bits: u8, folds: u8) -> Dolc {
        assert!(folds > 0, "folds must be at least 1");
        assert!(older_bits <= 32 && last_bits <= 32 && current_bits <= 32);
        let d = Dolc {
            depth,
            older_bits,
            last_bits,
            current_bits,
            folds,
        };
        assert!(d.intermediate_bits() > 0, "index would be empty");
        assert!(d.index_bits() <= 28, "table would be unreasonably large");
        d
    }

    /// Parses the paper's `"D-O-L-C (F)"` notation, e.g. `"6-5-8-9 (3)"`.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed component.
    pub fn parse(s: &str) -> Result<Dolc, String> {
        let s = s.trim();
        let (dolc_part, fold_part) = match s.find('(') {
            Some(i) => {
                let f = s[i + 1..]
                    .trim_end_matches(')')
                    .trim()
                    .parse::<u8>()
                    .map_err(|e| format!("bad fold count: {e}"))?;
                (&s[..i], f)
            }
            None => (s, 1),
        };
        let parts: Vec<&str> = dolc_part.trim().split('-').collect();
        if parts.len() != 4 {
            return Err(format!("expected D-O-L-C, got `{dolc_part}`"));
        }
        let nums: Result<Vec<u8>, _> = parts.iter().map(|p| p.trim().parse::<u8>()).collect();
        let nums = nums.map_err(|e| format!("bad number in `{dolc_part}`: {e}"))?;
        Ok(Dolc::new(nums[0], nums[1], nums[2], nums[3], fold_part))
    }

    /// Path depth `D` (number of preceding tasks encoded).
    pub fn depth(&self) -> usize {
        self.depth as usize
    }

    /// Bits per older task, `O`.
    pub fn older_bits(&self) -> u32 {
        self.older_bits as u32
    }

    /// Bits from the last task, `L`.
    pub fn last_bits(&self) -> u32 {
        self.last_bits as u32
    }

    /// Bits from the current task, `C`.
    pub fn current_bits(&self) -> u32 {
        self.current_bits as u32
    }

    /// Fold count `F`.
    pub fn folds(&self) -> u32 {
        self.folds as u32
    }

    /// Length of the intermediate index: `(D-1)*O + L + C` (just `C` for
    /// depth 0).
    pub fn intermediate_bits(&self) -> u32 {
        if self.depth == 0 {
            self.current_bits as u32
        } else {
            (self.depth as u32 - 1) * self.older_bits as u32
                + self.last_bits as u32
                + self.current_bits as u32
        }
    }

    /// Bits in the final (folded) index: `ceil(intermediate / F)`.
    pub fn index_bits(&self) -> u32 {
        self.intermediate_bits().div_ceil(self.folds as u32)
    }

    /// Entries in a table indexed by this configuration.
    pub fn table_entries(&self) -> usize {
        1usize << self.index_bits()
    }

    /// Builds the intermediate index from the path and current task, then
    /// folds it into the final table index (`< table_entries()`).
    ///
    /// Layout (low to high): current task's `C` bits, last task's `L` bits,
    /// then `O` bits from each older task, oldest highest — so corresponding
    /// bits of different tasks do not line up under folding, preserving the
    /// low-order information (paper §6.1, heuristic 1). Addresses the
    /// register has not yet seen read as 0, and a register deeper than `D`
    /// contributes only its `D` most recent addresses.
    pub fn index(&self, path: &PathRegister, current: Addr) -> usize {
        let at = |i: usize| path.recent(i).map_or(0, |a| a.0);
        let mut inter: u128 = (current.0 & mask32(self.current_bits as u32)) as u128;
        let mut shift = self.current_bits as u32;
        if self.depth > 0 {
            inter |= ((at(0) & mask32(self.last_bits as u32)) as u128) << shift;
            shift += self.last_bits as u32;
            for i in 1..self.depth as usize {
                inter |= ((at(i) & mask32(self.older_bits as u32)) as u128) << shift;
                shift += self.older_bits as u32;
            }
        }
        debug_assert_eq!(shift, self.intermediate_bits());
        self.fold(inter)
    }

    /// Folds an intermediate value into the final index by XORing `F`
    /// equal-width sub-fields.
    pub fn fold(&self, intermediate: u128) -> usize {
        let ib = self.index_bits();
        let m = (1u128 << ib) - 1;
        let mut acc = 0u128;
        let mut v = intermediate;
        for _ in 0..self.folds {
            acc ^= v & m;
            v >>= ib;
        }
        acc as usize
    }
}

impl fmt::Display for Dolc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-{}-{}-{} ({})",
            self.depth, self.older_bits, self.last_bits, self.current_bits, self.folds
        )
    }
}

#[inline]
pub(crate) fn mask32(bits: u32) -> u32 {
    if bits >= 32 {
        u32::MAX
    } else {
        (1u32 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_sizes() {
        // "a 6-5-8-9 (3) implementation is 6 deep ... the intermediate
        //  index is 42 bits, the actual index is 14 bits and the table has
        //  16K entries."
        let d = Dolc::new(6, 5, 8, 9, 3);
        assert_eq!(d.intermediate_bits(), 42);
        assert_eq!(d.index_bits(), 14);
        assert_eq!(d.table_entries(), 16 * 1024);
    }

    #[test]
    fn depth_zero_uses_only_current_bits() {
        let d = Dolc::new(0, 0, 0, 14, 1);
        assert_eq!(d.intermediate_bits(), 14);
        let path = PathRegister::new(0);
        let i1 = d.index(&path, Addr(0x1234));
        assert_eq!(i1, 0x1234 & 0x3FFF);
    }

    #[test]
    fn parse_round_trips_display() {
        for s in ["6-5-8-9 (3)", "0-0-0-14 (1)", "7-6-9-9 (3)", "2-4-5-5 (1)"] {
            let d = Dolc::parse(s).unwrap();
            assert_eq!(d.to_string(), s);
        }
        assert!(Dolc::parse("1-2-3").is_err());
        assert!(Dolc::parse("a-b-c-d (1)").is_err());
    }

    #[test]
    fn index_is_always_in_table() {
        let d = Dolc::new(5, 4, 6, 6, 2);
        let mut path = PathRegister::new(d.depth());
        for a in 0..200u32 {
            let idx = d.index(&path, Addr(a.wrapping_mul(2654435761)));
            assert!(idx < d.table_entries());
            path.push(Addr(a.wrapping_mul(40503)));
        }
    }

    #[test]
    fn different_paths_usually_differ() {
        let d = Dolc::new(2, 8, 8, 8, 1);
        let mut p1 = PathRegister::new(2);
        let mut p2 = PathRegister::new(2);
        p1.push(Addr(0x10));
        p1.push(Addr(0x20));
        p2.push(Addr(0x11));
        p2.push(Addr(0x20));
        assert_ne!(d.index(&p1, Addr(0x30)), d.index(&p2, Addr(0x30)));
    }

    #[test]
    fn path_register_is_a_shift_register() {
        let mut p = PathRegister::new(3);
        assert_eq!(p.recent(0), None);
        for a in 1..=5u32 {
            p.push(Addr(a));
        }
        assert_eq!(p.recent(0), Some(Addr(5)), "keeps the newest 3");
        assert_eq!(p.recent(2), Some(Addr(3)));
        assert_eq!(p.recent(3), None);
    }

    #[test]
    fn depth_zero_register_stays_empty() {
        let mut p = PathRegister::new(0);
        p.push(Addr(1));
        assert_eq!(p.recent(0), None);
        assert_eq!(p.key(8), PathRegister::new(0).key(8));
    }

    #[test]
    fn key_is_the_exact_recent_path() {
        let mut p = PathRegister::new(4);
        let mut q = PathRegister::new(2);
        for a in [7, 9, 11] {
            p.push(Addr(a));
            q.push(Addr(a));
        }
        assert_eq!(p.key(2), q.key(2), "a prefix of a deeper register");
        assert_eq!(p.key(8), p.key(3), "capped at the addresses seen");
        assert_ne!(p.key(3), q.key(3));
    }

    #[test]
    fn fold_preserves_all_intermediate_bits() {
        // Flipping any single intermediate bit must flip the index.
        let d = Dolc::new(3, 4, 6, 6, 2); // intermediate = 2*4+6+6 = 20? no: (3-1)*4+6+6 = 20
        assert_eq!(d.intermediate_bits(), 20);
        let base = d.fold(0);
        for bit in 0..d.intermediate_bits() as u128 {
            let flipped = d.fold(1u128 << bit);
            assert_ne!(flipped, base, "bit {bit} lost by folding");
        }
    }

    #[test]
    #[should_panic(expected = "folds must be at least 1")]
    fn zero_folds_panics() {
        Dolc::new(1, 1, 1, 1, 0);
    }
}

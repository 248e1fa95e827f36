//! An Address Resolution Buffer (ARB) model — the Multiscalar memory
//! disambiguation hardware of Franklin & Sohi ("ARB: A Hardware Mechanism
//! for Dynamic Reordering of Memory References", IEEE ToC 1996), which the
//! paper's processing-unit ring relies on (its reference \[5\]).
//!
//! The ARB is an interleaved, set-associative buffer. Each entry tracks one
//! memory address with per-*stage* (in-flight task) load/store marks:
//!
//! * a **load** records its stage so that a later store by an *older* stage
//!   can detect that the load ran too early (a memory-order violation that
//!   squashes the loading stage and everything younger);
//! * a **store** records its stage so later loads by *younger* stages can
//!   forward from it;
//! * when the head task commits, its stage's marks are erased and empty
//!   entries are freed;
//! * when a bank is full, the reference cannot be tracked and the machine
//!   must stall until the head commits.
//!
//! What the timing simulator takes from it is narrower than the structure
//! offers: only per-task **bank-overflow** stalls. The machine retires the
//! head task and opens the next one at every task boundary and never
//! squashes, so the stage window holds exactly one task:
//! [`ArbConfig::stages`] changes no result, no store ever finds a younger
//! stage's load, and [`ArbEvent::Violation`] never fires there.
//! Memory-order violations come instead from the timing core's store-time
//! check (a load that issued before an older task's store to the same
//! word). A multi-stage window would change outputs; see
//! [`crate::timing::TimingConfig::arb`].

use std::collections::VecDeque;

/// Configuration of the ARB geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArbConfig {
    /// Number of interleaved banks (addresses map to `addr % banks`).
    pub banks: usize,
    /// Entries per bank.
    pub entries_per_bank: usize,
    /// Maximum in-flight stages (the ring size). The timing simulator keeps
    /// one stage in flight, so this changes none of its results.
    pub stages: usize,
}

impl Default for ArbConfig {
    fn default() -> Self {
        ArbConfig {
            banks: 8,
            entries_per_bank: 32,
            stages: 4,
        }
    }
}

/// Outcome of recording a memory reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArbEvent {
    /// Tracked without incident.
    Ok,
    /// The bank had no free entry: the reference stalls until the head
    /// stage commits.
    Full,
    /// A store found younger stages that already loaded the address: those
    /// stages (task sequence numbers, ascending) must squash.
    Violation(Vec<u64>),
}

#[derive(Debug, Clone, Default)]
struct Entry {
    addr: u32,
    /// Task sequence numbers that loaded this address, ascending.
    loads: Vec<u64>,
    /// Task sequence numbers that stored to this address, ascending.
    stores: Vec<u64>,
}

#[derive(Debug, Clone, Default)]
struct Bank {
    entries: Vec<Entry>,
    /// Bit `i` set = `entries[i]` holds a live address. Banks are mostly
    /// empty (the head stage's marks are erased at every task retirement),
    /// so lookups walk set bits instead of scanning every entry.
    valid: u64,
}

/// The ARB: banks of address entries plus the active stage window.
#[derive(Debug, Clone)]
pub struct Arb {
    config: ArbConfig,
    banks: Vec<Bank>,
    /// Active (uncommitted) task sequence numbers, oldest first.
    window: VecDeque<u64>,
    /// Per active stage (parallel to `window`): the `(bank, entry)` slots
    /// whose marks the stage set, so commit only visits those instead of
    /// sweeping every entry. Slots may be stale after a squash — the sweep
    /// treats them as no-ops.
    touched: VecDeque<Vec<(u32, u32)>>,
    /// `banks - 1` when `banks` is a power of two: bank selection is then a
    /// mask instead of a divide (it runs on every memory reference).
    bank_mask: Option<u32>,
    /// Total references rejected because a bank was full.
    full_events: u64,
    /// Total violations detected.
    violations: u64,
    /// Sanitizer state: sequence number of the last committed stage, used
    /// to assert that commit order is strictly FIFO across the whole run
    /// (squashes may drop stages, but a committed sequence number can never
    /// repeat or decrease).
    #[cfg(feature = "sanitize")]
    last_committed: Option<u64>,
}

impl Arb {
    /// Creates an empty ARB.
    ///
    /// # Panics
    ///
    /// Panics if any geometry parameter is zero, or if `entries_per_bank`
    /// exceeds 64 (the occupancy-bitmask width).
    pub fn new(config: ArbConfig) -> Arb {
        assert!(config.banks > 0 && config.entries_per_bank > 0 && config.stages > 0);
        assert!(config.entries_per_bank <= 64, "bank occupancy mask is u64");
        Arb {
            banks: (0..config.banks)
                .map(|_| Bank {
                    entries: vec![Entry::default(); config.entries_per_bank],
                    valid: 0,
                })
                .collect(),
            bank_mask: config
                .banks
                .is_power_of_two()
                .then(|| config.banks as u32 - 1),
            config,
            window: VecDeque::new(),
            touched: VecDeque::new(),
            full_events: 0,
            violations: 0,
            #[cfg(feature = "sanitize")]
            last_committed: None,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> &ArbConfig {
        &self.config
    }

    /// Opens a new speculative stage for task `seq`. If the window is full
    /// the caller must [`Arb::commit_head`] first.
    ///
    /// # Panics
    ///
    /// Panics if the window already holds `stages` tasks, or `seq` is not
    /// strictly increasing.
    pub fn begin_task(&mut self, seq: u64) {
        assert!(self.window.len() < self.config.stages, "stage window full");
        if let Some(&back) = self.window.back() {
            assert!(seq > back, "task sequence numbers must increase");
        }
        self.window.push_back(seq);
        self.touched.push_back(Vec::new());
    }

    /// Number of active stages.
    pub fn active_stages(&self) -> usize {
        self.window.len()
    }

    /// `true` if a new stage cannot begin before a commit.
    pub fn window_full(&self) -> bool {
        self.window.len() == self.config.stages
    }

    fn entry_slot(&mut self, addr: u32) -> Option<(usize, usize)> {
        let b = match self.bank_mask {
            Some(m) => (addr & m) as usize,
            None => (addr as usize) % self.config.banks,
        };
        let bank = &mut self.banks[b];
        // Walk only the occupied slots for a match.
        let mut live = bank.valid;
        while live != 0 {
            let i = live.trailing_zeros() as usize;
            live &= live - 1;
            if bank.entries[i].addr == addr {
                return Some((b, i));
            }
        }
        // Lowest free slot, if any.
        let i = (!bank.valid).trailing_zeros() as usize;
        if i >= self.config.entries_per_bank {
            return None;
        }
        bank.valid |= 1 << i;
        let e = &mut bank.entries[i];
        e.addr = addr;
        e.loads.clear();
        e.stores.clear();
        Some((b, i))
    }

    /// Records that the stage for `seq` set a mark in slot `(b, i)`, so the
    /// commit sweep can find it without scanning every entry.
    fn touch(&mut self, seq: u64, b: usize, i: usize) {
        // Marks almost always come from the youngest stage.
        if self.window.back() == Some(&seq) {
            self.touched
                .back_mut()
                .expect("parallel to window")
                .push((b as u32, i as u32));
        } else if let Some(pos) = self.window.iter().rposition(|&s| s == seq) {
            self.touched[pos].push((b as u32, i as u32));
        }
    }

    /// Records a load of `addr` by the stage for task `seq`.
    pub fn load(&mut self, addr: u32, seq: u64) -> ArbEvent {
        debug_assert!(self.window.contains(&seq), "load from inactive stage");
        match self.entry_slot(addr) {
            Some((b, i)) => {
                let e = &mut self.banks[b].entries[i];
                if e.loads.last() != Some(&seq) {
                    e.loads.push(seq);
                    self.touch(seq, b, i);
                }
                ArbEvent::Ok
            }
            None => {
                self.full_events += 1;
                ArbEvent::Full
            }
        }
    }

    /// Records a store to `addr` by the stage for task `seq`, reporting any
    /// younger stages that loaded the address too early.
    pub fn store(&mut self, addr: u32, seq: u64) -> ArbEvent {
        debug_assert!(self.window.contains(&seq), "store from inactive stage");
        match self.entry_slot(addr) {
            Some((b, i)) => {
                let e = &mut self.banks[b].entries[i];
                let squash: Vec<u64> = e.loads.iter().copied().filter(|&l| l > seq).collect();
                if e.stores.last() != Some(&seq) {
                    e.stores.push(seq);
                    self.touch(seq, b, i);
                }
                if squash.is_empty() {
                    ArbEvent::Ok
                } else {
                    self.violations += squash.len() as u64;
                    ArbEvent::Violation(squash)
                }
            }
            None => {
                self.full_events += 1;
                ArbEvent::Full
            }
        }
    }

    /// Commits the head (oldest) stage: erases its marks and frees empty
    /// entries. Returns the committed task's sequence number.
    ///
    /// # Panics
    ///
    /// With the `sanitize` feature, panics if commit order is not strictly
    /// FIFO (a committed sequence number repeats or decreases).
    pub fn commit_head(&mut self) -> Option<u64> {
        let seq = self.window.pop_front()?;
        #[cfg(feature = "sanitize")]
        {
            if let Some(prev) = self.last_committed {
                assert!(
                    seq > prev,
                    "sanitize: ARB commit order violated: stage {seq} after {prev}"
                );
            }
            self.last_committed = Some(seq);
        }
        // Only the slots this stage marked can hold its marks; stale slots
        // (marks already erased by a squash, or re-allocated entries) fall
        // through the retains as no-ops.
        let touched = self.touched.pop_front().expect("parallel to window");
        for (b, i) in touched {
            let bank = &mut self.banks[b as usize];
            if bank.valid & (1 << i) == 0 {
                continue;
            }
            let e = &mut bank.entries[i as usize];
            e.loads.retain(|&l| l != seq);
            e.stores.retain(|&s| s != seq);
            if e.loads.is_empty() && e.stores.is_empty() {
                bank.valid &= !(1 << i);
            }
        }
        Some(seq)
    }

    /// Squashes every stage with sequence number `>= from`: their marks are
    /// erased (the tasks will re-execute).
    pub fn squash_from(&mut self, from: u64) {
        while self.window.back().is_some_and(|&s| s >= from) {
            self.window.pop_back();
            self.touched.pop_back();
        }
        for bank in &mut self.banks {
            let mut live = bank.valid;
            while live != 0 {
                let i = live.trailing_zeros() as usize;
                live &= live - 1;
                let e = &mut bank.entries[i];
                e.loads.retain(|&l| l < from);
                e.stores.retain(|&s| s < from);
                if e.loads.is_empty() && e.stores.is_empty() {
                    bank.valid &= !(1 << i);
                }
            }
        }
    }

    /// Currently valid (occupied) entries across all banks.
    pub fn occupancy(&self) -> usize {
        self.banks
            .iter()
            .map(|b| b.valid.count_ones() as usize)
            .sum()
    }

    /// References rejected because a bank was full.
    pub fn full_events(&self) -> u64 {
        self.full_events
    }

    /// Memory-order violations detected.
    pub fn violations(&self) -> u64 {
        self.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arb() -> Arb {
        Arb::new(ArbConfig {
            banks: 2,
            entries_per_bank: 4,
            stages: 4,
        })
    }

    #[test]
    fn store_after_younger_load_is_a_violation() {
        let mut a = arb();
        a.begin_task(1);
        a.begin_task(2);
        // Task 2 (younger) loads address 100 first...
        assert_eq!(a.load(100, 2), ArbEvent::Ok);
        // ...then task 1 (older) stores to it: task 2 loaded stale data.
        match a.store(100, 1) {
            ArbEvent::Violation(squash) => assert_eq!(squash, vec![2]),
            other => panic!("expected violation, got {other:?}"),
        }
        assert_eq!(a.violations(), 1);
    }

    #[test]
    fn store_before_younger_load_is_fine() {
        let mut a = arb();
        a.begin_task(1);
        a.begin_task(2);
        assert_eq!(a.store(100, 1), ArbEvent::Ok);
        assert_eq!(
            a.load(100, 2),
            ArbEvent::Ok,
            "forwarding case, no violation"
        );
    }

    #[test]
    fn same_stage_reordering_is_not_a_violation() {
        let mut a = arb();
        a.begin_task(5);
        assert_eq!(a.load(64, 5), ArbEvent::Ok);
        assert_eq!(
            a.store(64, 5),
            ArbEvent::Ok,
            "intra-task order is the PU's job"
        );
    }

    #[test]
    fn commit_frees_entries() {
        let mut a = arb();
        a.begin_task(1);
        for addr in 0..4 {
            assert_eq!(a.load(addr * 2, 1), ArbEvent::Ok); // all to bank 0
        }
        assert_eq!(a.occupancy(), 4);
        assert_eq!(a.commit_head(), Some(1));
        assert_eq!(a.occupancy(), 0);
    }

    #[test]
    fn bank_overflow_reports_full() {
        let mut a = arb();
        a.begin_task(1);
        // Bank 0 has 4 entries; the 5th even-numbered address overflows.
        for addr in 0..4 {
            assert_eq!(a.load(addr * 2, 1), ArbEvent::Ok);
        }
        assert_eq!(a.load(100, 1), ArbEvent::Full);
        assert_eq!(a.full_events(), 1);
        // The odd bank still has room.
        assert_eq!(a.load(101, 1), ArbEvent::Ok);
    }

    #[test]
    fn squash_erases_young_marks() {
        let mut a = arb();
        a.begin_task(1);
        a.begin_task(2);
        a.begin_task(3);
        a.load(10, 2);
        a.load(10, 3);
        a.store(12, 3);
        a.squash_from(2);
        assert_eq!(a.active_stages(), 1);
        // Address 10 and 12 marks from stages 2,3 are gone.
        assert_eq!(a.occupancy(), 0);
        // The violation that *would* have hit stage 2 no longer exists.
        assert_eq!(a.store(10, 1), ArbEvent::Ok);
    }

    #[test]
    fn window_capacity_is_enforced() {
        let mut a = arb();
        for s in 1..=4 {
            a.begin_task(s);
        }
        assert!(a.window_full());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a.begin_task(5)));
        assert!(r.is_err(), "fifth stage must panic");
        a.commit_head();
        a.begin_task(5); // now fine
        assert_eq!(a.active_stages(), 4);
    }

    #[test]
    fn repeated_references_do_not_duplicate_marks() {
        let mut a = arb();
        a.begin_task(1);
        a.begin_task(2);
        for _ in 0..5 {
            a.load(40, 2);
        }
        match a.store(40, 1) {
            ArbEvent::Violation(squash) => assert_eq!(squash, vec![2]),
            other => panic!("{other:?}"),
        }
    }
}

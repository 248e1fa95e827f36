//! Seeded-sweep tests for the prediction structures: automata, DOLC index
//! construction, path registers and target buffers.

use multiscalar_core::automata::{Automaton, LastExit, LastExitHysteresis, VotingCounters};
use multiscalar_core::dolc::{Dolc, PathRegister};
use multiscalar_core::rng::XorShift64;
use multiscalar_core::target::ReturnAddressStack;
use multiscalar_isa::{Addr, ExitIndex, MAX_EXITS};

fn random_exit(rng: &mut XorShift64) -> ExitIndex {
    ExitIndex::new(rng.next_below(MAX_EXITS as u32) as u8).expect("in range")
}

/// Runs a sequence of updates and checks the basic automaton contract.
fn check_automaton<A: Automaton>(updates: &[ExitIndex]) {
    let mut a = A::default();
    let mut tie = XorShift64::new(1);
    for &u in updates {
        let p = a.predict(&mut tie);
        assert!(p.index() < MAX_EXITS);
        a.update(u);
    }
    // Convergence: after enough repeats of one exit, it is predicted.
    if let Some(&last) = updates.last() {
        for _ in 0..16 {
            a.update(last);
        }
        assert_eq!(a.predict(&mut tie), last, "{} must converge", A::NAME);
    }
}

#[test]
fn automata_never_predict_out_of_range_and_converge() {
    let mut rng = XorShift64::new(0xA07A);
    for _ in 0..256 {
        let len = 1 + rng.next_below(59) as usize;
        let updates: Vec<ExitIndex> = (0..len).map(|_| random_exit(&mut rng)).collect();
        check_automaton::<VotingCounters<2, true>>(&updates);
        check_automaton::<VotingCounters<2, false>>(&updates);
        check_automaton::<VotingCounters<3, true>>(&updates);
        check_automaton::<VotingCounters<3, false>>(&updates);
        check_automaton::<LastExit>(&updates);
        check_automaton::<LastExitHysteresis<1>>(&updates);
        check_automaton::<LastExitHysteresis<2>>(&updates);
    }
}

#[test]
fn leh_needs_at_least_confidence_plus_one_misses_to_flip() {
    // Saturate confidence on exit 0, then count misses until the prediction
    // flips: must be exactly MAX+1 when saturated.
    for build in 2u8..10 {
        for wrong_idx in 1..MAX_EXITS as u8 {
            let wrong = ExitIndex::new(wrong_idx).unwrap();
            let mut a: LastExitHysteresis<2> = Default::default();
            let mut tie = XorShift64::new(2);
            let e0 = ExitIndex::new(0).unwrap();
            for _ in 0..build {
                a.update(e0);
            }
            let mut flips = 0;
            while a.predict(&mut tie) == e0 {
                a.update(wrong);
                flips += 1;
                assert!(flips <= 4, "2-bit hysteresis flips within 4 misses");
            }
            let expected = u32::from(build).min(3) + 1;
            assert_eq!(flips, expected);
        }
    }
}

#[test]
fn dolc_index_always_in_table() {
    let mut rng = XorShift64::new(0xD01C);
    let mut cases = 0;
    while cases < 256 {
        let depth = rng.next_below(8) as u8;
        let older = rng.next_below(10) as u8;
        let last = 1 + rng.next_below(11) as u8;
        let current = 1 + rng.next_below(11) as u8;
        let folds = 1 + rng.next_below(3) as u8;
        // Only realizable configurations: the folded index must fit a table
        // (Dolc::new rejects absurd ones by design).
        let intermediate = if depth == 0 {
            current as u32
        } else {
            (depth as u32 - 1) * older as u32 + last as u32 + current as u32
        };
        if intermediate.div_ceil(folds as u32) > 28 {
            continue;
        }
        cases += 1;
        let d = Dolc::new(depth, older, last, current, folds);
        let mut path = PathRegister::new(d.depth());
        let len = 1 + rng.next_below(39) as usize;
        for _ in 0..len {
            let a = rng.next_below(1_000_000);
            let idx = d.index(&path, Addr(a));
            assert!(idx < d.table_entries());
            path.push(Addr(a));
        }
    }
}

#[test]
fn dolc_index_is_deterministic() {
    let d = Dolc::new(5, 4, 6, 6, 2);
    let run = |addrs: &[u32]| -> Vec<usize> {
        let mut path = PathRegister::new(d.depth());
        addrs
            .iter()
            .map(|&a| {
                let i = d.index(&path, Addr(a));
                path.push(Addr(a));
                i
            })
            .collect()
    };
    let mut rng = XorShift64::new(0xDE7E);
    for _ in 0..128 {
        let len = 1 + rng.next_below(29) as usize;
        let addrs: Vec<u32> = (0..len).map(|_| rng.next_below(100_000)).collect();
        assert_eq!(run(&addrs), run(&addrs));
    }
}

/// The DOLC index of paper §6, built the slow way from an oldest-first
/// path: the current task's `C` low bits, then the last task's `L`, then
/// `O` from each older task, with absent tasks as 0; then every
/// intermediate bit XORed into its position modulo the index width.
fn reference_index(d: &Dolc, oldest_first: &[u32], current: u32) -> usize {
    let low = |a: u32, bits: u32| (0..bits).map(move |b| (a >> b) & 1 == 1);
    let recent = |i: usize| {
        oldest_first
            .len()
            .checked_sub(i + 1)
            .map_or(0, |j| oldest_first[j])
    };
    let mut bits: Vec<bool> = low(current, d.current_bits()).collect();
    if d.depth() > 0 {
        bits.extend(low(recent(0), d.last_bits()));
        for i in 1..d.depth() {
            bits.extend(low(recent(i), d.older_bits()));
        }
    }
    assert_eq!(bits.len() as u32, d.intermediate_bits());
    let width = d.index_bits() as usize;
    bits.iter()
        .enumerate()
        .filter(|&(_, &set)| set)
        .fold(0, |idx, (pos, _)| idx ^ 1 << (pos % width))
}

#[test]
fn dolc_index_matches_reference_model_through_warmup() {
    // Depths 0..=9, registers as deep as the configuration or deeper (a
    // register shared with deeper structures), and streams that start
    // cold so every warm-up step is checked.
    let mut rng = XorShift64::new(0xBA7);
    let mut cases = 0;
    while cases < 256 {
        let depth = rng.next_below(10) as u8;
        let older = rng.next_below(7) as u8;
        let last = 1 + rng.next_below(10) as u8;
        let current = 1 + rng.next_below(10) as u8;
        let folds = 1 + rng.next_below(3) as u8;
        let intermediate = if depth == 0 {
            current as u32
        } else {
            (depth as u32 - 1) * older as u32 + last as u32 + current as u32
        };
        if intermediate.div_ceil(folds as u32) > 28 {
            continue;
        }
        cases += 1;
        let d = Dolc::new(depth, older, last, current, folds);
        let register_depth = d.depth() + rng.next_below(4) as usize;
        let mut reg = PathRegister::new(register_depth);
        let mut model: Vec<u32> = Vec::new();
        for _ in 0..rng.next_below(40) {
            let a = rng.next_below(1 << 12);
            assert_eq!(
                d.index(&reg, Addr(a)),
                reference_index(&d, &model, a),
                "{d}"
            );
            for (i, &m) in model.iter().rev().enumerate() {
                assert_eq!(reg.recent(i), Some(Addr(m)));
            }
            assert_eq!(reg.recent(model.len()), None);
            reg.push(Addr(a));
            model.push(a);
            if model.len() > register_depth {
                model.remove(0);
            }
        }
    }
}

#[test]
fn ras_is_a_bounded_stack() {
    // Push with probability ~1/2, pop otherwise. Model with a Vec truncated
    // from the front on overflow.
    let mut rng = XorShift64::new(0x3A5);
    for _ in 0..256 {
        let cap = 1 + rng.next_below(15) as usize;
        let ops = rng.next_below(80) as usize;
        let mut ras = ReturnAddressStack::new(cap);
        let mut model: Vec<u32> = Vec::new();
        for _ in 0..ops {
            if rng.next_u64() & 1 == 0 {
                let a = rng.next_below(10_000);
                ras.push(Addr(a));
                model.push(a);
                if model.len() > cap {
                    model.remove(0);
                }
            } else {
                let got = ras.pop();
                let want = model.pop();
                assert_eq!(got, want.map(Addr));
            }
            assert_eq!(ras.len(), model.len());
            assert_eq!(ras.peek(), model.last().copied().map(Addr));
        }
    }
}

#[test]
fn dolc_fold_is_linear_in_xor() {
    // fold(a ^ b) == fold(a) ^ fold(b): folding is XOR of fields.
    let d = Dolc::new(6, 5, 8, 9, 3);
    let mut rng = XorShift64::new(0xF01D);
    for _ in 0..4096 {
        let a = rng.next_u64();
        let b = rng.next_u64();
        let fa = d.fold(a as u128);
        let fb = d.fold(b as u128);
        let fab = d.fold((a ^ b) as u128);
        assert_eq!(fab, fa ^ fb);
    }
}

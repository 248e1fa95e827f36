//! Runtime sanitizer for the timing simulator. The lockstep checkers here
//! compile unconditionally (the differential fuzzer drives them in every
//! build); `--features sanitize` additionally arms the assertions *inside*
//! the model listed below.
//!
//! The timing model has two step feeds — the interpreter
//! ([`crate::timing::simulate`]) and the recorded replay
//! ([`crate::replay::simulate_replay`]) — that are bit-identical *by
//! construction*. This module turns that construction argument into a
//! checked invariant: [`check_replay_agreement`] records an execution, then
//! walks the interpreter feed and the replay cursor in lockstep and asserts
//! that every step they produce agrees — same instruction class, same
//! register operands, same memory address, same intra-task branch outcome,
//! and, crucially, the **same task-boundary events** (retiring task, header
//! exit, next-task entry).
//!
//! Enabling the feature also arms assertions inside the model itself:
//!
//! * [`crate::arb::Arb::commit_head`] asserts commit order is strictly
//!   FIFO across the whole run;
//! * the boundary-retirement code in `timing.rs` asserts the commit clock
//!   and every ring unit's free time only move forward.
//!
//! Those in-model assertions compile away when the feature is off.

use crate::replay::{record_replay, ReplayCursor};
use crate::timing::{CoreStep, InterpSource, OpClass, StepSource};
use crate::trace::TraceError;
use multiscalar_isa::Program;
use multiscalar_taskform::TaskProgram;

/// `true` when two steps agree on every field that is *valid* for their
/// instruction class.
///
/// The feeds differ harmlessly on don't-care fields: the interpreter puts
/// the instruction's own pc in `branch_pc` for every step while the replay
/// stores branch pcs only for intra-task branches, so `branch_pc`/`taken`
/// are compared only for [`OpClass::Branch`] and `mem_addr` only for memory
/// operations.
fn steps_agree(a: &CoreStep, b: &CoreStep) -> bool {
    if (a.src1, a.src2, a.dest, a.class, a.halt) != (b.src1, b.src2, b.dest, b.class, b.halt) {
        return false;
    }
    if a.boundary != b.boundary {
        return false;
    }
    match a.class {
        OpClass::Load | OpClass::Store => a.mem_addr == b.mem_addr,
        OpClass::Branch => a.branch_pc == b.branch_pc && a.taken == b.taken,
        OpClass::Other => true,
    }
}

/// Records `program`'s execution, then re-executes it while walking the
/// recording in lockstep, asserting the two step feeds agree everywhere —
/// in particular at every task boundary. Returns the number of steps
/// checked (= committed instructions).
///
/// # Errors
///
/// Propagates the interpreter feed's failure modes: execution faults,
/// unmatched boundary crossings, step-budget exhaustion.
///
/// # Panics
///
/// Panics on the first step where the feeds disagree — that is the
/// sanitizer finding a bug in the recording or the cursor.
pub fn check_replay_agreement(
    program: &Program,
    tasks: &TaskProgram,
    max_steps: u64,
) -> Result<u64, TraceError> {
    let replay = record_replay(program, tasks, max_steps)?;
    let mut interp = InterpSource::new(program, tasks, max_steps);
    let mut cursor = ReplayCursor::new(&replay);
    let mut steps = 0u64;
    loop {
        let a = interp.next_step()?;
        let b = cursor.next_step().expect("replay cursor never errors");
        assert!(
            steps_agree(&a, &b),
            "sanitize: step {steps} diverges\n  interpreter: {a:?}\n  replay:      {b:?}"
        );
        steps += 1;
        if a.halt {
            break;
        }
    }
    assert_eq!(
        steps,
        replay.instructions(),
        "sanitize: replay length disagrees with the interpreter"
    );
    Ok(steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiscalar_isa::{AluOp, Cond, ProgramBuilder, Reg};
    use multiscalar_taskform::TaskFormer;

    #[test]
    fn lockstep_feeds_agree_on_a_mixed_program() {
        let mut b = ProgramBuilder::new();
        let main = b.begin_function("main");
        b.load_imm(Reg(1), 0);
        b.load_imm(Reg(2), 300);
        let top = b.here_label();
        b.op_imm(AluOp::And, Reg(3), Reg(1), 7);
        b.store(Reg(1), Reg(3), 0);
        b.load(Reg(4), Reg(3), 0);
        let skip = b.new_label();
        b.branch(Cond::Ne, Reg(3), Reg(0), skip);
        b.op_imm(AluOp::Add, Reg(5), Reg(5), 1);
        b.bind(skip);
        b.op_imm(AluOp::Add, Reg(1), Reg(1), 1);
        b.branch(Cond::Lt, Reg(1), Reg(2), top);
        b.halt();
        b.end_function();
        let p = b.finish(main).unwrap();
        let tasks = TaskFormer::default().form(&p).unwrap();
        let steps = check_replay_agreement(&p, &tasks, 1_000_000).unwrap();
        assert!(steps > 300, "the loop body runs 300 times: {steps}");
    }
}

//! # hashcore-vm
//!
//! The functional executor for HashCore widget programs.
//!
//! In the paper, a widget is a gcc-compiled x86 binary whose output is "a
//! series of snapshots of the computer's register contents captured every few
//! thousand instructions" (Section V). In this reproduction widgets are
//! programs in the portable `hashcore-isa` instruction set and this crate is
//! the machine that runs them:
//!
//! * [`Executor`] executes a validated [`hashcore_isa::Program`]
//!   deterministically, producing the widget's **output byte string** (the
//!   register-snapshot stream that is concatenated with the hash seed and
//!   fed to the second hash gate),
//! * [`PreparedProgram`] and [`ExecScratch`] provide the **zero-allocation
//!   hot path** ([`Executor::execute_prepared`]): validate and compile the
//!   program in one pass into one flat op per static pc slot (operation,
//!   registers and immediate resolved, so the interpreter dispatches once
//!   per retired instruction), and reuse machine state and output/trace
//!   buffers across runs — the unit of parallel mining fan-out;
//!   [`Executor::execute`] is a wrapper over it,
//! * the interpreter reaches each op's handler through a six-level binary
//!   tree of conditional branches on the op's tag rather than one indirect
//!   jump: generated widgets run long op sequences that do not repeat,
//!   which one indirect jump predicts poorly and the tree's branches
//!   predict well, at some cost on short regular loops (see the loop's
//!   documentation in `exec.rs`),
//! * on request ([`ExecConfig::collect_trace`]) it records a **dynamic
//!   trace** ([`Trace`]) of every retired instruction, which `hashcore-sim`
//!   replays through its micro-architecture model to measure IPC and
//!   branch-prediction behaviour (Figures 2 and 3); the interpreter loop is
//!   compiled once with tracing and once without, so mining pays nothing
//!   for it,
//! * execution is bounded by [`ExecConfig::max_steps`], tested at every
//!   control transfer and at halt, so malformed or adversarial programs —
//!   including ones whose jumps cycle without retiring anything — cannot
//!   spin a verifier forever.
//!
//! The executor is a pure function of the program, the memory seed, and the
//! configuration, which is what makes HashCore verifiable: every node that
//! re-executes the widget obtains the identical output bytes.
//!
//! # Examples
//!
//! ```
//! use hashcore_isa::{ProgramBuilder, IntReg, IntAluOp, Terminator};
//! use hashcore_vm::{ExecConfig, Executor};
//!
//! let mut b = ProgramBuilder::new(256);
//! let entry = b.begin_block();
//! b.load_imm(IntReg(0), 20);
//! b.load_imm(IntReg(1), 22);
//! b.int_alu(IntAluOp::Add, IntReg(2), IntReg(0), IntReg(1));
//! b.snapshot();
//! b.terminate(Terminator::Halt);
//! let program = b.finish(entry);
//!
//! let execution = Executor::new(ExecConfig::default()).execute(&program)?;
//! assert_eq!(execution.final_state.int_regs[2], 42);
//! assert!(!execution.output.is_empty());
//! # Ok::<(), hashcore_vm::ExecError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exec;
mod prepared;
mod state;
mod trace;

pub use exec::{ExecConfig, ExecError, ExecStats, Execution, Executor};
pub use prepared::{ExecScratch, PreparedProgram};
pub use state::{MachineState, SNAPSHOT_BYTES};
pub use trace::{BranchRecord, Trace, TraceEntry};

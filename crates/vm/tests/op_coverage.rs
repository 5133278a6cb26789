//! Every op reaches its own handler.
//!
//! Generated widgets never emit some forms (`Beq`, `Blt`, `Bge`, the FP
//! loads and stores, the vector loads and stores, `FpToInt`, a jump cycle),
//! so the corpus pins cannot tell whether those ops run the right code.
//! Here each form gets one small program, run from seeded registers and
//! memory with the trace on and off: every integer, FP and vector
//! operation in its register and immediate forms, both load-immediate
//! widths, all six loads and stores, snapshots, and every branch condition
//! both taken and not taken (its successors end in jumps). One SHA-256
//! over a program's output, final registers and final memory, and its
//! retired instruction count, are compared against a recorded value.

use hashcore_crypto::{hex, Sha256};
use hashcore_isa::{
    BranchCond, FpOp, FpReg, IntAluOp, IntMulOp, IntReg, Program, ProgramBuilder, Terminator,
    VecOp, VecReg,
};
use hashcore_vm::{ExecConfig, ExecError, Executor};

const MEMORY_SIZE: usize = 256;

/// `(d, a, b)` operand registers of each file.
const INT: (IntReg, IntReg, IntReg) = (IntReg(3), IntReg(5), IntReg(9));
const FP: (FpReg, FpReg, FpReg) = (FpReg(2), FpReg(4), FpReg(7));
const VEC: (VecReg, VecReg, VecReg) = (VecReg(1), VecReg(3), VecReg(6));

/// A one-block program: `body`, then a snapshot and a halt.
fn single(body: impl FnOnce(&mut ProgramBuilder)) -> Program {
    let mut b = ProgramBuilder::new(MEMORY_SIZE);
    let entry = b.begin_block();
    body(&mut b);
    b.snapshot();
    b.terminate(Terminator::Halt);
    b.finish(entry)
}

/// Operand pairs on which the six branch conditions give six different
/// outcome patterns, each with a taken and a not-taken outcome.
const BRANCH_OPERANDS: [(i64, i64); 3] = [(-2, 3), (3, -2), (5, 5)];

/// Branches on `cond` once per pair of [`BRANCH_OPERANDS`], loaded into
/// `r1` and `r2`, and records each outcome in its own register (`r4`, `r5`,
/// `r6`: 1 taken, 2 not taken); both successors jump on to the next test.
fn branches(cond: BranchCond) -> Program {
    let mut p = ProgramBuilder::new(MEMORY_SIZE);
    let entry = p.begin_block();
    for (k, (x, y)) in BRANCH_OPERANDS.into_iter().enumerate() {
        let (taken, not_taken, next) = (p.reserve_block(), p.reserve_block(), p.reserve_block());
        p.load_imm(IntReg(1), x);
        p.load_imm(IntReg(2), y);
        p.branch(cond, IntReg(1), IntReg(2), taken, not_taken);
        for (block, mark) in [(taken, 1), (not_taken, 2)] {
            p.begin_reserved(block);
            p.load_imm(IntReg(4 + k as u8), mark);
            p.terminate(Terminator::Jump(next));
        }
        p.begin_reserved(next);
    }
    p.snapshot();
    p.terminate(Terminator::Halt);
    p.finish(entry)
}

/// One program per form, with its name and the outcomes its branches must
/// take.
///
/// Forms of one shape share their operand registers, so an op wired to
/// another form's handler gives that form's pinned result, not its own.
/// The immediate forms write a different register from the register forms,
/// so no two pins coincide.
fn programs() -> Vec<(String, Program, Vec<bool>)> {
    let mut programs = Vec::new();
    let mut add = |name: String, program: Program| programs.push((name, program, Vec::new()));
    let (d, a, b) = INT;
    for op in IntAluOp::ALL {
        add(op.mnemonic().into(), single(|p| p.int_alu(op, d, a, b)));
        add(
            format!("{}.i", op.mnemonic()),
            single(|p| p.int_alu_imm(op, IntReg(11), a, -0x1234_5677)),
        );
    }
    add("li.32".into(), single(|p| p.load_imm(d, -0x3456_789a)));
    add(
        "li.64".into(),
        single(|p| p.load_imm(d, 0x0123_4567_89ab_cdef)),
    );
    for op in IntMulOp::ALL {
        add(op.mnemonic().into(), single(|p| p.int_mul(op, d, a, b)));
    }
    let (fd, fa, fb) = FP;
    for op in FpOp::ALL {
        add(op.mnemonic().into(), single(|p| p.fp(op, fd, fa, fb)));
    }
    add("fcvt.from".into(), single(|p| p.fp_from_int(fd, a)));
    add("fcvt.to".into(), single(|p| p.fp_to_int(d, fa)));
    add("ld".into(), single(|p| p.load(d, a, -24)));
    add("st".into(), single(|p| p.store(b, a, -24)));
    add("fld".into(), single(|p| p.fp_load(fd, a, 40)));
    add("fst".into(), single(|p| p.fp_store(fb, a, 40)));
    let (vd, va, vb) = VEC;
    add("vld".into(), single(|p| p.vec_load(vd, a, 8)));
    add("vst".into(), single(|p| p.vec_store(vb, a, 8)));
    for op in VecOp::ALL {
        add(op.mnemonic().into(), single(|p| p.vec(op, vd, va, vb)));
    }
    add("snapshot".into(), single(|p| p.snapshot()));
    for cond in BranchCond::ALL {
        let outcomes = BRANCH_OPERANDS
            .iter()
            .map(|&(x, y)| cond.evaluate(x as u64, y as u64))
            .collect();
        programs.push((cond.mnemonic().into(), branches(cond), outcomes));
    }
    programs
}

/// One line per program of [`programs`]: its name, its retired
/// instruction count, and the SHA-256 of its output, final registers and
/// final memory.
const PINS: &str = "
add        2 79c4cc957aef49412b8f0c3e837d1142413e72a7c6d0d068f2773c18618f3ce4
add.i      2 a0ce91e50cff7484d4f538a752e2517aea0e46f3ed7d5092e097530c3d2d9a19
sub        2 34357d1dca465a519f001060686e65be0c8b8258b9a4a436221c81d7d208f7f7
sub.i      2 e3db72ffd06229f1fa6342a70115c37713f91e519a711adbde30dfc5e690b486
and        2 7d7957356b6fdfa14a6c2d46828836e5406e33a1946fcb1e4ca0638f12e8afa9
and.i      2 e1091db6a18addb9c669df10cc20f25ab13bb7116e67fe4b00edba7a627dd3be
or         2 556820cd522e633a2e5636633b9ce03b4882f405ee7145118bee4fd9d050908f
or.i       2 fe18f7256cd221af7a99c445defd9b6444f709f31a65f8dfd394002cea5da769
xor        2 f604c29d08ebf48bec871b0f0beb71d2e8c3db40b5d158f01997c24d2e2ef26f
xor.i      2 c26053efe4f42bbd698e1f49957dbb587345d3830a7388b357b78052c0613ee7
shl        2 095cdafcd1728392c211bdd722e771925312a7f60255215521600f4a545e6f2a
shl.i      2 180be37af70171e0a7a157ea6445e4bf61f5650d0b259c18cb0d1e51eee4e0ca
shr        2 6af7b8163e5d17b29a3cf8b3337ac53dcd45fb5d25e2b96c936a4f6905e2cae6
shr.i      2 3da7d6c68c42899e536f601b032d5b0731cdcf0db14e95fc4fb2bc881f2dfada
rotl       2 827d632ac622e9d2e353ad4b2d9a6ad53477fa0a5f4796563439df29faaed1b4
rotl.i     2 77701696b9f911c39e2098ae30bd4737d894bf3fa2dc022bb99b288bc57efb19
minu       2 2eeec573123d642fae8d91b33f29fc4c40e0505e8177eb9579cb0aaa689b069e
minu.i     2 0fda319934bdb1b75b6fd006dcd64218d1cbfab3b4da31d51386e0769c05aaca
maxu       2 ca1502e80d7504e05f9150b24eb59568db9760507b7f1fc59bc8650111c16d17
maxu.i     2 cfd7935a65770f9db4a3899d8bb316bf03e5d3ec3355f8e18b437f75a14bc812
li.32      2 a81a6289355ebfa6ee837a2852afdd3c077db2ee56ab7016b7c76fe8df5f2834
li.64      2 cc193e5c617e5c56b71691f451157da40a8867a3197d8a05ee09db2e8831d047
mul        2 e16f8ab3efef992edd347bb239be0787de83f067540e70c40752b442df3a3d0d
mulhi      2 987d9136442042ef5f430899c4f69b4da517f59e57bf971b6b08a8d28fbcc658
fadd       2 3188ed193fe88ea58bea58daebc23209a49085570d66f5c5892f6a0606b432b7
fsub       2 89074ceeab7823bec9836164060ef2cf1b8b2ff5d328635e3ba7a70881595a3e
fmul       2 a97115784233c05a9280de71f60f897ccf5188291a4d5b1823b02c84fbd40511
fdiv       2 cc4387aef4e598e2afc3b030d8296d06ebd5616760bd8bf32757e7efab10dac0
fmin       2 9731fe13a756a3ded32f405da5561196a5dc0e05ce1b29939ec9e23ad9039034
fmax       2 e47ee9b8426a33d56c32c8645173b4b3772facc29797f4d46afae4ecee0b18be
fcvt.from  2 31d29619a1683ae60f4dda9139e39fdfbefa05ea398e87037e04e97596c69f3a
fcvt.to    2 d9de80bfacf01e1260bb1232158e1c51de511f471d8646069dc7988eb16ad32b
ld         2 80150859813122f6228ed776dfa78309fccb64cb4595b3eb382a8b8fa7069cee
st         2 89c6fbe454a9439c4c03536b0c6d14074c61ffa1918fb3cad5cc21467dccb25b
fld        2 5c9552ff7d60a0c5c7bc83a923312a93eca41d5f29f6e996efb0d8d41320468c
fst        2 a95ff1c3c8c1617b31701dcef23094eae0310833db1e615cdebf7824ab8d57dd
vld        2 c835265d2742d18c5d14f182de811c71758559495faf807582de8f82e7904cae
vst        2 633b0f99263c3e46a437a447b355e56470a53cd13d298239e3b635f1e5b25ce9
vadd       2 c8c12e2a14a724cc5c817975b07f461b7fbbe2146386eca210802c583ad8d5c5
vxor       2 e428eeb09e06de3db0e36345cbd6f9eab5ba94f08eb9e4669c7924530f9b0d12
vmul       2 f181a431b80d4980b66ecfec5cabe36f7690ec3e2d826cdaaff9329a3d2095e4
vrotl      2 75c5139ba08e7fb2b12b03d1bfba636552524adf397f3c2466f54acf30abe32b
snapshot   2 4ddd4a6281246a0463685332320c500db8e3c4314f9780a4cfc71cdeeb176646
beq       13 7296de4e8ef6d68ca4bab966e1975e32c42d559c86b23b60c2e64fbfe7125314
bne       13 7590b6fd6d0521da36848ee6836877d1faae7192809d7c7ee0bfddfca89726da
blt       13 df5b70ac50a43a3b0824bcd9ee1418fb480174d90ddd9dc40591fbefbc13cad0
bge       13 46ef907ed68650d1bc94c8c3548a3e128290ca0a052006f2bd27acfdd478f39a
bltu      13 e43640bbb3c495491978334125678e90d1bfefc60056539faa32c1f6071e2d35
bgeu      13 328fc2ee60aa0c89de711668cc9c84d5619478054b64d63ed3c9ae8950507eaf
";

/// The `(name, dynamic_instructions, digest)` rows of [`PINS`].
fn pins() -> impl Iterator<Item = (&'static str, u64, &'static str)> {
    PINS.lines().filter(|line| !line.is_empty()).map(|line| {
        let mut fields = line.split_whitespace();
        let mut field = || fields.next().expect("three fields per pin");
        (field(), field().parse().expect("a step count"), field())
    })
}

fn config(collect_trace: bool) -> ExecConfig {
    ExecConfig {
        max_steps: 1_000,
        collect_trace,
        memory_seed: 0x5eed,
    }
}

/// Runs `program` and returns its retired instruction count and the hex
/// SHA-256 over its output, final registers and final memory.
fn run(name: &str, program: &Program, collect_trace: bool, outcomes: &[bool]) -> (u64, String) {
    let exec = Executor::new(config(collect_trace))
        .execute(program)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let traced = if collect_trace {
        exec.dynamic_instructions as usize
    } else {
        0
    };
    assert_eq!(exec.trace.len(), traced, "{name}");
    if collect_trace {
        let taken: Vec<bool> = exec
            .trace
            .iter()
            .filter_map(|e| e.branch)
            .map(|b| b.taken)
            .collect();
        assert_eq!(taken, outcomes, "{name}");
    }
    let state = &exec.final_state;
    let mut hasher = Sha256::new();
    hasher.update(&exec.output);
    for r in state.int_regs {
        hasher.update(&r.to_le_bytes());
    }
    for f in state.fp_regs {
        hasher.update(&f.to_bits().to_le_bytes());
    }
    for lane in state.vec_regs.iter().flatten() {
        hasher.update(&lane.to_le_bytes());
    }
    for addr in (0..state.memory_size() as u64).step_by(8) {
        hasher.update(&state.load64(addr).to_le_bytes());
    }
    (exec.dynamic_instructions, hex::encode(&hasher.finalize()))
}

#[test]
fn every_op_form_matches_its_pin_in_both_trace_modes() {
    let programs = programs();
    let mut actual = Vec::new();
    for (name, program, outcomes) in &programs {
        let untraced = run(name, program, false, outcomes);
        let traced = run(name, program, true, outcomes);
        assert_eq!(traced, untraced, "{name}");
        actual.push((name.as_str(), untraced.0, untraced.1));
    }
    let pinned: Vec<(&str, u64, String)> = pins()
        .map(|(name, steps, digest)| (name, steps, digest.to_string()))
        .collect();
    assert_eq!(actual, pinned);
}

/// The pins tell every form apart, so a form run by another form's
/// handler cannot match its own pin.
#[test]
fn every_pin_is_distinct() {
    let mut digests: Vec<&str> = pins().map(|(_, _, digest)| digest).collect();
    let count = digests.len();
    digests.sort_unstable();
    digests.dedup();
    assert_eq!(digests.len(), count);
}

/// An empty block that jumps to itself compiles to the never-halting op,
/// which fails the run at once in both trace modes.
#[test]
fn a_jump_cycle_reaches_the_never_halts_op() {
    let mut b = ProgramBuilder::new(MEMORY_SIZE);
    let entry = b.begin_block();
    let spin = b.reserve_block();
    let halt = b.reserve_block();
    b.load_imm(IntReg(0), 1);
    b.terminate(Terminator::Jump(spin));
    b.begin_reserved(spin);
    b.terminate(Terminator::Jump(spin));
    b.begin_reserved(halt);
    b.terminate(Terminator::Halt);
    let program = b.finish(entry);
    for collect_trace in [false, true] {
        let result = Executor::new(config(collect_trace)).execute(&program);
        assert_eq!(
            result.map(|e| e.dynamic_instructions),
            Err(ExecError::StepLimitExceeded { limit: 1_000 })
        );
    }
}

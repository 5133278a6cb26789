//! Pinned widget corpus.
//!
//! Sixteen seeds per built-in profile, at the profile's default size, are
//! generated, encoded, decoded and executed with tracing on. One SHA-256
//! each over the encoded programs, the widget outputs and the traced
//! `(pc, class, mem_addr, branch)` entries is compared against a recorded
//! value, as are the encodings of the four reference workload programs and
//! the quickstart digest. A change to how programs are built, stored or run
//! that moves a single block id, static pc, program byte, output byte or
//! trace entry fails here, so a refactor of the program layout has to leave
//! every one of these digests as it is.

use hashcore::HashCore;
use hashcore_crypto::{hex, sha256, Sha256};
use hashcore_gen::WidgetGenerator;
use hashcore_isa::{decode, encode, OpClass};
use hashcore_profile::{HashSeed, PerformanceProfile};
use hashcore_vm::{Executor, TraceEntry};
use hashcore_workloads::{Workload, WorkloadParams};

/// Seeds per profile: `sha256(i.to_le_bytes())` for `i` in `0..SEEDS`.
const SEEDS: u64 = 16;

/// Hex SHA-256 digests over one profile's corpus.
#[derive(Debug, PartialEq, Eq)]
struct CorpusDigests {
    programs: String,
    outputs: String,
    traces: String,
}

/// Appends the canonical bytes of one trace entry: pc (u32 LE), the class's
/// index in `OpClass::ALL`, then the memory address and the branch outcome,
/// each behind a presence byte.
fn write_trace_entry(out: &mut Vec<u8>, entry: &TraceEntry) {
    out.extend_from_slice(&entry.pc.to_le_bytes());
    let class = OpClass::ALL
        .iter()
        .position(|&c| c == entry.class)
        .expect("known class");
    out.push(class as u8);
    match entry.mem_addr {
        Some(addr) => {
            out.push(1);
            out.extend_from_slice(&addr.to_le_bytes());
        }
        None => out.push(0),
    }
    match entry.branch {
        Some(branch) => {
            out.push(1);
            out.push(u8::from(branch.taken));
            out.extend_from_slice(&branch.target_pc.to_le_bytes());
        }
        None => out.push(0),
    }
}

fn corpus_digests(profile: PerformanceProfile) -> CorpusDigests {
    let generator = WidgetGenerator::new(profile);
    let mut programs = Sha256::new();
    let mut outputs = Sha256::new();
    let mut traces = Sha256::new();
    let mut trace_bytes = Vec::new();
    for i in 0..SEEDS {
        let seed = HashSeed::new(sha256(&i.to_le_bytes()));
        let widget = generator.generate(&seed);
        let bytes = encode(&widget.program);
        // Equality must not depend on how the program was assembled: the
        // decoder builds it in block order, the generator in emission order.
        let decoded = decode(&bytes).expect("an encoded widget decodes");
        assert_eq!(decoded, widget.program, "seed {i}: decode(encode(w)) != w");
        programs.update(&bytes);

        let execution = Executor::new(widget.exec_config())
            .execute(&widget.program)
            .expect("a generated widget halts");
        outputs.update(&execution.output);
        trace_bytes.clear();
        for entry in execution.trace.iter() {
            write_trace_entry(&mut trace_bytes, entry);
        }
        traces.update(&trace_bytes);
    }
    CorpusDigests {
        programs: hex::encode(&programs.finalize()),
        outputs: hex::encode(&outputs.finalize()),
        traces: hex::encode(&traces.finalize()),
    }
}

#[test]
fn leela_like_corpus_is_pinned() {
    assert_eq!(
        corpus_digests(PerformanceProfile::leela_like()),
        CorpusDigests {
            programs: "74fe95b0747e22a54927f9d02d76daee8b05cbe84bc28e8c106825ce9334c163".into(),
            outputs: "78370b7d023f4b79fb140c96fd1888d5d7fbfa537dbedbb8542c6ea7f90a1d51".into(),
            traces: "20bf2053b10431d2ad20b78457be70c7af796736409b6c0c2c55be5adc839c94".into(),
        }
    );
}

#[test]
fn fp_stencil_like_corpus_is_pinned() {
    assert_eq!(
        corpus_digests(PerformanceProfile::fp_stencil_like()),
        CorpusDigests {
            programs: "eeb51bc7b0fd08f764a329efd72fe8ad19d69f3713ecced09550e38f067d8664".into(),
            outputs: "4ce35dc153c7f6eafd71b6f56a31484384385160cab75694770f5a0e70be5e2a".into(),
            traces: "c42321e99300b46c402d1e3064a34fb5c664d91861e0f7b9199f4829e2bedd73".into(),
        }
    );
}

#[test]
fn reference_workload_encodings_are_pinned() {
    let pinned: [(Workload, usize, &str); 4] = [
        (
            Workload::GoEngine,
            367,
            "2c462bbe71ad269395b3153da6395e9f911bf87f340cb4883f71e35e0e826744",
        ),
        (
            Workload::Deflate,
            293,
            "cdd9c72ad4977db4e4c0ab3a478a9d57e95dd55cecdcfccfd0cbd974046036e0",
        ),
        (
            Workload::Mcf,
            256,
            "4064f6819a790eea5c4cfaa7aa47c44aeec933a0189059a6ae43875e0e3fb693",
        ),
        (
            Workload::LbmStencil,
            270,
            "2c22bef165df0c98da6142ba4da11877e7969f28bad52ab39039ff93becb53a1",
        ),
    ];
    for (workload, len, digest) in pinned {
        let program = workload.build(&WorkloadParams::reference());
        let bytes = encode(&program);
        assert_eq!(decode(&bytes).as_ref(), Ok(&program), "{}", workload.name());
        assert_eq!(
            (bytes.len(), hex::encode(&sha256(&bytes)).as_str()),
            (len, digest),
            "{}",
            workload.name()
        );
    }
}

#[test]
fn quickstart_digest_is_pinned() {
    let mut profile = PerformanceProfile::leela_like();
    profile.target_dynamic_instructions = 20_000;
    let output = HashCore::new(profile)
        .hash(b"quickstart block header")
        .expect("the quickstart widget halts");
    assert_eq!(
        hex::encode(&output.digest),
        "405fb241db4767643005d01be8136148c7ff1b416202ebcf5605157d16dc3d26"
    );
}

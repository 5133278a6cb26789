//! Widget analysis: look inside the inverted-benchmarking pipeline.
//!
//! Profiles the Leela-like Go-engine reference workload on the simulated
//! core, generates a widget from a hash seed, and compares the widget's
//! measured behaviour (instruction mix, IPC, branch prediction) against the
//! reference — a single-widget version of Figures 2 and 3. Also prints the
//! widget's disassembly header and a preview of its generated C source.
//!
//! Run with: `cargo run --release --example widget_analysis`

use hashcore_crypto::sha256;
use hashcore_gen::WidgetGenerator;
use hashcore_isa::emit_c_source;
use hashcore_profile::{HashSeed, ProfileDistance};
use hashcore_sim::{CoreConfig, CoreModel, WorkloadProfiler};
use hashcore_vm::Executor;
use hashcore_workloads::{Workload, WorkloadParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Profile the reference workload (the paper's "profile Leela" step).
    let core = CoreConfig::ivy_bridge_like();
    let reference = Workload::GoEngine.reference_profile(&WorkloadParams::reference(), core)?;
    println!("reference workload profile:\n{reference}\n");

    // 2. Generate a widget from a hash seed (the paper's PerfProx-style step).
    let generator = WidgetGenerator::new(reference.clone());
    let seed = HashSeed::new(sha256(b"widget analysis example"));
    let widget = generator.generate(&seed);
    println!(
        "generated widget: {} basic blocks, {} expected snapshots, {} B data segment",
        widget.program.blocks().len(),
        widget.expected_snapshots,
        widget.program.memory_size()
    );

    // 3. Execute and measure it exactly as the reference was measured.
    let execution = Executor::new(widget.exec_config()).execute(&widget.program)?;
    let sim = CoreModel::new(core).simulate(&widget.program, &execution.trace);
    let measured = WorkloadProfiler::new(core).profile("widget", &widget.program, &execution.trace);

    println!("\nwidget vs reference on the simulated Ivy Bridge-class core:");
    println!(
        "  IPC:               {:.3} vs {:.3}",
        sim.counters.ipc(),
        reference.reference_ipc
    );
    println!(
        "  branch hit rate:   {:.4} vs {:.4}",
        sim.counters.branch_hit_rate(),
        reference.reference_branch_hit_rate
    );
    println!(
        "  profile distance:  {}",
        ProfileDistance::between(&measured, &reference)
    );
    println!(
        "  output:            {} bytes from {} snapshots",
        execution.output.len(),
        execution.snapshot_count
    );

    // 4. Show the artefacts a miner/verifier never needs to read but a
    //    researcher will: assembly and the C rendering of the widget.
    let asm = widget.program.to_string();
    let c_source = emit_c_source(&widget.program);
    println!("\nfirst lines of the widget disassembly:");
    for line in asm.lines().take(12) {
        println!("  {line}");
    }
    println!(
        "\nfirst lines of the C rendering (the paper's gcc pipeline; not yet bit-exact with the VM):"
    );
    for line in c_source.lines().take(12) {
        println!("  {line}");
    }
    Ok(())
}

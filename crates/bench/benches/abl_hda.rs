//! Ablation: the heterogeneous-dataflow choice itself — MT-only vs SA-only
//! vs the combined HDA, across both phases.

use ador_bench::{claim, table};
use ador_core::hw::memory::DramSpec;
use ador_core::hw::{Architecture, MacTree, SystolicArray};
use ador_core::model::presets;
use ador_core::perf::{Deployment, Evaluator};
use ador_core::units::{Bandwidth, Bytes, Frequency};

fn build(name: &str, sa: Option<usize>, mt: Option<(usize, usize)>) -> Architecture {
    let mut b = Architecture::builder(name)
        .cores(32)
        .local_memory(Bytes::from_kib(2048))
        .global_memory(Bytes::from_mib(16))
        .dram(DramSpec::hbm2e(
            Bytes::from_gib(80),
            Bandwidth::from_tbps(2.0),
        ))
        .frequency(Frequency::from_mhz(1500.0));
    if let Some(dim) = sa {
        b = b.systolic_array(SystolicArray::square(dim));
    }
    if let Some((size, lanes)) = mt {
        b = b.mac_tree(MacTree::new(size, lanes));
    }
    b.build()
}

fn main() {
    let model = presets::llama3_8b();
    // Iso-ish MAC budgets: SA-only 64x64, MT-only with a wide bank, HDA.
    let designs = [
        ("SA-only 64x64", build("sa-only", Some(64), None)),
        ("MT-only 16x256", build("mt-only", None, Some((16, 256)))),
        ("HDA 64x64 + 16x16", build("hda", Some(64), Some((16, 16)))),
    ];

    let mut rows = Vec::new();
    for (label, arch) in &designs {
        let eval = Evaluator::new(arch, &model, Deployment::single_device()).expect("fits");
        let ttft = eval.ttft(1, 1024).expect("prefill");
        let tbt32 = eval.decode_interval(32, 1024).expect("decode");
        let tbt150 = eval.decode_interval(150, 1024).expect("decode");
        rows.push(vec![
            label.to_string(),
            format!("{:.1}", ttft.as_millis()),
            format!("{:.2}", tbt32.as_millis()),
            format!("{:.2}", tbt150.as_millis()),
        ]);
    }
    table(
        "Ablation: dataflow composition (LLaMA3 8B)",
        &["design", "TTFT@1k (ms)", "TBT b32 (ms)", "TBT b150 (ms)"],
        &rows,
    );

    let sa_ttft: f64 = rows[0][1].parse().unwrap();
    let mt_ttft: f64 = rows[1][1].parse().unwrap();
    let hda_ttft: f64 = rows[2][1].parse().unwrap();
    let sa_tbt: f64 = rows[0][2].parse().unwrap();
    let hda_tbt: f64 = rows[2][2].parse().unwrap();
    claim(
        "ablation HDA balances both axes",
        "HDA matches the SA's prefill and the MT's decode simultaneously (paper §II-C: HDA beats single-dataflow designs)",
        &format!(
            "TTFT: SA {sa_ttft:.0} / MT {mt_ttft:.0} / HDA {hda_ttft:.0} ms; TBT b32: SA {sa_tbt:.2} -> HDA {hda_tbt:.2} ms"
        ),
    );
}

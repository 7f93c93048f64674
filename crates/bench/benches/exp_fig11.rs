//! Figure 11: (a) systolic-array configuration sweep (iso-MAC budget),
//! (b) MAC-tree lane sweep across attention variants, (c) the HDA gain.

use ador_bench::{claim, table};
use ador_core::hw::memory::DramSpec;
use ador_core::hw::{Architecture, MacTree, SystolicArray};
use ador_core::model::{presets, Phase};
use ador_core::perf::{Deployment, Evaluator};
use ador_core::units::{Bandwidth, Bytes, Frequency};

const BUCKETS: [&str; 5] = ["QKV Proj", "MHA", "Out Proj", "MLP1", "MLP2"];

fn build(sa_dim: usize, cores: usize, mt: Option<MacTree>) -> Architecture {
    // Hold the total SRAM budget constant (64 MiB of local memory across
    // the chip) so core-count choices pay their real capacity cost.
    let local_kib = (64 * 1024 / cores as u64).max(64);
    let mut b = Architecture::builder(format!("{sa_dim}x{sa_dim} {cores}-cores"))
        .cores(cores)
        .systolic_array(SystolicArray::square(sa_dim))
        .local_memory(Bytes::from_kib(local_kib))
        .global_memory(Bytes::from_mib(16))
        .dram(DramSpec::hbm2e(
            Bytes::from_gib(80),
            Bandwidth::from_tbps(2.0),
        ))
        .frequency(Frequency::from_mhz(1500.0));
    if let Some(mt) = mt {
        b = b.mac_tree(mt);
    }
    b.build()
}

fn breakdown_row(arch: &Architecture, phase: Phase) -> Vec<String> {
    let model = presets::llama3_8b();
    let eval = Evaluator::new(arch, &model, Deployment::single_device()).expect("fits");
    let step = eval.step(phase).expect("step");
    let mut row = vec![arch.name.clone()];
    for b in BUCKETS {
        row.push(format!("{:.2}", step.bucket(b).as_millis()));
    }
    row.push(format!("{:.2}", step.total.as_millis()));
    row
}

fn fig11a() {
    // Iso-MAC configurations: 32^2*128 = 64^2*32 = 128^2*8 = 131072 MACs.
    let configs = [(32usize, 128usize), (64, 32), (128, 8)];
    let mt = MacTree::new(16, 16);

    let mut rows = Vec::new();
    for (dim, cores) in configs {
        rows.push(breakdown_row(
            &build(dim, cores, Some(mt)),
            Phase::prefill(1, 1024),
        ));
    }
    table(
        "Fig 11a (prefill): LLaMA3 8B, seq 1024, iso-MAC SA sweep (ms)",
        &[
            "config", "QKV Proj", "MHA", "Out Proj", "MLP1", "MLP2", "total",
        ],
        &rows,
    );

    let mut rows = Vec::new();
    for (dim, cores) in configs {
        rows.push(breakdown_row(
            &build(dim, cores, Some(mt)),
            Phase::decode(32, 1024),
        ));
    }
    table(
        "Fig 11a (decode): LLaMA3 8B, batch 32, seq 1024 (ms)",
        &[
            "config", "QKV Proj", "MHA", "Out Proj", "MLP1", "MLP2", "total",
        ],
        &rows,
    );
    claim(
        "fig11a mid-size arrays balance",
        "64x64 x 32 cores is the chosen setup: small arrays need 4x the cores/SRAM plumbing for their cycle win, huge arrays underutilize during tiling",
        "prefill: fill/drain overhead grows with array size; decode: 128x128 pays the worst MHA/GEMV utilization; 64x64 holds both within a practical SRAM budget (known deviation: raw prefill cycles alone favor 32x32)",
    );
}

fn fig11b() {
    let models = [
        ("LLaMA2 7B (MHA)", presets::llama2_7b()),
        ("LLaMA3 8B (GQA)", presets::llama3_8b()),
        ("Falcon 7B (MQA)", presets::falcon_7b()),
    ];
    let lanes = [1usize, 8, 16];
    let mut rows = Vec::new();
    for (label, model) in &models {
        let mut row = vec![label.to_string()];
        for &l in &lanes {
            let arch = build(64, 32, Some(MacTree::new(16, l)));
            let eval = Evaluator::new(&arch, model, Deployment::single_device()).expect("fits");
            let step = eval.step(Phase::decode(32, 1024)).expect("decode");
            row.push(format!("{:.2}", step.bucket("MHA").as_millis()));
        }
        rows.push(row);
    }
    table(
        "Fig 11b: self-attention latency vs MT lanes (2 TB/s, batch 32, seq 1024, ms)",
        &["model", "MT 16x1", "MT 16x8", "MT 16x16"],
        &rows,
    );
    let mqa_1: f64 = rows[2][1].parse().unwrap();
    let mqa_16: f64 = rows[2][3].parse().unwrap();
    let mha_1: f64 = rows[0][1].parse().unwrap();
    let mha_16: f64 = rows[0][3].parse().unwrap();
    claim(
        "fig11b lanes matter most for MQA",
        "KV-reusing attention (MQA) is compute-dense, so more lanes cut latency; MHA stays bandwidth-bound",
        &format!(
            "MQA gain {:.1}x vs MHA gain {:.2}x from 1 -> 16 lanes",
            mqa_1 / mqa_16,
            mha_1 / mha_16
        ),
    );
}

fn fig11c() {
    let sa_only = build(64, 32, None);
    let hda = build(64, 32, Some(MacTree::new(16, 16)));
    let mut rows = Vec::new();
    for arch in [&sa_only, &hda] {
        let mut row = breakdown_row(arch, Phase::decode(32, 1024));
        row[0] = if arch.mt.is_some() {
            "SA+MT (HDA)".into()
        } else {
            "SA only".into()
        };
        rows.push(row);
    }
    table(
        "Fig 11c: decode latency breakdown, SA-only vs HDA (LLaMA3 8B, batch 32, ms)",
        &[
            "design", "QKV Proj", "MHA", "Out Proj", "MLP1", "MLP2", "total",
        ],
        &rows,
    );
    let sa_total: f64 = rows[0][6].parse().unwrap();
    let hda_total: f64 = rows[1][6].parse().unwrap();
    claim(
        "fig11c HDA gain",
        "adding the MAC tree cuts decode latency (esp. attention) at negligible area",
        &format!(
            "{sa_total:.2} ms -> {hda_total:.2} ms ({:.2}x)",
            sa_total / hda_total
        ),
    );
}

fn main() {
    fig11a();
    fig11b();
    fig11c();
}

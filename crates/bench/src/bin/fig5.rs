//! Figure 5: hardware cost (a: area, b: delay, c: energy) per MAC-unit
//! configuration, as series over the four formats for the six design
//! variants. Prints each panel as CSV (paper series and model series) plus
//! an ASCII bar chart of the paper data.

#![forbid(unsafe_code)]

use srmac_fp::FpFormat;
use srmac_hwcost::paper::{table1, table1_formats, AdderConfig, DesignKind};
use srmac_hwcost::AsicModel;

const VARIANTS: [(DesignKind, bool, &str); 6] = [
    (DesignKind::Rn, true, "RN, Sub ON"),
    (DesignKind::Rn, false, "RN, Sub OFF"),
    (DesignKind::SrLazy, true, "SR lazy, Sub ON"),
    (DesignKind::SrLazy, false, "SR lazy, Sub OFF"),
    (DesignKind::SrEager, true, "SR eager, Sub ON"),
    (DesignKind::SrEager, false, "SR eager, Sub OFF"),
];

fn main() {
    let model = AsicModel::calibrated();
    let points = table1();
    let fmt_names = ["E8M23", "E5M10", "E8M7", "E6M5"];

    let metric = |p: &srmac_hwcost::AsicPoint, which: usize| match which {
        0 => p.area,
        1 => p.delay,
        _ => p.energy,
    };
    let model_metric = |c: &AdderConfig, which: usize| {
        let cost = model.cost(c);
        match which {
            0 => cost.area,
            1 => cost.delay,
            _ => cost.energy,
        }
    };

    for (which, (title, unit)) in [
        ("Fig. 5a — Area per MAC unit configuration", "um^2"),
        ("Fig. 5b — Delay per MAC unit configuration", "ns"),
        ("Fig. 5c — Energy per MAC unit configuration", "nW/MHz"),
    ]
    .iter()
    .enumerate()
    {
        println!("{title} [{unit}]");
        println!("series,source,{}", fmt_names.join(","));
        let mut maxv = 0.0f64;
        let mut paper_rows = Vec::new();
        for &(kind, sub, label) in &VARIANTS {
            let mut paper_vals = Vec::new();
            let mut model_vals = Vec::new();
            for (e, m) in table1_formats() {
                let fmt = FpFormat::of(e, m).with_subnormals(sub);
                let p = points
                    .iter()
                    .find(|p| p.config.kind == kind && p.config.fmt == fmt)
                    .expect("table1 covers all variants");
                paper_vals.push(metric(p, which));
                model_vals.push(model_metric(&p.config, which));
                maxv = maxv.max(metric(p, which));
            }
            println!(
                "{label},paper,{}",
                paper_vals
                    .iter()
                    .map(|v| format!("{v:.2}"))
                    .collect::<Vec<_>>()
                    .join(",")
            );
            println!(
                "{label},model,{}",
                model_vals
                    .iter()
                    .map(|v| format!("{v:.2}"))
                    .collect::<Vec<_>>()
                    .join(",")
            );
            paper_rows.push((label, paper_vals));
        }
        // ASCII chart of the paper series.
        println!();
        for (fi, fname) in fmt_names.iter().enumerate() {
            println!("  {fname}:");
            for (label, vals) in &paper_rows {
                let v = vals[fi];
                let bars = ((v / maxv) * 46.0).round() as usize;
                println!("    {label:<18} {:<46} {v:.2}", "#".repeat(bars));
            }
        }
        println!();
    }
    println!(
        "shape checks: eager < lazy everywhere; E6M5 < E8M7 < E5M10 < E8M23 within each design;"
    );
    println!("removing subnormal support reduces cost (within synthesis noise).");
}

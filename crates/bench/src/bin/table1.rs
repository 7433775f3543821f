//! Table I: 28nm hardware cost (energy, area, delay) for all 24 FP adder
//! configurations — {RN, SR lazy, SR eager} x {W/, W/O Sub} x {E8M23,
//! E5M10, E8M7, E6M5}, with the paper's r = p + 3.
//!
//! The "model" columns come from the structural cost model of
//! `srmac-hwcost`, calibrated on this very table (scales only — orderings
//! are structural); the "paper" columns reprint the published numbers, and
//! the error column quantifies the fit. The footer prints the paper's
//! headline eager-vs-lazy savings computed from both sources.

#![forbid(unsafe_code)]

use srmac_bench::table;
use srmac_hwcost::paper::table1;
use srmac_hwcost::{relative_errors, AsicModel, DesignKind};

fn main() {
    let model = AsicModel::calibrated();
    let points = table1();

    let mut rows = Vec::new();
    for p in &points {
        let c = model.cost(&p.config);
        rows.push(vec![
            p.config.label(),
            format!("{}", p.config.r),
            format!("{:.2}", p.energy),
            format!("{:.2}", c.energy),
            format!("{:.2}", p.area),
            format!("{:.1}", c.area),
            format!("{:.2}", p.delay),
            format!("{:.2}", c.delay),
        ]);
    }
    println!("Table I — 28nm FDSOI adder cost: paper (Synopsys) vs calibrated structural model\n");
    println!(
        "{}",
        table::render(
            &[
                "Configuration",
                "r",
                "E paper",
                "E model",
                "A paper",
                "A model",
                "D paper",
                "D model",
            ],
            &rows
        )
    );

    let [(am, ax), (dm, dx), (em, ex)] = relative_errors(&model, &points);
    println!(
        "model fit: area mean/max rel err {:.1}%/{:.1}%, delay {:.1}%/{:.1}%, energy {:.1}%/{:.1}%\n",
        am * 100.0, ax * 100.0, dm * 100.0, dx * 100.0, em * 100.0, ex * 100.0
    );

    // Headline: eager vs lazy savings ("up to 26.6% latency and 18.5% area").
    let mut best_delay = (0.0f64, String::new());
    let mut best_area = (0.0f64, String::new());
    let mut best_delay_m = 0.0f64;
    let mut best_area_m = 0.0f64;
    for lazy in points
        .iter()
        .filter(|p| p.config.kind == DesignKind::SrLazy)
    {
        let eager = points
            .iter()
            .find(|p| p.config.kind == DesignKind::SrEager && p.config.fmt == lazy.config.fmt)
            .expect("matching eager row");
        let d_save = 1.0 - eager.delay / lazy.delay;
        let a_save = 1.0 - eager.area / lazy.area;
        if d_save > best_delay.0 {
            best_delay = (d_save, lazy.config.label());
        }
        if a_save > best_area.0 {
            best_area = (a_save, lazy.config.label());
        }
        let cm_l = model.cost(&lazy.config);
        let cm_e = model.cost(&eager.config);
        best_delay_m = best_delay_m.max(1.0 - cm_e.delay / cm_l.delay);
        best_area_m = best_area_m.max(1.0 - cm_e.area / cm_l.area);
    }
    println!(
        "eager vs lazy, best case: paper {:.1}% latency ({}), {:.1}% area ({}); model {:.1}% / {:.1}%",
        best_delay.0 * 100.0,
        best_delay.1,
        best_area.0 * 100.0,
        best_area.1,
        best_delay_m * 100.0,
        best_area_m * 100.0
    );
    println!("paper claim: \"up to 26.6% latency and 18.5% area savings\" (Sec. V)");
}

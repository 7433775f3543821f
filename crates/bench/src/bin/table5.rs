//! Table V: impact of the number of random bits r on hardware overhead for
//! the eager SR E6M5 adder without subnormals, against the RN FP16/FP32
//! reference rows. Only the r = 9 point was used in calibration (via
//! Table I); the other r values are held-out model predictions.

#![forbid(unsafe_code)]

use srmac_bench::table;
use srmac_fp::FpFormat;
use srmac_hwcost::paper::{table5_references, table5_sweep, AdderConfig, DesignKind};
use srmac_hwcost::AsicModel;

fn main() {
    let model = AsicModel::calibrated();
    let mut rows = Vec::new();
    for p in table5_sweep() {
        let c = model.cost(&p.config);
        rows.push(vec![
            format!("SR eager W/O Sub E6M5 r={}", p.config.r),
            format!("{:.2}", p.delay),
            format!("{:.2}", c.delay),
            format!("{:.2}", p.area),
            format!("{:.1}", c.area),
            format!("{:.2}", p.energy),
            format!("{:.2}", c.energy),
        ]);
    }
    for p in table5_references() {
        let c = model.cost(&p.config);
        rows.push(vec![
            p.config.label(),
            format!("{:.2}", p.delay),
            format!("{:.2}", c.delay),
            format!("{:.2}", p.area),
            format!("{:.1}", c.area),
            format!("{:.2}", p.energy),
            format!("{:.2}", c.energy),
        ]);
    }
    println!(
        "Table V — hardware overhead vs random bits r (r != 9 rows are held-out predictions)\n"
    );
    println!(
        "{}",
        table::render(
            &[
                "Configuration",
                "D paper",
                "D model",
                "A paper",
                "A model",
                "E paper",
                "E model"
            ],
            &rows
        )
    );

    // Headline: r = 13 eager vs RN FP16 ("29.3% and 13.1% savings in
    // latency and area ... w.r.t. an FP16 accumulator with RN support").
    let ours = table5_sweep()
        .into_iter()
        .find(|p| p.config.r == 13)
        .unwrap();
    let fp16 = &table5_references()[0];
    println!(
        "r=13 eager E6M5 vs RN FP16: paper {:.1}% latency, {:.1}% area, {:.1}% energy savings",
        (1.0 - ours.delay / fp16.delay) * 100.0,
        (1.0 - ours.area / fp16.area) * 100.0,
        (1.0 - ours.energy / fp16.energy) * 100.0,
    );
    let m_ours = model.cost(&AdderConfig::new(
        DesignKind::SrEager,
        FpFormat::e6m5().with_subnormals(false),
        13,
    ));
    let m_fp16 = model.cost(&AdderConfig::new(DesignKind::Rn, FpFormat::e5m10(), 0));
    let m_fp32 = model.cost(&AdderConfig::new(DesignKind::Rn, FpFormat::e8m23(), 0));
    println!(
        "model:                      {:.1}% latency, {:.1}% area, {:.1}% energy savings",
        (1.0 - m_ours.delay / m_fp16.delay) * 100.0,
        (1.0 - m_ours.area / m_fp16.area) * 100.0,
        (1.0 - m_ours.energy / m_fp16.energy) * 100.0,
    );
    println!(
        "vs RN FP32 (\"~50%\" claim):  model {:.1}% latency, {:.1}% area, {:.1}% energy savings",
        (1.0 - m_ours.delay / m_fp32.delay) * 100.0,
        (1.0 - m_ours.area / m_fp32.area) * 100.0,
        (1.0 - m_ours.energy / m_fp32.energy) * 100.0,
    );
}

//! Table II: FPGA (Virtex UltraScale+ VU9P) implementation results for the
//! FP adder designs — LUT/FF/delay, paper vs the calibrated FPGA model.

#![forbid(unsafe_code)]

use srmac_bench::table;
use srmac_hwcost::paper::table2;
use srmac_hwcost::FpgaModel;

fn main() {
    let model = FpgaModel::calibrated();
    let mut rows = Vec::new();
    for p in table2() {
        let c = model.cost(&p.config);
        rows.push(vec![
            p.config.label(),
            format!("{:.0}", p.luts),
            format!("{:.0}", c.luts),
            format!("{:.0}", p.ffs),
            format!("{:.0}", c.ffs),
            format!("{:.2}", p.delay),
            format!("{:.2}", c.delay),
        ]);
    }
    println!("Table II — FPGA adder implementation: paper (Vivado/VU9P) vs calibrated model\n");
    println!(
        "{}",
        table::render(
            &[
                "Configuration",
                "LUT paper",
                "LUT model",
                "FF paper",
                "FF model",
                "D paper",
                "D model"
            ],
            &rows
        )
    );
    let t2 = table2();
    let lazy = &t2[2];
    let eager = &t2[3];
    println!(
        "eager vs lazy on FPGA: paper {:.1}% LUT and {:.1}% delay savings (251 vs 344 LUTs)",
        (1.0 - eager.luts / lazy.luts) * 100.0,
        (1.0 - eager.delay / lazy.delay) * 100.0,
    );
}

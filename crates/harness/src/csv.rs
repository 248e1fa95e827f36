//! CSV rendering of experiment results — the machine-readable counterpart
//! of [`crate::report`], for plotting the figures.
//!
//! Every function returns the file contents; the CLI's `--csv DIR` flag
//! writes one file per experiment. Fields never contain commas, so no
//! quoting is performed.

use crate::experiments::*;
use crate::extensions::{PollutionRow, StalenessRow, POLLUTION_DEPTHS, STALENESS_DELAYS};
use std::fmt::Write as _;

fn depth_header(prefix: &str, s: &mut String) {
    let _ = write!(s, "{prefix}");
    for d in DEPTHS {
        let _ = write!(s, ",d{d}");
    }
    let _ = writeln!(s);
}

/// Table 2 as CSV.
pub fn table2(rows: &[Table2Row]) -> String {
    let mut s = String::from("benchmark,static_tasks,dynamic_tasks,distinct_tasks,instructions\n");
    for r in rows {
        let _ = writeln!(
            s,
            "{},{},{},{},{}",
            r.name, r.static_tasks, r.dynamic_tasks, r.distinct_tasks, r.instructions
        );
    }
    s
}

/// Figure 3 as CSV (fractions in `[0,1]`).
pub fn fig3(rows: &[Fig3Row]) -> String {
    let mut s = String::from("benchmark,view,exits1,exits2,exits3,exits4\n");
    for r in rows {
        for (view, f) in [("static", &r.static_frac), ("dynamic", &r.dynamic_frac)] {
            let _ = writeln!(s, "{},{view},{},{},{},{}", r.name, f[0], f[1], f[2], f[3]);
        }
    }
    s
}

/// Figure 4 as CSV.
pub fn fig4(rows: &[Fig4Row]) -> String {
    let mut s = String::from("benchmark,view,branch,call,return,indirect_branch,indirect_call\n");
    for r in rows {
        for (view, f) in [("static", &r.static_frac), ("dynamic", &r.dynamic_frac)] {
            let _ = writeln!(
                s,
                "{},{view},{},{},{},{},{}",
                r.name, f[0], f[1], f[2], f[3], f[4]
            );
        }
    }
    s
}

/// Figure 6 as CSV (miss rates per depth).
pub fn fig6(curves: &[Fig6Curve]) -> String {
    let mut s = String::new();
    depth_header("automaton", &mut s);
    for c in curves {
        let _ = write!(s, "{}", c.kind.name().replace(' ', "_"));
        for m in &c.miss {
            let _ = write!(s, ",{m}");
        }
        let _ = writeln!(s);
    }
    s
}

/// Figure 7 as CSV.
pub fn fig7(rows: &[Fig7Row]) -> String {
    let mut s = String::new();
    depth_header("benchmark,scheme", &mut s);
    for r in rows {
        let _ = write!(s, "{},{}", r.name, r.scheme.name());
        for m in &r.miss {
            let _ = write!(s, ",{m}");
        }
        let _ = writeln!(s);
    }
    s
}

/// Figure 8 as CSV.
pub fn fig8(rows: &[Fig8Row]) -> String {
    let mut s = String::new();
    depth_header("benchmark,indirect_events", &mut s);
    for r in rows {
        let _ = write!(s, "{},{}", r.name, r.events);
        for m in &r.miss {
            let _ = write!(s, ",{m}");
        }
        let _ = writeln!(s);
    }
    s
}

/// A (benchmark, DOLC configs, real, ideal) slice set — the shape Figures
/// 10 and 12 share.
type LadderRow<'a> = (&'a str, &'a [multiscalar_core::Dolc], &'a [f64], &'a [f64]);

/// Figures 10/12 share a shape: DOLC ladder with real and ideal columns.
fn ladder(rows: &[LadderRow<'_>]) -> String {
    let mut s = String::from("benchmark,dolc,real,ideal\n");
    for (name, configs, real, ideal) in rows {
        for (i, cfg) in configs.iter().enumerate() {
            let _ = writeln!(
                s,
                "{},{},{},{}",
                name,
                cfg.to_string().replace(' ', ""),
                real[i],
                ideal[i]
            );
        }
    }
    s
}

/// Figure 10 as CSV.
pub fn fig10(rows: &[Fig10Row]) -> String {
    ladder(
        &rows
            .iter()
            .map(|r| {
                (
                    r.name,
                    r.configs.as_slice(),
                    r.real.as_slice(),
                    r.ideal.as_slice(),
                )
            })
            .collect::<Vec<_>>(),
    )
}

/// Figure 11 as CSV.
pub fn fig11(rows: &[Fig11Row]) -> String {
    let mut s = String::from("benchmark,depth,ideal_states,real_states\n");
    for r in rows {
        for (d, (i, re)) in r.ideal_states.iter().zip(&r.real_states).enumerate() {
            let _ = writeln!(s, "{},{d},{i},{re}", r.name);
        }
    }
    s
}

/// Figure 12 as CSV.
pub fn fig12(rows: &[Fig12Row]) -> String {
    ladder(
        &rows
            .iter()
            .map(|r| {
                (
                    r.name,
                    r.configs.as_slice(),
                    r.real.as_slice(),
                    r.ideal.as_slice(),
                )
            })
            .collect::<Vec<_>>(),
    )
}

/// Table 3 as CSV.
pub fn table3(rows: &[Table3Row]) -> String {
    let mut s = String::from("benchmark,cttb_only,exit_ras_cttb\n");
    for r in rows {
        let _ = writeln!(s, "{},{},{}", r.name, r.cttb_only, r.exit_with_ras_cttb);
    }
    s
}

/// Table 4 as CSV.
pub fn table4(rows: &[Table4Row]) -> String {
    let mut s = String::from(
        "benchmark,simple_ipc,global_ipc,per_ipc,path_ipc,perfect_ipc,\
         simple_miss,global_miss,per_miss,path_miss\n",
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{},{},{},{},{},{},{},{},{},{}",
            r.name,
            r.simple.ipc(),
            r.global.ipc(),
            r.per.ipc(),
            r.path.ipc(),
            r.perfect.ipc(),
            r.simple.task_miss_rate(),
            r.global.task_miss_rate(),
            r.per.task_miss_rate(),
            r.path.task_miss_rate()
        );
    }
    s
}

/// Staleness extension as CSV.
pub fn staleness(rows: &[StalenessRow]) -> String {
    let mut s = String::from("benchmark");
    for d in STALENESS_DELAYS {
        let _ = write!(s, ",delay{d}");
    }
    let _ = writeln!(s);
    for r in rows {
        let _ = write!(s, "{}", r.name);
        for m in &r.miss {
            let _ = write!(s, ",{m}");
        }
        let _ = writeln!(s);
    }
    s
}

/// Pollution extension as CSV.
pub fn pollution(rows: &[PollutionRow]) -> String {
    let mut s = String::from("benchmark");
    for d in POLLUTION_DEPTHS {
        let _ = write!(s, ",unrepaired_d{d}");
    }
    let _ = writeln!(s, ",repaired_d4");
    for r in rows {
        let _ = write!(s, "{}", r.name);
        for m in &r.unrepaired {
            let _ = write!(s, ",{m}");
        }
        let _ = writeln!(s, ",{}", r.repaired);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepare;
    use multiscalar_workloads::{Spec92, WorkloadParams};

    #[test]
    fn csv_outputs_are_rectangular() {
        let b = prepare(Spec92::Compress, &WorkloadParams::small(1));
        let benches = [b];

        let check = |csv: String| {
            let mut lines = csv.lines();
            let header_cols = lines.next().expect("header").split(',').count();
            assert!(header_cols >= 2);
            for l in lines {
                assert_eq!(
                    l.split(',').count(),
                    header_cols,
                    "row width must match header in:\n{csv}"
                );
            }
        };

        check(table2(&crate::experiments::table2(&benches)));
        check(fig3(&crate::experiments::fig3(&benches)));
        check(fig4(&crate::experiments::fig4(&benches)));
        let pool = crate::pool::Pool::new(2);
        check(fig7(&crate::experiments::fig7(&benches, &pool)));
        check(fig8(&crate::experiments::fig8(&benches, &pool)));
        check(fig10(&crate::experiments::fig10(&benches, &pool)));
        check(fig11(&crate::experiments::fig11(&benches, &pool)));
        check(fig12(&crate::experiments::fig12(&benches, &pool)));
        check(table3(&crate::experiments::table3(&benches, &pool)));
        check(staleness(&crate::extensions::ext_staleness(
            &benches, &pool,
        )));
        check(pollution(&crate::extensions::ext_pollution(
            &benches, &pool,
        )));
    }

    #[test]
    fn csv_values_parse_back_as_numbers() {
        let b = prepare(Spec92::Sc, &WorkloadParams::small(1));
        let csv = fig7(&crate::experiments::fig7(
            std::slice::from_ref(&b),
            &crate::pool::Pool::new(1),
        ));
        for line in csv.lines().skip(1) {
            for field in line.split(',').skip(2) {
                let v: f64 = field.parse().expect("numeric field");
                assert!((0.0..=1.0).contains(&v), "miss rates are fractions: {v}");
            }
        }
    }
}

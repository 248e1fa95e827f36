//! Traced replicas of the paper experiments: the layer calls each
//! `multiscalar_harness::experiments` function makes, in the order a pool
//! of width 1 runs them, each inside its layer span. Rows are built the
//! way the harness builds them and rendered by the harness's own
//! renderers, so the bytes must equal the untraced `all` output.

use multiscalar_core::automata::{AutomatonKind, LastExitHysteresis};
use multiscalar_core::dolc::Dolc;
use multiscalar_core::history::PathPredictor;
use multiscalar_core::predictor::{CttbOnlyPredictor, TaskPredictor};
use multiscalar_harness::dispatch::{
    cttb_ideal_sweep, cttb_ladder, cttb_real_sweep, exit_ladder,
    measure_ideal_path_automaton_sweep, measure_ideal_sweep, path_ideal_sweep, path_real_sweep,
    Scheme, Table4Column,
};
use multiscalar_harness::experiments::{
    self, Fig10Row, Fig11Row, Fig12Row, Fig6Curve, Fig7Row, Fig8Row, Table3Row, Table4Row, DEPTHS,
};
use multiscalar_harness::{report, Bench};
use multiscalar_sim::measure::{lane_packed_sweeps, measure_table3};
use multiscalar_sim::replay::simulate_replay;
use multiscalar_sim::timing::{NextTaskPredictor, TimingConfig, TimingResult};
use multiscalar_workloads::Spec92;

use crate::trace::Tracer;

type Leh2 = LastExitHysteresis<2>;

/// The paper artifacts in `all`-output order.
pub const PAPER: [&str; 11] = [
    "table2", "fig3", "fig4", "fig6", "fig7", "fig8", "fig10", "fig11", "fig12", "table3", "table4",
];

/// Figures 10 and 11 share one predictor pass per dispatch.
pub type Fig10Fig11 = (Vec<Fig10Row>, Vec<Fig11Row>);

/// Runs `f` in the layer span `layer`, counting `cols` columns walked over
/// `events` trace events (`<layer>_col_events`).
fn sweep<T>(
    t: &mut Tracer,
    layer: &'static str,
    counter: &'static str,
    cols: usize,
    events: usize,
    f: impl FnOnce() -> T,
) -> T {
    t.add(counter, (cols * events) as f64);
    t.span(layer, |_| f())
}

fn ideal<T>(t: &mut Tracer, cols: usize, b: &Bench, f: impl FnOnce() -> T) -> T {
    sweep(
        t,
        "dispatch.ideal",
        "dispatch.ideal_col_events",
        cols,
        b.trace.events.len(),
        f,
    )
}

fn scalar<T>(t: &mut Tracer, cols: usize, b: &Bench, f: impl FnOnce() -> T) -> T {
    sweep(
        t,
        "dispatch.scalar",
        "dispatch.scalar_col_events",
        cols,
        b.trace.events.len(),
        f,
    )
}

/// Renders `text` inside the `report.render` span, counting its bytes.
pub fn render(t: &mut Tracer, f: impl FnOnce() -> String) -> String {
    let text = t.span("report.render", |_| f());
    t.add("report.bytes", text.len() as f64);
    text
}

/// `Prepared::subset` for an un-narrowed preparation.
fn subset(benches: &[Bench], wanted: &[Spec92]) -> Vec<Bench> {
    wanted
        .iter()
        .map(|&s| {
            benches
                .iter()
                .find(|b| b.spec == s)
                .expect("prepared")
                .clone()
        })
        .collect()
}

/// Runs one paper experiment and returns its output block (`render` plus
/// the newline `execute` and `all` append). `shared` memoises the
/// Figure 10/11 pass within one dispatch.
pub fn experiment(
    t: &mut Tracer,
    name: &'static str,
    benches: &[Bench],
    shared: &mut Option<Fig10Fig11>,
) -> String {
    t.span(name, |t| {
        let text = match name {
            "table2" => render(t, || report::render_table2(&experiments::table2(benches))),
            "fig3" => render(t, || report::render_fig3(&experiments::fig3(benches))),
            "fig4" => render(t, || report::render_fig4(&experiments::fig4(benches))),
            "fig6" => {
                let curves = fig6(t, benches);
                render(t, || report::render_fig6(&curves))
            }
            "fig7" => {
                let rows = fig7(t, benches);
                render(t, || report::render_fig7(&rows))
            }
            "fig8" => {
                let rows = fig8(t, &subset(benches, &[Spec92::Gcc, Spec92::Xlisp]));
                render(t, || report::render_fig8(&rows))
            }
            "fig10" => {
                let rows = &shared.get_or_insert_with(|| fig10_fig11(t, benches)).0;
                render(t, || report::render_fig10(rows))
            }
            "fig11" => {
                let rows: Vec<Fig11Row> = shared
                    .get_or_insert_with(|| fig10_fig11(t, benches))
                    .1
                    .iter()
                    .filter(|r| r.name == "gcc" || r.name == "espresso")
                    .cloned()
                    .collect();
                render(t, || report::render_fig11(&rows))
            }
            "fig12" => {
                let rows = fig12(t, &subset(benches, &[Spec92::Gcc, Spec92::Xlisp]));
                render(t, || report::render_fig12(&rows))
            }
            "table3" => {
                let rows = table3(t, benches);
                render(t, || report::render_table3(&rows))
            }
            "table4" => {
                let rows = table4(t, benches);
                render(t, || report::render_table4(&rows))
            }
            other => panic!("not a paper experiment: {other}"),
        };
        format!("{text}\n")
    })
}

fn fig6(t: &mut Tracer, benches: &[Bench]) -> Vec<Fig6Curve> {
    let gcc = benches
        .iter()
        .find(|b| b.spec == Spec92::Gcc)
        .unwrap_or(&benches[0]);
    let depths: Vec<u32> = DEPTHS.collect();
    AutomatonKind::ALL
        .iter()
        .map(|&kind| {
            let stats = ideal(t, depths.len(), gcc, || {
                measure_ideal_path_automaton_sweep(kind, &depths, gcc)
            });
            Fig6Curve {
                kind,
                miss: stats.iter().map(|s| s.miss_rate()).collect(),
            }
        })
        .collect()
}

fn fig7(t: &mut Tracer, benches: &[Bench]) -> Vec<Fig7Row> {
    let depths: Vec<u32> = DEPTHS.collect();
    let mut rows = Vec::new();
    for b in benches {
        for scheme in Scheme::ALL {
            let stats = ideal(t, depths.len(), b, || {
                measure_ideal_sweep(scheme, &depths, b)
            });
            rows.push(Fig7Row {
                name: b.name(),
                scheme,
                miss: stats.iter().map(|s| s.miss_rate()).collect(),
            });
        }
    }
    rows
}

fn fig8(t: &mut Tracer, benches: &[Bench]) -> Vec<Fig8Row> {
    let depths: Vec<usize> = DEPTHS.map(|d| d as usize).collect();
    benches
        .iter()
        .map(|b| {
            let stats = ideal(t, depths.len(), b, || cttb_ideal_sweep(&depths, b));
            Fig8Row {
                name: b.name(),
                events: stats.first().map_or(0, |s| s.predictions),
                miss: stats.iter().map(|s| s.miss_rate()).collect(),
            }
        })
        .collect()
}

/// Figures 10 and 11: one lane-packed real sweep and one ideal sweep per
/// benchmark. Counts the sweeps requested and the packed-counter delta.
pub fn fig10_fig11(t: &mut Tracer, benches: &[Bench]) -> Fig10Fig11 {
    let configs = exit_ladder();
    let depths: Vec<u32> = configs.iter().map(|d| d.depth() as u32).collect();
    let mut rows10 = Vec::with_capacity(benches.len());
    let mut rows11 = Vec::with_capacity(benches.len());
    for b in benches {
        let real = lane_sweep(t, &configs, b);
        let ideal = ideal(t, depths.len(), b, || path_ideal_sweep(&depths, b));
        rows10.push(Fig10Row {
            name: b.name(),
            configs: configs.clone(),
            real: real.iter().map(|(s, _)| s.miss_rate()).collect(),
            ideal: ideal.iter().map(|(s, _)| s.miss_rate()).collect(),
        });
        rows11.push(Fig11Row {
            name: b.name(),
            ideal_states: ideal.iter().map(|&(_, n)| n).collect(),
            real_states: real.iter().map(|&(_, n)| n).collect(),
        });
    }
    (rows10, rows11)
}

/// One `path_real_sweep` in the `dispatch.lane` span, with the sweeps
/// requested and the lane-packed counter's delta counted.
pub fn lane_sweep(
    t: &mut Tracer,
    configs: &[Dolc],
    b: &Bench,
) -> Vec<(multiscalar_sim::measure::MissStats, usize)> {
    let before = lane_packed_sweeps();
    let out = sweep(
        t,
        "dispatch.lane",
        "dispatch.lane_col_events",
        configs.len(),
        b.trace.events.len(),
        || path_real_sweep(configs, b),
    );
    t.add("dispatch.lane_requested", 1.0);
    t.add(
        "sim.lane_packed_sweeps",
        (lane_packed_sweeps() - before) as f64,
    );
    out
}

fn fig12(t: &mut Tracer, benches: &[Bench]) -> Vec<Fig12Row> {
    let configs = cttb_ladder();
    let depths: Vec<usize> = configs.iter().map(|d| d.depth()).collect();
    benches
        .iter()
        .map(|b| {
            let real = scalar(t, configs.len(), b, || cttb_real_sweep(&configs, b));
            let ideal = ideal(t, depths.len(), b, || cttb_ideal_sweep(&depths, b));
            Fig12Row {
                name: b.name(),
                configs: configs.clone(),
                real: real.iter().map(|s| s.miss_rate()).collect(),
                ideal: ideal.iter().map(|s| s.miss_rate()).collect(),
            }
        })
        .collect()
}

fn table3(t: &mut Tracer, benches: &[Bench]) -> Vec<Table3Row> {
    benches
        .iter()
        .map(|b| {
            // The same predictors `experiments::table3` builds.
            let mut only = CttbOnlyPredictor::new(Dolc::new(7, 4, 9, 9, 3));
            let mut full = TaskPredictor::<PathPredictor<Leh2>>::path(
                Dolc::new(7, 4, 9, 9, 3),
                Dolc::new(7, 4, 4, 5, 3),
                64,
            );
            let (full_stats, only_stats) = scalar(t, 2, b, || {
                measure_table3(&mut full, &mut only, &b.descs, &b.trace.events)
            });
            Table3Row {
                name: b.name(),
                cttb_only: only_stats.miss_rate(),
                exit_with_ras_cttb: full_stats.next_task.miss_rate(),
            }
        })
        .collect()
}

/// One Table 4 column: a solo `simulate_replay` in the `timing.walk` span.
pub fn walk(t: &mut Tracer, b: &Bench, column: Table4Column) -> TimingResult {
    let config = TimingConfig::paper();
    let mut pred = column.predictor();
    let pred = pred.as_mut().map(|p| p as &mut dyn NextTaskPredictor);
    let r = t.span("timing.walk", |_| {
        simulate_replay(&b.replay, &b.descs, pred, &config)
    });
    t.add("timing.walk_instructions", b.replay.instructions() as f64);
    t.add("timing.sim_cycles", r.cycles as f64);
    r
}

fn table4(t: &mut Tracer, benches: &[Bench]) -> Vec<Table4Row> {
    benches
        .iter()
        .map(|b| {
            let mut cols = Table4Column::ALL.iter().map(|&c| walk(t, b, c));
            Table4Row {
                name: b.name(),
                simple: cols.next().expect("simple column"),
                global: cols.next().expect("global column"),
                per: cols.next().expect("per column"),
                path: cols.next().expect("path column"),
                perfect: cols.next().expect("perfect column"),
            }
        })
        .collect()
}

//! §5: the ISP traffic figures over the main week (figs. 5–14), and the
//! December 2021 outage week (figs. 15–16 and the outage's effect on the
//! cloud-dependent platforms).

use super::{emit_table, Cli, MainWeek};
use iotmap_bench::{Experiment, SCANNER_THRESHOLD};
use iotmap_core::report::{pct, TextTable};
use iotmap_core::Source;
use iotmap_nettypes::StudyPeriod;
use iotmap_traffic::{
    analysis::BUCKET_LABELS, source_ablation, visibility_per_provider, AnalysisReport, RegionGroup,
    ScannerAnalysis,
};
use std::collections::{HashMap, HashSet};
use std::net::IpAddr;

// ------------------------------------------------------------------ Fig 5

pub fn run_fig5(cli: &Cli, exp: &Experiment, (contacts, _, _): &MainWeek) {
    let analysis = ScannerAnalysis::new(&exp.index, contacts);
    let thresholds = [10, 20, 50, 100, 200, 500, 1000];
    let mut t = TextTable::new(&["Threshold", "Lines flagged", "IPv4 visibility"]);
    for p in analysis.curve(&thresholds) {
        t.row(vec![
            p.threshold.to_string(),
            p.lines_excluded.to_string(),
            pct(p.v4_visibility),
        ]);
    }
    emit_table(cli, &t);
    println!(
        "at threshold {SCANNER_THRESHOLD}: v4 visibility {} | v6 visibility {} (paper: ~28% / ~51%)",
        pct(analysis.v4_visibility(SCANNER_THRESHOLD)),
        pct(analysis.v6_visibility(SCANNER_THRESHOLD)),
    );
}

// ------------------------------------------------------------------ Fig 6

pub fn run_fig6(cli: &Cli, exp: &Experiment, (contacts, excluded, _): &MainWeek) {
    let vis = visibility_per_provider(&exp.index, contacts, excluded);
    let mut rows: Vec<_> = vis.iter().collect();
    rows.sort_by_key(|v| exp.label(&v.provider));
    let mut t = TextTable::new(&["Platform", "v4 visible", "v6 visible", "Lines"]);
    for v in rows {
        t.row(vec![
            exp.label(&v.provider).to_string(),
            pct(v.v4),
            v.v6.map(pct).unwrap_or_else(|| "-".to_string()),
            v.lines.to_string(),
        ]);
    }
    emit_table(cli, &t);
}

// ------------------------------------------------------------------ Fig 7

pub fn run_fig7(cli: &Cli, exp: &Experiment, (contacts, excluded, _): &MainWeek) {
    // Restricted map: what certificates alone would have found.
    let mut restricted: HashMap<String, HashSet<IpAddr>> = HashMap::new();
    for (name, disc) in exp.discovery.per_provider() {
        restricted.insert(
            name.to_string(),
            disc.ips_from_sources(&[Source::Certificate]),
        );
    }
    let mut rows = source_ablation(&exp.index, contacts, excluded, &restricted);
    rows.sort_by_key(|(name, _)| exp.label(name));
    let mut t = TextTable::new(&["Platform", "Line loss (TLS-certs-only)"]);
    for (name, decrease) in rows {
        t.row(vec![exp.label(&name).to_string(), pct(decrease)]);
    }
    emit_table(cli, &t);
    println!("(paper: T4, D6, T2, D3 lose almost all lines; two of these rely on SNI)");
}

// -------------------------------------------------------------- Figs 8-12

fn provider_groups(exp: &Experiment) -> Vec<(&'static str, Vec<String>)> {
    let mut top4 = Vec::new();
    let mut cloud = Vec::new();
    let mut rest = Vec::new();
    for (p, l) in exp.anonymization.pairs() {
        match l.chars().next().unwrap() {
            'T' => top4.push(p.to_string()),
            'D' => cloud.push(p.to_string()),
            _ => rest.push(p.to_string()),
        }
    }
    vec![
        ("top-4", top4),
        ("cloud-dependent", cloud),
        ("others", rest),
    ]
}

pub fn run_fig8(_: &Cli, exp: &Experiment, (_, _, report): &MainWeek) {
    let t1 = report.fig8_lines("amazon");
    for (group, providers) in provider_groups(exp) {
        println!("--- {group} ---");
        for p in providers {
            let Some(series) = report.fig8_lines(&p) else {
                continue;
            };
            if series.total() < 15.0 {
                continue; // the paper's ≥15-lines-per-hour filter
            }
            // §5.3: "their activity does not correlate to the one of the
            // platform providers" — report r against T1.
            let corr = t1
                .as_ref()
                .filter(|_| p != "amazon")
                .and_then(|t| series.correlation(t))
                .map(|r| format!("{r:+.2}"))
                .unwrap_or_else(|| "  - ".to_string());
            println!(
                "{}: mean lines/h {:8.1} | diurnality {:5.2} | r(T1) {} | daily peak hours {:?}",
                exp.label(&p),
                series.total() / series.len() as f64,
                series.diurnality(),
                corr,
                series.daily_peak_hours()
            );
        }
    }
}

pub fn run_fig9(_: &Cli, exp: &Experiment, (_, _, report): &MainWeek) {
    for (group, providers) in provider_groups(exp) {
        println!("--- {group} ---");
        for p in providers {
            let Some(series) = report.fig9_downstream(&p) else {
                continue;
            };
            if series.total() <= 0.0 {
                continue;
            }
            let norm = series.normalized();
            let head: Vec<String> = norm.values()[..24.min(norm.len())]
                .iter()
                .map(|v| format!("{v:.2}"))
                .collect();
            println!(
                "{}: total dn {} | first-day normalized series: {}",
                exp.label(&p),
                iotmap_core::report::bytes_h(series.total()),
                head.join(" ")
            );
        }
    }
}

pub fn run_fig10(cli: &Cli, exp: &Experiment, (_, _, report): &MainWeek) {
    let mut t = TextTable::new(&["Platform", "Downstream/Upstream"]);
    let mut rows: Vec<(String, f64)> = report
        .providers()
        .iter()
        .filter_map(|p| report.fig10_ratio(p).map(|r| (p.clone(), r)))
        .collect();
    rows.sort_by_key(|(p, _)| exp.label(p));
    for (p, ratio) in rows {
        t.row(vec![exp.label(&p).to_string(), format!("{ratio:.2}")]);
    }
    emit_table(cli, &t);
    println!("(paper: ratios range from <0.33 to >3)");
}

pub fn run_fig11(_: &Cli, exp: &Experiment, (_, _, report): &MainWeek) {
    for (p, label) in exp
        .anonymization
        .pairs()
        .iter()
        .map(|(p, l)| (p.to_string(), *l))
    {
        let mix = report.fig11_port_mix(&p);
        if mix.is_empty() {
            continue;
        }
        let cells: Vec<String> = mix
            .iter()
            .take(6)
            .map(|(port, f)| format!("{port}={}", pct(*f)))
            .collect();
        println!("{label}: {}", cells.join("  "));
    }
}

pub fn run_fig12a(_: &Cli, _: &Experiment, (_, _, report): &MainWeek) {
    for (dir, down) in [("download", true), ("upload", false)] {
        let e = report.fig12a_ecdf(down);
        if e.is_empty() {
            continue;
        }
        println!(
            "{dir}: line-days {} | P(<=1MB) {} | P(<=10MB) {} | P(<=100MB) {} | median {}",
            e.len(),
            pct(e.fraction_at_or_below(1e6)),
            pct(e.fraction_at_or_below(1e7)),
            pct(e.fraction_at_or_below(1e8)),
            iotmap_core::report::bytes_h(e.median()),
        );
    }
    println!("(paper: >99% of lines exchange <10 MB/day in both directions)");
}

pub fn run_fig12b(cli: &Cli, exp: &Experiment, (_, _, report): &MainWeek) {
    let mut t = TextTable::new(&["Platform", "Line-days", "P(<=10MB)", "Median"]);
    let mut rows: Vec<&String> = report.providers().iter().collect();
    rows.sort_by_key(|p| exp.label(p));
    for p in rows {
        let Some(e) = report.fig12b_ecdf(p) else {
            continue;
        };
        if e.is_empty() {
            continue;
        }
        t.row(vec![
            exp.label(p).to_string(),
            e.len().to_string(),
            pct(e.fraction_at_or_below(1e7)),
            iotmap_core::report::bytes_h(e.median()),
        ]);
    }
    emit_table(cli, &t);
}

pub fn run_fig12c(cli: &Cli, _: &Experiment, (_, _, report): &MainWeek) {
    let mut t = TextTable::new(&["Port", "Line-days", "P(<=10MB)", "P(100MB..1GB)", "Median"]);
    for (port, _) in report.top_ports(7) {
        let e = report.fig12c_ecdf(port);
        if e.is_empty() {
            continue;
        }
        t.row(vec![
            port.to_string(),
            e.len().to_string(),
            pct(e.fraction_at_or_below(1e7)),
            pct(e.fraction_in(1e8, 1e9)),
            iotmap_core::report::bytes_h(e.median()),
        ]);
    }
    emit_table(cli, &t);
    println!("(paper: only TCP/5671 shows ~18% of lines at 100MB–1GB/day, at a single provider)");
}

pub fn run_fig13(_: &Cli, _: &Experiment, (_, _, report): &MainWeek) {
    let (eu_only, us_any, mix, other_only) = report.fig13_line_buckets();
    println!(
        "lines: EU-only {} | contact US {} | EU+US mix {} | Asia/other-only {}",
        pct(eu_only),
        pct(us_any),
        pct(mix),
        pct(other_only)
    );
    let servers = report.fig13_server_buckets();
    let cells: Vec<String> = BUCKET_LABELS
        .iter()
        .zip(servers.iter())
        .map(|(l, f)| format!("{l} {}", pct(*f)))
        .collect();
    println!("servers: {}", cells.join(" | "));
    println!("(paper: 47% EU-only lines, ~40% contact US; servers ~30% EU / 65% US / 5% Asia)");
}

pub fn run_fig14(_: &Cli, _: &Experiment, (_, _, report): &MainWeek) {
    let traffic = report.fig14_traffic_buckets();
    let cells: Vec<String> = BUCKET_LABELS
        .iter()
        .zip(traffic.iter())
        .map(|(l, f)| format!("{l} {}", pct(*f)))
        .collect();
    println!("traffic by server continent: {}", cells.join(" | "));
    let (v4, v6) = report.daily_active_lines();
    println!("mean daily active lines: v4 {v4:.0} | v6 {v6:.0}");
    println!("(paper: >62% EU-EU, ~35% with the US; 2.32M v4 / 202k v6 lines daily at 15M scale)");
}

// ------------------------------------------------- Figs 15/16 (Dec 2021)

/// The outage experiments replay the December 2021 week on the same
/// world. Returns its analysis report and the AWS outage window as hour
/// offsets into the week.
fn outage_week(exp: &Experiment) -> (AnalysisReport, usize, usize) {
    let period = StudyPeriod::outage_week();
    eprintln!("# simulating outage-week ISP traffic…");
    let (_, _, report) = exp.full_traffic_analysis(period);
    let window = StudyPeriod::aws_outage_window();
    let h0 = period.start.epoch_hours();
    let win_from = (window.start.epoch_hours() - h0) as usize;
    let win_to = (window.end.epoch_hours() - h0) as usize;
    (report, win_from, win_to)
}

pub fn run_fig15(_: &Cli, exp: &Experiment) {
    outage_regions(exp, false);
}

pub fn run_fig16(_: &Cli, exp: &Experiment) {
    outage_regions(exp, true);
}

/// T1's US-East and European downstream volume (fig. 15) or subscriber
/// lines (fig. 16, `lines_mode`) in the outage window against the same
/// hours on the other days.
fn outage_regions(exp: &Experiment, lines_mode: bool) {
    let (report, win_from, win_to) = outage_week(exp);
    let t1 = "amazon";
    for group in [RegionGroup::UsEast1, RegionGroup::Europe] {
        let Some(series) = report.region_series(t1, group, lines_mode) else {
            continue;
        };
        // Compare like with like: the outage window's hours of day
        // against the same hours on the other days of the week.
        let window_hours = win_from..win_to;
        let mut during = (0.0, 0u32);
        let mut baseline = (0.0, 0u32);
        let mut baseline_min = f64::INFINITY;
        for day in 0..7usize {
            let mut day_sum = 0.0;
            let mut day_n = 0u32;
            for h in 0..series.len() {
                let same_hod = h % 24 >= win_from % 24 && h % 24 < win_to % 24;
                if !same_hod {
                    continue;
                }
                if h / 24 != day {
                    continue;
                }
                day_sum += series.get(h);
                day_n += 1;
            }
            if day_n == 0 {
                continue;
            }
            let in_window = (day * 24..(day + 1) * 24).any(|h| window_hours.contains(&h));
            if in_window {
                during.0 += day_sum;
                during.1 += day_n;
            } else {
                baseline.0 += day_sum;
                baseline.1 += day_n;
                baseline_min = baseline_min.min(day_sum / day_n as f64);
            }
        }
        let during_rate = during.0 / during.1.max(1) as f64;
        let base_rate = baseline.0 / baseline.1.max(1) as f64;
        println!(
            "T1 {} [{}]: other-days mean {:12.0}/h | outage-day {:12.0}/h ({:+.1}%) | other-days min {:12.0}/h",
            if lines_mode { "lines" } else { "downstream" },
            group.label(),
            base_rate,
            during_rate,
            (during_rate / base_rate.max(1e-9) - 1.0) * 100.0,
            baseline_min,
        );
    }
    if !lines_mode {
        println!("(paper: US-East drops >14.5%, below the previous week's minimum; EU dips slightly and serves >3x the US-East volume)");
    } else {
        println!("(paper: subscriber-line counts barely move — devices keep retrying)");
    }
}

pub fn run_outage_deps(_: &Cli, exp: &Experiment) {
    let (report, win_from, _) = outage_week(exp);
    println!("impact on the cloud-dependent platforms (D1–D6):");
    println!("(outage-window hours of day vs the same hours on the other days)");
    for (p, label) in exp.anonymization.pairs() {
        if !label.starts_with('D') {
            continue;
        }
        let Some(series) = report.fig9_downstream(p) else {
            continue;
        };
        if series.total() <= 0.0 {
            continue;
        }
        // Full-day totals: the outage day against the other days'
        // mean (lower variance than the 7-hour window for the
        // smaller platforms).
        let outage_day = win_from / 24;
        let mut day_totals = [0.0f64; 7];
        for h in 0..series.len() {
            day_totals[(h / 24).min(6)] += series.get(h);
        }
        let d = day_totals[outage_day];
        let b: f64 = day_totals
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != outage_day)
            .map(|(_, v)| v)
            .sum::<f64>()
            / 6.0;
        println!(
            "{label}: outage-day downstream {:+.1}% vs other days' mean",
            (d / b.max(1e-9) - 1.0) * 100.0
        );
    }
    println!("(paper: hardly any effect — these platforms are mapped to EU regions)");
}

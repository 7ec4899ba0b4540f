//! Outage replay: the December 7, 2021 AWS us-east-1 event (§6.1,
//! Figs. 15/16) — how a cloud-region failure shows up in an ISP's IoT
//! traffic, and why subscriber-line counts barely move while volumes
//! crater.
//!
//! ```text
//! cargo run --release --example outage_replay
//! ```

use iotmap::prelude::*;
use iotmap::traffic::RegionGroup;

fn main() {
    // The outage sits in the December 2021 preliminary week.
    let config = WorldConfig::small(42).with_outage_week();
    println!("preparing pipeline; outage window: {:?} …", {
        let w = StudyPeriod::aws_outage_window();
        (w.start.to_string(), w.end.to_string())
    });
    // Discovery as usual (the backend map does not care which week it is).
    let artifacts = Pipeline::new(config)
        .threads(0)
        .run()
        .expect("built-in patterns are valid");
    let period = artifacts.world.config.study_period;

    // Traffic passes over the outage week.
    println!("simulating the outage week …");
    let (_, _, report) = artifacts.full_traffic_analysis(period);

    // T1 = the platform of the affected cloud (Amazon IoT).
    let window = StudyPeriod::aws_outage_window();
    let h0 = period.start.epoch_hours();
    let outage_day = ((window.start.epoch_hours() - h0) / 24) as usize;

    for (what, lines_mode) in [("downstream volume", false), ("subscriber lines", true)] {
        println!("\nT1 {what} per region (hourly, day-by-day):");
        for group in [RegionGroup::UsEast1, RegionGroup::Europe] {
            let series = report
                .region_series("amazon", group, lines_mode)
                .expect("amazon series");
            let mut day_totals = [0.0; 7];
            for h in 0..series.len() {
                day_totals[(h / 24).min(6)] += series.get(h);
            }
            let others: f64 = day_totals
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != outage_day)
                .map(|(_, v)| *v)
                .sum::<f64>()
                / 6.0;
            let delta = (day_totals[outage_day] / others.max(1e-9) - 1.0) * 100.0;
            let days: Vec<String> = day_totals
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    let mark = if i == outage_day { "*" } else { " " };
                    format!(
                        "{mark}{:.2}",
                        v / day_totals.iter().cloned().fold(0.0, f64::max)
                    )
                })
                .collect();
            println!(
                "  [{:>7}] {}   outage day {delta:+.1}% vs others",
                group.label(),
                days.join(" ")
            );
        }
    }
    println!("\n(* marks December 7; Fig. 15's volume drop is sharp in US-East,");
    println!(" while Fig. 16's line counts barely move — retries keep flows alive.)");
}

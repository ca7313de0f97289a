//! Property test for the handle model: random interleavings of by-name
//! writes, handle writes, handle resolutions that are never written,
//! scrapes and snapshots, replayed against a plain `BTreeMap` model of
//! what string-keyed writes alone would leave behind. Snapshots must
//! match the model byte for byte, and every scrape must see exactly the
//! model's names — a resolved-but-unwritten handle shows nowhere.

use dosgi_telemetry::{
    Counter, Gauge, Histogram, HistogramHandle, ScrapeConfig, SeriesScraper, Snapshot, Telemetry,
    SCHEMA_VERSION,
};
use dosgi_testkit::prop::{self, Config, Gen};
use dosgi_testkit::rng::TestRng;
use dosgi_testkit::{prop_verify, prop_verify_eq};
use std::collections::BTreeMap;

const NAMES: usize = 5;

#[derive(Debug, Clone, Copy)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

#[derive(Debug, Clone)]
enum Op {
    /// `Telemetry::add` / `gauge_set` / `record` on name `idx`.
    ByName(Kind, usize, u64),
    /// The same write through a handle resolved at first use and kept.
    ByHandle(Kind, usize, u64),
    /// Resolve a handle and write nothing.
    Resolve(Kind, usize),
    Scrape,
    Snapshot,
}

fn ops() -> Gen<Vec<Op>> {
    Gen::new(|rng: &mut TestRng| {
        (0..rng.usize_in(1, 60))
            .map(|_| {
                let kind = [Kind::Counter, Kind::Gauge, Kind::Histogram][rng.usize_in(0, 2)];
                let idx = rng.usize_in(0, NAMES - 1);
                // Zero-valued writes matter: `add(name, 0)` and
                // `gauge_set(name, 0)` make a metric visible.
                let value = match rng.u64_below(3) {
                    0 => 0,
                    1 => rng.u64_in(1, 16),
                    _ => rng.u64_in(0, 1_000_000),
                };
                match rng.u64_below(10) {
                    0..=2 => Op::ByName(kind, idx, value),
                    3..=5 => Op::ByHandle(kind, idx, value),
                    6 => Op::Resolve(kind, idx),
                    7 | 8 => Op::Scrape,
                    _ => Op::Snapshot,
                }
            })
            .collect()
    })
}

fn name(kind: Kind, idx: usize) -> String {
    match kind {
        Kind::Counter => format!("m.ctr.{idx}"),
        Kind::Gauge => format!("m.gauge.{idx}"),
        Kind::Histogram => format!("m.hist.{idx}"),
    }
}

/// What string-keyed writes alone would have produced.
#[derive(Default)]
struct Model {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Model {
    fn write(&mut self, kind: Kind, idx: usize, v: u64) {
        let name = name(kind, idx);
        match kind {
            Kind::Counter => *self.counters.entry(name).or_insert(0) += v,
            Kind::Gauge => {
                self.gauges.insert(name, v as i64);
            }
            Kind::Histogram => self.histograms.entry(name).or_default().record(v),
        }
    }

    fn snapshot_json(&self, seed: u64) -> String {
        Snapshot {
            schema_version: SCHEMA_VERSION,
            label: "prop".to_owned(),
            seed,
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
            alerts: Vec::new(),
        }
        .to_json()
    }
}

/// Handles kept across the run, resolved at first use.
#[derive(Default)]
struct Handles {
    counters: BTreeMap<usize, Counter>,
    gauges: BTreeMap<usize, Gauge>,
    histograms: BTreeMap<usize, HistogramHandle>,
}

impl Handles {
    fn write(&mut self, t: &Telemetry, kind: Kind, idx: usize, v: u64) {
        let n = name(kind, idx);
        match kind {
            Kind::Counter => self
                .counters
                .entry(idx)
                .or_insert_with(|| t.counter_handle(n.as_str()))
                .add(v),
            Kind::Gauge => self
                .gauges
                .entry(idx)
                .or_insert_with(|| t.gauge_handle(n.as_str()))
                .set(v as i64),
            // The other spelling of a name: formatted on resolution.
            Kind::Histogram => self
                .histograms
                .entry(idx)
                .or_insert_with(|| t.histogram_handle(format_args!("m.hist.{idx}")))
                .record(v),
        }
    }
}

#[test]
fn handles_and_names_agree_with_a_map_model_300_interleavings() {
    prop::check_with(
        &Config::with_cases(300),
        "handles_and_names_agree_with_a_map_model",
        &ops(),
        |ops| {
            let t = Telemetry::new();
            let mut handles = Handles::default();
            let mut model = Model::default();
            // Rings big enough never to compact: the scraper's own drop
            // counter stays out of the registry.
            let mut scraper = SeriesScraper::new(ScrapeConfig {
                cadence_us: 1,
                capacity: 128,
            });
            let mut last_counters: BTreeMap<String, u64> = BTreeMap::new();
            let mut hists_scraped: BTreeMap<String, u64> = BTreeMap::new();
            for (step, op) in ops.iter().enumerate() {
                let now_us = step as u64;
                match *op {
                    Op::ByName(kind, idx, v) => {
                        let n = name(kind, idx);
                        match kind {
                            Kind::Counter => t.add(&n, v),
                            Kind::Gauge => t.gauge_set(&n, v as i64),
                            Kind::Histogram => t.record(&n, v),
                        }
                        model.write(kind, idx, v);
                    }
                    Op::ByHandle(kind, idx, v) => {
                        handles.write(&t, kind, idx, v);
                        model.write(kind, idx, v);
                    }
                    Op::Resolve(kind, idx) => {
                        let n = name(kind, idx);
                        match kind {
                            Kind::Counter => drop(t.counter_handle(n.as_str())),
                            Kind::Gauge => drop(t.gauge_handle(n.as_str())),
                            Kind::Histogram => drop(t.histogram_handle(n.as_str())),
                        }
                    }
                    Op::Scrape => {
                        prop_verify!(scraper.scrape(&t, now_us), "cadence 1: always due");
                        for (n, cum) in &model.counters {
                            let rate = cum - last_counters.insert(n.clone(), *cum).unwrap_or(0);
                            let got = scraper.series(&format!("rate:{n}")).and_then(|s| s.last());
                            prop_verify_eq!(
                                got.map(|p| (p.at_us, p.value)),
                                Some((now_us, rate as i64))
                            );
                        }
                        for (n, v) in &model.gauges {
                            let got = scraper.series(&format!("gauge:{n}")).and_then(|s| s.last());
                            prop_verify_eq!(got.map(|p| (p.at_us, p.value)), Some((now_us, *v)));
                        }
                        for (n, h) in &model.histograms {
                            let fresh =
                                hists_scraped.insert(n.clone(), h.count()) != Some(h.count());
                            let got = scraper.series(&format!("p50:{n}")).and_then(|s| s.last());
                            prop_verify!(
                                got.is_some_and(|p| (p.at_us == now_us) == fresh),
                                "p50:{n}: a point this scrape iff the window had samples"
                            );
                        }
                        prop_verify_eq!(
                            scraper.series_count(),
                            model.counters.len() + model.gauges.len() + 3 * model.histograms.len()
                        );
                    }
                    Op::Snapshot => {
                        prop_verify_eq!(t.snapshot("prop", 9).to_json(), model.snapshot_json(9));
                    }
                }
            }
            // The end state, the by-name reads, and the bulk read agree too.
            prop_verify_eq!(t.snapshot("prop", 9).to_json(), model.snapshot_json(9));
            for idx in 0..NAMES {
                let (c, g, h) = (
                    name(Kind::Counter, idx),
                    name(Kind::Gauge, idx),
                    name(Kind::Histogram, idx),
                );
                prop_verify_eq!(t.counter(&c), model.counters.get(&c).copied().unwrap_or(0));
                prop_verify_eq!(t.gauge(&g), model.gauges.get(&g).copied());
                prop_verify_eq!(t.histogram(&h), model.histograms.get(&h).cloned());
            }
            let live = t.read(|c, g, h| (c.len(), g.len(), h.len()));
            prop_verify_eq!(
                live,
                Some((
                    model.counters.len(),
                    model.gauges.len(),
                    model.histograms.len()
                ))
            );
            Ok(())
        },
    );
}

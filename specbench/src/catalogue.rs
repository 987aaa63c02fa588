//! The metric catalogue: `BENCHMARK.json` (names, units, bounds) joined
//! with `layers.json` (which layer each per-layer metric belongs to, and
//! which end-to-end metric on which workload it should move). Both files
//! are compiled in, so the run's output and the listing cannot drift from
//! them: a run fails if it produces a metric the catalogue lacks or misses
//! one it declares.

use specslice_server::Json;
use std::fmt::Write as _;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const LAYERS_JSON: &str = include_str!("../layers.json");

/// One declared metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
    /// Allowed regression share (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// A per-layer group: metrics that should move the same end-to-end
/// metrics.
#[derive(Clone, Debug)]
pub struct Group {
    /// Group name.
    pub group: String,
    /// `(end-to-end metric, workload)` pairs the group's metrics move.
    pub moves: Vec<(String, String)>,
    /// Member metric names.
    pub metrics: Vec<String>,
}

/// The parsed catalogue.
#[derive(Clone, Debug)]
pub struct Catalogue {
    /// `(name, why)` per workload.
    pub workloads: Vec<(String, String)>,
    /// End-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics.
    pub per_layer: Vec<Metric>,
    /// Per-layer groups.
    pub groups: Vec<Group>,
    /// Notes on individual metrics.
    pub notes: Vec<(String, String)>,
    /// Default and held-out seeds.
    pub seeds: (u64, u64),
}

fn strs(v: Option<&Json>) -> Vec<String> {
    v.and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|x| x.as_str().map(str::to_string))
        .collect()
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<Metric>, String> {
    doc.get(key)
        .and_then(Json::as_array)
        .ok_or(format!("BENCHMARK.json: no `{key}` array"))?
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("BENCHMARK.json: {key} entry without `{k}`"))
            };
            Ok(Metric {
                name: s("name")?,
                unit: s("unit")?,
                better: s("better")?,
                bound: m.get("bound").and_then(|b| match b {
                    Json::Int(i) => Some(*i as f64),
                    Json::Float(f) => Some(*f),
                    _ => None,
                }),
            })
        })
        .collect()
}

impl Catalogue {
    /// Parses and cross-checks the compiled-in catalogue files.
    pub fn load() -> Result<Catalogue, String> {
        let bench = Json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let layers = Json::parse(LAYERS_JSON).map_err(|e| format!("layers.json: {e}"))?;
        let workloads = bench
            .get("workloads")
            .and_then(Json::as_array)
            .ok_or("BENCHMARK.json: no `workloads`")?
            .iter()
            .map(|w| {
                let s = |k| w.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (s("name"), s("why"))
            })
            .collect();
        let groups: Vec<Group> = layers
            .get("groups")
            .and_then(Json::as_array)
            .ok_or("layers.json: no `groups`")?
            .iter()
            .map(|g| Group {
                group: g
                    .get("group")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                moves: g
                    .get("moves")
                    .and_then(Json::as_array)
                    .unwrap_or(&[])
                    .iter()
                    .map(|m| {
                        let pair = strs(Some(m));
                        (
                            pair.first().cloned().unwrap_or_default(),
                            pair.get(1).cloned().unwrap_or_default(),
                        )
                    })
                    .collect(),
                metrics: strs(g.get("metrics")),
            })
            .collect();
        let notes = match layers.get("notes") {
            Some(Json::Object(m)) => m
                .iter()
                .map(|(k, v)| (k.clone(), v.as_str().unwrap_or("").to_string()))
                .collect(),
            _ => Vec::new(),
        };
        let seed = |k| {
            layers
                .get("seeds")
                .and_then(|s| s.get(k))
                .and_then(Json::as_i64)
                .map(|v| v as u64)
                .ok_or(format!("layers.json: no seeds.{k}"))
        };
        let cat = Catalogue {
            workloads,
            end_to_end: metrics(&bench, "end_to_end")?,
            per_layer: metrics(&bench, "per_layer")?,
            groups,
            notes,
            seeds: (seed("default")?, seed("held_out")?),
        };
        cat.cross_check()?;
        Ok(cat)
    }

    /// Every per-layer metric sits in exactly one group, every group
    /// member is declared, every `moves` pair names a declared end-to-end
    /// metric and workload, and every workload's `why` states the seeds.
    fn cross_check(&self) -> Result<(), String> {
        let seeds = format!(
            "Seeds: default {}, held-out {}.",
            self.seeds.0, self.seeds.1
        );
        for (name, why) in &self.workloads {
            if !why.contains(&seeds) {
                return Err(format!(
                    "BENCHMARK.json: the why of `{name}` does not state `{seeds}`"
                ));
            }
        }
        for m in &self.per_layer {
            let n = self
                .groups
                .iter()
                .filter(|g| g.metrics.contains(&m.name))
                .count();
            if n != 1 {
                return Err(format!("layers.json: `{}` is in {n} groups", m.name));
            }
        }
        for g in &self.groups {
            for name in &g.metrics {
                if !self.per_layer.iter().any(|m| &m.name == name) {
                    return Err(format!("layers.json: `{name}` is not in BENCHMARK.json"));
                }
            }
            for (metric, workload) in &g.moves {
                if !self.end_to_end.iter().any(|m| &m.name == metric)
                    || !self.workloads.iter().any(|(w, _)| w == workload)
                {
                    return Err(format!(
                        "layers.json: group `{}` moves unknown `{metric}` on `{workload}`",
                        g.group
                    ));
                }
            }
        }
        Ok(())
    }

    /// The listing: every metric with its unit, layer, and the end-to-end
    /// metrics and workloads it should move.
    pub fn listing(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "seeds: default {}, held-out {}\n\nworkloads:",
            self.seeds.0, self.seeds.1
        );
        for (name, why) in &self.workloads {
            let _ = writeln!(s, "  {name:<18} {why}");
            self.note(&mut s, name);
        }
        let _ = writeln!(s, "\nend-to-end metrics (every workload):");
        for m in &self.end_to_end {
            let _ = writeln!(
                s,
                "  {:<28} {:<6} {} is better, bound {}",
                m.name,
                m.unit,
                m.better,
                m.bound.map_or("-".to_string(), |b| b.to_string())
            );
            self.note(&mut s, &m.name);
        }
        let _ = writeln!(
            s,
            "  (error rate: `failed` over `attempted` in the result line; every failed output check counts)"
        );
        let _ = writeln!(s, "\nper-layer metrics (traced run, every workload):");
        for g in &self.groups {
            let moves: Vec<String> = g.moves.iter().map(|(m, w)| format!("{m} on {w}")).collect();
            let _ = writeln!(s, "  [{}] moves {}", g.group, moves.join(", "));
            for name in &g.metrics {
                let m = self.per_layer.iter().find(|m| &m.name == name);
                let layer = name.split('.').next().unwrap_or("");
                let _ = writeln!(
                    s,
                    "    {:<28} {:<6} layer {:<7} {} is better",
                    name,
                    m.map_or("", |m| &m.unit),
                    layer,
                    m.map_or("", |m| &m.better)
                );
                self.note(&mut s, name);
            }
        }
        s
    }

    fn note(&self, s: &mut String, name: &str) {
        if let Some((_, note)) = self.notes.iter().find(|(k, _)| k == name) {
            let _ = writeln!(s, "      note: {note}");
        }
    }
}

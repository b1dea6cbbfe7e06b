//! The result file `perf run` writes, and the comparison `perf diff`
//! makes between two sets of them.

use crate::json::Json;
use crate::layers::{Metric, END_TO_END};
use crate::stats::{compare, Summary, Verdict};

/// Where and how a run was made.
#[derive(Clone, Debug, PartialEq)]
pub struct Stamp {
    pub git_sha: String,
    pub nproc: usize,
    pub rustc: String,
    pub seed: u64,
    /// Workers of the parallel workload.
    pub jobs: usize,
    /// Time budget of each workload's untraced trials.
    pub seconds: f64,
}

/// One workload of a run.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    /// Executions attempted over every trial, warm-up and traced
    /// included.
    pub attempted: u64,
    /// Quarantined subtrees, watchdog trips and golden mismatches.
    pub failed: u64,
    pub mismatches: Vec<String>,
    /// Per-trial values of each end-to-end metric, in
    /// [`END_TO_END`] order.
    pub end_to_end: Vec<Vec<f64>>,
    /// The traced trial's per-layer breakdown.
    pub per_layer: Vec<Metric>,
}

impl WorkloadResult {
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Measured trials.
    pub fn trials(&self) -> usize {
        self.end_to_end.first().map_or(0, Vec::len)
    }
}

/// A whole `perf run`.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultFile {
    pub stamp: Stamp,
    pub workloads: Vec<WorkloadResult>,
}

impl ResultFile {
    /// The file's JSON form. Medians and quartiles are written for the
    /// reader; only the raw values are read back.
    pub fn to_json(&self) -> Json {
        let s = &self.stamp;
        let trials = self
            .workloads
            .iter()
            .fold(Json::obj(), |o, w| o.with(&w.name, w.trials()));
        let stamp = Json::obj()
            .with("git_sha", s.git_sha.as_str())
            .with("nproc", s.nproc)
            .with("rustc", s.rustc.as_str())
            .with("seed", s.seed)
            .with("jobs", s.jobs)
            .with("seconds", s.seconds)
            .with("trials", trials);
        let workloads = self
            .workloads
            .iter()
            .map(|w| {
                let e2e = END_TO_END
                    .iter()
                    .zip(&w.end_to_end)
                    .map(|(m, values)| {
                        let mut o = Json::obj()
                            .with("name", m.name)
                            .with("unit", m.unit)
                            .with("bound", m.bound)
                            .with("values", &values[..]);
                        if let Some(sum) = Summary::of(values) {
                            o = o
                                .with("median", sum.median)
                                .with("q1", sum.q1)
                                .with("q3", sum.q3)
                                .with("n", sum.n);
                        }
                        o
                    })
                    .collect::<Vec<_>>();
                let layers = w.per_layer.iter().map(Metric::to_json).collect::<Vec<_>>();
                Json::obj()
                    .with("name", w.name.as_str())
                    .with("attempted", w.attempted)
                    .with("failed", w.failed)
                    .with("error_rate", w.error_rate())
                    .with("mismatches", &w.mismatches[..])
                    .with("end_to_end", e2e)
                    .with("per_layer", layers)
            })
            .collect::<Vec<_>>();
        Json::obj()
            .with("schema", "icb-perf/1")
            .with("stamp", stamp)
            .with("workloads", workloads)
    }

    pub fn from_json(v: &Json) -> Result<ResultFile, String> {
        if v.get("schema").and_then(Json::as_str) != Some("icb-perf/1") {
            return Err("not an icb-perf/1 result file".to_string());
        }
        let s = v.field("stamp", Some)?;
        let stamp = Stamp {
            git_sha: s.field("git_sha", Json::as_str)?.to_string(),
            nproc: s.field("nproc", Json::as_u64)? as usize,
            rustc: s.field("rustc", Json::as_str)?.to_string(),
            seed: s.field("seed", Json::as_u64)?,
            jobs: s.field("jobs", Json::as_u64)? as usize,
            seconds: s.field("seconds", Json::as_f64)?,
        };
        let workloads = v
            .field("workloads", Json::as_array)?
            .iter()
            .map(|w| {
                let e2e = w.field("end_to_end", Json::as_array)?;
                let end_to_end = END_TO_END
                    .iter()
                    .map(|m| {
                        let entry = e2e
                            .iter()
                            .find(|e| e.get("name").and_then(Json::as_str) == Some(m.name))
                            .ok_or_else(|| format!("no end-to-end metric `{}`", m.name))?;
                        entry
                            .field("values", Json::as_array)?
                            .iter()
                            .map(|x| x.as_f64().ok_or("non-numeric value".to_string()))
                            .collect::<Result<Vec<f64>, String>>()
                    })
                    .collect::<Result<_, String>>()?;
                let per_layer = w
                    .field("per_layer", Json::as_array)?
                    .iter()
                    .map(Metric::from_json)
                    .collect::<Result<_, String>>()?;
                Ok(WorkloadResult {
                    name: w.field("name", Json::as_str)?.to_string(),
                    attempted: w.field("attempted", Json::as_u64)?,
                    failed: w.field("failed", Json::as_u64)?,
                    mismatches: w.field("mismatches", Json::as_strings)?,
                    end_to_end,
                    per_layer,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(ResultFile { stamp, workloads })
    }
}

/// Every file's entry for workload `name`.
fn side<'a>(files: &'a [ResultFile], name: &str) -> Vec<&'a WorkloadResult> {
    files
        .iter()
        .flat_map(|f| &f.workloads)
        .filter(|w| w.name == name)
        .collect()
}

fn fmt_summary(s: &Summary) -> String {
    format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3)
}

/// Compares parent and change runs workload by workload; returns the
/// table and whether any metric regressed or the error rate rose.
pub fn diff(parents: &[ResultFile], changes: &[ResultFile]) -> (String, bool) {
    let mut names: Vec<&str> = Vec::new();
    for w in parents.iter().chain(changes).flat_map(|f| &f.workloads) {
        if !names.contains(&w.name.as_str()) {
            names.push(&w.name);
        }
    }
    let mut out = format!(
        "{:<11} {:<12} {:<6} {:<30} {:<30} {:>6}  verdict\n",
        "workload", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let mut failed = false;
    for name in names {
        let (p, c) = (side(parents, name), side(changes, name));
        if p.is_empty() || c.is_empty() {
            out.push_str(&format!("{name:<11} present on one side only\n"));
            failed = true;
            continue;
        }
        for (i, m) in END_TO_END.iter().enumerate() {
            let runs = |ws: &[&WorkloadResult]| -> Vec<Vec<f64>> {
                ws.iter().map(|w| w.end_to_end[i].clone()).collect()
            };
            let Some(cmp) = compare(&runs(&p), &runs(&c), m.bound, true) else {
                continue;
            };
            failed |= cmp.verdict == Verdict::Regressed;
            out.push_str(&format!(
                "{name:<11} {:<12} {:<6} {:<30} {:<30} {:>3}/{:<2}  {} (bound {}%)\n",
                m.name,
                m.unit,
                fmt_summary(&cmp.parent),
                fmt_summary(&cmp.change),
                cmp.wins,
                cmp.pairs,
                cmp.verdict.as_str(),
                m.bound * 100.0
            ));
        }
        let rate = |ws: &[&WorkloadResult]| {
            let failed: u64 = ws.iter().map(|w| w.failed).sum();
            let attempted: u64 = ws.iter().map(|w| w.attempted).sum();
            (failed, attempted)
        };
        let ((pf, pa), (cf, ca)) = (rate(&p), rate(&c));
        let rose = cf as f64 / ca.max(1) as f64 > pf as f64 / pa.max(1) as f64;
        failed |= rose;
        out.push_str(&format!(
            "{name:<11} {:<12} {:<6} {:<30} {:<30} {:>6}  {}\n",
            "error_rate",
            "ratio",
            format!("{pf} / {pa}"),
            format!("{cf} / {ca}"),
            "",
            if rose { "regressed" } else { "unchanged" }
        ));
    }
    (out, failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::metric;

    fn sample(scale: f64) -> ResultFile {
        ResultFile {
            stamp: Stamp {
                git_sha: "0123456789ab".into(),
                nproc: 2,
                rustc: "rustc 1.80.0".into(),
                seed: 7,
                jobs: 2,
                seconds: 20.0,
            },
            workloads: vec![WorkloadResult {
                name: "rt-certify".into(),
                attempted: 8124,
                failed: 0,
                mismatches: vec!["x: executions 1, golden 2".into()],
                end_to_end: (0..END_TO_END.len())
                    .map(|i| {
                        (0..10)
                            .map(|t| scale * (1.0 + i as f64) * (1.0 + 0.001 * t as f64))
                            .collect()
                    })
                    .collect(),
                per_layer: vec![metric("core.pick_ns", "ns", 123.456)],
            }],
        }
    }

    #[test]
    fn result_file_round_trips() {
        let file = sample(1.0);
        let text = file.to_json().pretty();
        assert_eq!(
            ResultFile::from_json(&Json::parse(&text).unwrap()).unwrap(),
            file
        );
    }

    #[test]
    fn diff_flags_regressions_and_error_rate() {
        let (table, failed) = diff(&[sample(1.0)], &[sample(1.0)]);
        assert!(!failed, "{table}");
        assert!(
            table.contains("unchanged") && !table.contains("improved"),
            "{table}"
        );
        let (table, failed) = diff(&[sample(1.0)], &[sample(1.3)]);
        assert!(failed && table.contains("regressed"), "{table}");
        // One faster run is one pair: no gain can be claimed from it.
        let (table, failed) = diff(&[sample(1.0)], &[sample(0.7)]);
        assert!(!failed && !table.contains("improved"), "{table}");
        let (table, failed) = diff(&vec![sample(1.0); 10], &vec![sample(0.7); 10]);
        assert!(!failed && table.contains("improved"), "{table}");
        let mut worse = sample(1.0);
        worse.workloads[0].failed = 1;
        let (table, failed) = diff(&[sample(1.0)], &[worse]);
        assert!(failed, "{table}");
    }
}

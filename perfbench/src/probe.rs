//! Reading the daemon from outside: `GET /metrics` scrapes (Prometheus
//! text for counters and histograms, JSON for span aggregates) and
//! `/proc/<pid>` CPU and memory.

use std::collections::BTreeMap;

/// One cumulative latency histogram as the Prometheus exposition prints it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Hist {
    /// `(upper bound in ns, cumulative count)` per non-empty bucket, ascending.
    pub buckets: Vec<(u64, u64)>,
    /// Summed observations, nanoseconds.
    pub sum_ns: f64,
    /// Observations.
    pub count: u64,
}

impl Hist {
    /// Cumulative count at or below `le_ns` (a step function over buckets).
    fn cum_at(&self, le_ns: u64) -> u64 {
        self.buckets.iter().take_while(|(le, _)| *le <= le_ns).last().map_or(0, |b| b.1)
    }

    /// Observations recorded after `before` was scraped.
    pub fn since(&self, before: &Hist) -> Hist {
        Hist {
            buckets: self
                .buckets
                .iter()
                .map(|&(le, cum)| (le, cum.saturating_sub(before.cum_at(le))))
                .collect(),
            sum_ns: (self.sum_ns - before.sum_ns).max(0.0),
            count: self.count.saturating_sub(before.count),
        }
    }

    /// Mean observation in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns / self.count as f64 / 1e6
        }
    }

    /// Summed observations in milliseconds.
    pub fn sum_ms(&self) -> f64 {
        self.sum_ns / 1e6
    }

    /// Quantile `q` in milliseconds: the midpoint of the bucket holding the
    /// rank-`ceil(q·count)` observation, as the daemon's own exporter
    /// estimates it (0 when empty).
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let Some(&(le, _)) = self.buckets.iter().find(|b| b.1 >= target) else {
            return 0.0;
        };
        let (lo, hi) = phasefold_obs::hist::bucket_bounds(phasefold_obs::hist::bucket_index(le));
        (lo + (hi - lo) / 2) as f64 / 1e6
    }
}

/// A parsed `GET /metrics?format=prom` scrape.
#[derive(Debug, Clone, Default)]
pub struct Prom {
    /// Counters and gauges by exposition name.
    pub scalars: BTreeMap<String, f64>,
    /// Histograms by exposition name (without the `_bucket` suffix).
    pub hists: BTreeMap<String, Hist>,
}

impl Prom {
    /// Parses Prometheus text exposition; unknown lines are skipped.
    pub fn parse(text: &str) -> Prom {
        let mut p = Prom::default();
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let Some((key, value)) = line.rsplit_once(' ') else { continue };
            let Ok(value) = value.parse::<f64>() else { continue };
            if let Some((name, labels)) = key.split_once("_bucket{le=\"") {
                let le = labels.trim_end_matches("\"}");
                if le != "+Inf" {
                    if let Ok(le) = le.parse::<f64>() {
                        let h = p.hists.entry(name.to_string()).or_default();
                        h.buckets.push(((le * 1e9).round() as u64, value as u64));
                    }
                }
            } else if let Some(name) = key.strip_suffix("_sum").filter(|n| p.hists.contains_key(*n)) {
                if let Some(h) = p.hists.get_mut(name) {
                    h.sum_ns = value * 1e9;
                }
            } else if let Some(name) = key.strip_suffix("_count").filter(|n| p.hists.contains_key(*n)) {
                if let Some(h) = p.hists.get_mut(name) {
                    h.count = value as u64;
                }
            } else {
                p.scalars.insert(key.to_string(), value);
            }
        }
        p
    }

    /// Growth of scalar `name` since `before` (0 when absent).
    pub fn delta(&self, before: &Prom, name: &str) -> f64 {
        self.scalars.get(name).copied().unwrap_or(0.0)
            - before.scalars.get(name).copied().unwrap_or(0.0)
    }

    /// Histogram `name` restricted to observations since `before`.
    pub fn hist_since(&self, before: &Prom, name: &str) -> Hist {
        let empty = Hist::default();
        self.hists.get(name).unwrap_or(&empty).since(before.hists.get(name).unwrap_or(&empty))
    }
}

/// Span aggregates `(count, total ms)` from the `"spans"` section of a
/// `GET /metrics` JSON scrape. The daemon drains spans on every scrape, so
/// these cover exactly the interval since the previous scrape.
pub fn span_totals(json: &str) -> BTreeMap<String, (u64, f64)> {
    let mut out = BTreeMap::new();
    let Some(section) = json.split("\"spans\": {").nth(1) else { return out };
    for line in section.lines() {
        let line = line.trim();
        let Some((name, rest)) = line.strip_prefix('"').and_then(|l| l.split_once("\": {")) else {
            continue;
        };
        let field = |key: &str| -> Option<f64> {
            let after = rest.split(&format!("\"{key}\": ")).nth(1)?;
            after.split([',', ' ', '}']).next()?.parse().ok()
        };
        if let (Some(count), Some(total)) = (field("count"), field("total_ms")) {
            out.insert(name.to_string(), (count as u64, total));
        }
    }
    out
}

/// Clock ticks per second of `/proc/<pid>/stat` CPU times (`USER_HZ`,
/// 100 on every Linux architecture the benchmark runs on).
pub const CLOCK_TICKS: f64 = 100.0;

/// User + system CPU milliseconds from a `/proc/<pid>/stat` line.
pub fn stat_cpu_ms(stat: &str) -> Option<f64> {
    // The command name may contain spaces: fields resume after the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')': state is field 3 of the full line, utime 14, stime 15.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 1000.0 / CLOCK_TICKS)
}

/// Peak resident set (`VmHWM`) in MiB from a `/proc/<pid>/status` text.
pub fn status_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU milliseconds used so far by process `pid` (`"self"` for this one).
pub fn cpu_ms(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| stat_cpu_ms(&s))
        .unwrap_or(f64::NAN)
}

/// Peak resident MiB of process `pid` (`"self"` for this one).
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| status_hwm_mb(&s))
        .unwrap_or(f64::NAN)
}

/// Resets this process's `VmHWM` to its current resident set, so a later
/// [`peak_rss_mb`] covers only what ran after the call.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "\
# TYPE serve_requests counter
serve_requests 10
# TYPE serve_cache_hits counter
serve_cache_hits 4
# TYPE serve_latency_analyze histogram
serve_latency_analyze_bucket{le=\"0.001048575\"} 3
serve_latency_analyze_bucket{le=\"0.002097151\"} 5
serve_latency_analyze_bucket{le=\"+Inf\"} 5
serve_latency_analyze_sum 0.006
serve_latency_analyze_count 5
";

    const AFTER: &str = "\
# TYPE serve_requests counter
serve_requests 30
# TYPE serve_cache_hits counter
serve_cache_hits 19
# TYPE serve_latency_analyze histogram
serve_latency_analyze_bucket{le=\"0.001048575\"} 3
serve_latency_analyze_bucket{le=\"0.002097151\"} 5
serve_latency_analyze_bucket{le=\"0.016777215\"} 15
serve_latency_analyze_bucket{le=\"+Inf\"} 15
serve_latency_analyze_sum 0.156
serve_latency_analyze_count 15
";

    #[test]
    fn prom_counter_and_histogram_deltas() {
        let (a, b) = (Prom::parse(BEFORE), Prom::parse(AFTER));
        assert_eq!(b.delta(&a, "serve_requests"), 20.0);
        assert_eq!(b.delta(&a, "serve_cache_hits"), 15.0);
        assert_eq!(b.delta(&a, "absent"), 0.0);
        let h = b.hist_since(&a, "serve_latency_analyze");
        assert_eq!(h.count, 10);
        assert!((h.sum_ms() - 150.0).abs() < 1e-9);
        assert!((h.mean_ms() - 15.0).abs() < 1e-9);
        // Every new observation sits in the bucket [14.68, 16.78] ms; both
        // quantiles read its midpoint.
        assert_eq!(h.buckets, vec![(1_048_575, 0), (2_097_151, 0), (16_777_215, 10)]);
        let mid = h.quantile_ms(0.5);
        assert!((mid - 15.728639).abs() < 1e-9, "{mid}");
        assert_eq!(h.quantile_ms(0.99), mid);
        assert_eq!(Hist::default().quantile_ms(0.5), 0.0);
    }

    #[test]
    fn span_totals_from_metrics_json() {
        let json = "{\n\"schema\": \"phasefold-serve-metrics/1\"\n}\n{\n  \"counters\": {\n    \"x\": 1\n  },\n  \"spans\": {\n    \"online.snapshot\": { \"count\": 4, \"total_ms\": 12.500, \"max_ms\": 5.000 },\n    \"serve.request\": { \"count\": 40, \"total_ms\": 80.250, \"max_ms\": 9.000 }\n  }\n}\n";
        let s = span_totals(json);
        assert_eq!(s.get("online.snapshot"), Some(&(4, 12.5)));
        assert_eq!(s.get("serve.request"), Some(&(40, 80.25)));
        assert_eq!(s.len(), 2);
        assert!(span_totals("{}").is_empty());
    }

    #[test]
    fn proc_stat_and_status() {
        // A command name with spaces and parentheses must not shift fields.
        let stat = "4242 (phase fold (x)) S 1 4242 4242 0 -1 4194304 900 0 0 0 250 50 0 0 20 0 9 0 100 0 0";
        assert_eq!(stat_cpu_ms(stat), Some(3000.0));
        assert_eq!(stat_cpu_ms("garbage"), None);
        let status = "Name:\tphasefold\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(status_hwm_mb(status), Some(50.0));
        assert_eq!(status_hwm_mb("Name: x\n"), None);
        assert!(cpu_ms("self") >= 0.0);
        assert!(peak_rss_mb("self") > 0.0);
    }
}

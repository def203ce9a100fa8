//! Order statistics over wall-clock samples.

/// The `q`-quantile (`0.0..=1.0`) of `samples` by linear interpolation
/// between closest ranks; 0 for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`; 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The tail percentile a workload reports: the highest rung of a fixed
/// ladder that leaves at least ten samples beyond it when `guaranteed`
/// samples are taken. Workloads pass the sample count one round always
/// yields, so the percentile is a property of the workload and does not
/// drift when a faster build fits more rounds into the same run.
pub fn tail_quantile(guaranteed: usize) -> f64 {
    const LADDER: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.75];
    LADDER
        .into_iter()
        .find(|q| guaranteed as f64 * (1.0 - q) >= 10.0 - 1e-9)
        .unwrap_or(0.5)
}

/// Run `f` and return its result with its wall time, seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = std::time::Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// `VmHWM` (peak resident set) of process `pid`, MiB.
///
/// # Errors
///
/// Fails when `/proc/<pid>/status` cannot be read or has no `VmHWM`.
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let kib: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(200), 0.95);
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(40), 0.75);
        assert_eq!(tail_quantile(5), 0.5);
    }
}

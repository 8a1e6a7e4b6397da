//! Order statistics over measured samples.

/// Median of `v` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
#[must_use]
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest nearest-rank percentile of `v` that still has at least
/// ten samples above its rank: `(value, percentile)`. With fewer than
/// eleven samples this is the minimum, at the percentile `100 / n`.
#[must_use]
pub fn tail(v: &[f64]) -> (f64, f64) {
    if v.is_empty() {
        return (0.0, 0.0);
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let rank = n.saturating_sub(10).max(1);
    (s[rank - 1], 100.0 * rank as f64 / n as f64)
}

/// 64-bit FNV-1a, the digest the reference files record.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank 90 leaves exactly ten samples (91..=100) above it.
        assert_eq!(tail(&v), (90.0, 90.0));
        let few: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&few), (1.0, 20.0));
    }
}

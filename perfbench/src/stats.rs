//! Order statistics and a stable hash for transcripts.

/// Nearest-rank percentile (`q` in `0.0..=1.0`) of `values`; 0 when
/// empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.max(1) - 1]
}

/// The median: the middle value, or the mean of the two middle values
/// of an even count (so that two close samples swapping places with
/// noise do not move it).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Milliseconds since `start`.
pub fn ms_since(start: std::time::Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// FNV-1a over a sequence of strings: a transcript fingerprint that is
/// stable across processes (unlike `DefaultHasher`'s seeded SipHash).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes one string (and a terminator, so `["ab","c"]` and
    /// `["a","bc"]` differ).
    pub fn add(&mut self, s: &str) {
        for &b in s.as_bytes().iter().chain(std::iter::once(&0xff)) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&v, 0.9), 5.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn fnv_separates_boundaries() {
        let mut a = Fnv::default();
        a.add("ab");
        a.add("c");
        let mut b = Fnv::default();
        b.add("a");
        b.add("bc");
        assert_ne!(a, b);
    }
}

//! Small numeric helpers: medians, percentiles with their sample counts,
//! and the outcome digest.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile read from a sample, with the counts that support it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The value at the percentile (nearest rank).
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
    /// Number of samples strictly after the percentile's rank.
    pub beyond: usize,
}

/// The `q` quantile of `sorted` (ascending) by nearest rank.
///
/// # Errors
///
/// Fails if the sample is empty, `q` is outside `(0, 1)`, or fewer than
/// [`MIN_BEYOND`] samples lie beyond the percentile's rank.
pub fn percentile(sorted: &[f64], q: f64) -> Result<Percentile, String> {
    if !(q > 0.0 && q < 1.0) {
        return Err(format!("percentile {q} is outside (0, 1)"));
    }
    let samples = sorted.len();
    if samples == 0 {
        return Err("percentile of an empty sample".into());
    }
    let rank = ((q * samples as f64).ceil() as usize).clamp(1, samples);
    let beyond = samples - rank;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {samples} samples has only {beyond} beyond it (need {MIN_BEYOND})",
            q * 100.0
        ));
    }
    Ok(Percentile {
        value: sorted[rank - 1],
        samples,
        beyond,
    })
}

/// Sorts a sample ascending (total order; NaN sorts last).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The arithmetic mean of a non-empty sample.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of an empty sample");
    values.iter().sum::<f64>() / values.len() as f64
}

/// FNV-1a over the bit patterns of a simulated outcome. Two runs whose
/// digests match produced the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// An empty digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds in raw bytes.
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds in an integer.
    pub fn u64(self, value: u64) -> Self {
        self.bytes(&value.to_le_bytes())
    }

    /// Folds in a float's exact bits.
    pub fn f64(self, value: f64) -> Self {
        self.u64(value.to_bits())
    }

    /// The digest as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

//! Order statistics used to summarise repeated measurements.

/// Median of `values` (mean of the two middle values for even counts).
/// `None` for an empty slice.
pub(crate) fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First, second and third quartile by the "exclusive" method, the
/// default of Python's `statistics.quantiles(values, n=4)`, so spreads
/// computed here match the ones computed over this benchmark's output.
/// A single value is every quartile; `None` for an empty slice.
pub(crate) fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values);
    let ld = s.len();
    match ld {
        0 => return None,
        1 => return Some([s[0]; 3]),
        _ => {}
    }
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4i64).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // Negative when the clamp raised `j`: Python extrapolates too.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Expected values are the outputs of Python's
    /// `statistics.quantiles(data, n=4)` and `statistics.median(data)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let cases: [(&[f64], [f64; 3], f64); 5] = [
            (
                &[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.],
                [2.75, 5.5, 8.25],
                5.5,
            ),
            (&[3.0, 1.0, 2.0], [1.0, 2.0, 3.0], 2.0),
            (&[5.5, 1.25], [0.1875, 3.375, 6.5625], 3.375),
            (&[10., 20., 30., 40.], [12.5, 25.0, 37.5], 25.0),
            (&[2., 8., 4., 6., 10., 1., 7.], [2.0, 6.0, 8.0], 6.0),
        ];
        for (data, q, med) in cases {
            assert_eq!(quartiles(data), Some(q), "{data:?}");
            assert_eq!(median(data), Some(med), "{data:?}");
            assert_eq!(quartiles(data).unwrap()[1], med, "Q2 is the median");
        }
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(median(&[]), None);
        assert_eq!(quartiles(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(quartiles(&[4.0]), Some([4.0; 3]));
    }
}

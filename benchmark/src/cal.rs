//! The calibration kernel: a fixed piece of work shaped like the program's
//! own (string-keyed `BTreeMap`s, small heap blocks, byte copies), timed
//! before every slice of ops so that op times can be expressed at
//! reference speed (see [`crate::stats::to_reference_speed`]).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

const KEYS: u32 = 300;
const BLOB: usize = 48;

/// One run of the kernel: insert, clone, sum. Deterministic; returns a
/// checksum so the work cannot be optimised away.
pub fn kernel() -> u64 {
    let mut map: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    for i in 0..KEYS {
        // Multiplying by an odd constant scatters the insertion order.
        let k = i.wrapping_mul(2_654_435_761) % 1_000;
        map.insert(format!("cal/key-{k:04}"), vec![(i % 251) as u8; BLOB]);
    }
    let copy = black_box(&map).clone();
    copy.values().flat_map(|v| v.iter()).fold(0u64, |acc, &b| {
        acc.wrapping_mul(31).wrapping_add(u64::from(b))
    })
}

/// One calibration reading: the kernel's time in microseconds, mean of
/// three runs. The mean, not the fastest: the ops being rescaled get the
/// machine's average interference, and the fastest of three readings dodges
/// it (the program then appears to slow down by the 1.3rd to 1.4th power of
/// the kernel; against the mean the exponent is nearer 1 and the fit
/// tighter on the long ops of `failover`).
pub fn read() -> f64 {
    let t = Instant::now();
    for _ in 0..3 {
        black_box(kernel());
    }
    t.elapsed().as_nanos() as f64 / 3_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn reading_is_positive() {
        assert!(read() > 0.0);
    }
}

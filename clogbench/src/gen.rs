//! Workload inputs generated from `--seed`.
//!
//! The simulated configurations are fixed (the `clognet run` defaults),
//! so simulated metrics are the same for every seed. The seed picks
//! what the benchmark is free to vary without changing the work an op
//! does: the order variants and jobs run in, which variant each op
//! cross-checks, and the synthetic traffic fed to the layer probes.

use clognet_rng::{Rng, SeedableRng, SmallRng};

/// Independent streams drawn from one seed, one per purpose.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// `package_fork`: the order the 16 variants run in.
    VariantOrder = 1,
    /// `package_fork`: which variant each op re-warms cold.
    CheckedVariant,
    /// `serve_round`: the order jobs are first submitted in.
    SubmitOrder,
    /// `serve_round`: the order jobs are resubmitted in.
    ResubmitOrder,
    /// Synthetic traffic for the NoC probe.
    NocProbe,
    /// Synthetic requests for the DRAM probe.
    DramProbe,
    /// Synthetic lines for the cache probe.
    CacheProbe,
    /// Synthetic messages for the fabric probe.
    FabricProbe,
}

/// The generator for `stream` under `seed`.
pub fn rng(seed: u64, stream: Stream) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ (stream as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A uniformly random permutation of `0..n`.
pub fn permutation(seed: u64, stream: Stream, n: usize) -> Vec<usize> {
    let mut r = rng(seed, stream);
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, r.gen_range(0..i + 1));
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        for seed in [0, 1, 42, u64::MAX] {
            assert_eq!(
                permutation(seed, Stream::VariantOrder, 16),
                permutation(seed, Stream::VariantOrder, 16)
            );
            let draw = |s| (0..8).map(|_| rng(seed, s).next_u64()).collect::<Vec<_>>();
            assert_eq!(draw(Stream::NocProbe), draw(Stream::NocProbe));
        }
        let mut a = rng(7, Stream::DramProbe);
        let mut b = rng(7, Stream::DramProbe);
        assert!((0..1000).all(|_| a.next_u64() == b.next_u64()));
    }

    #[test]
    fn seeds_and_streams_give_different_inputs() {
        assert_ne!(
            permutation(1, Stream::SubmitOrder, 16),
            permutation(2, Stream::SubmitOrder, 16)
        );
        assert_ne!(
            permutation(1, Stream::SubmitOrder, 16),
            permutation(1, Stream::ResubmitOrder, 16)
        );
    }

    #[test]
    fn permutations_hold_each_index_once() {
        for seed in 0..50 {
            let mut p = permutation(seed, Stream::VariantOrder, 16);
            p.sort_unstable();
            assert_eq!(p, (0..16).collect::<Vec<_>>());
        }
    }
}

//! Primality testing and Bertrand-range prime search.
//!
//! DEX sizes its virtual p-cycle with a prime `p`: the initial cycle uses the
//! smallest prime in `(4n₀, 8n₀)`, inflation moves to the smallest prime in
//! `(4pᵢ, 8pᵢ)`, and deflation to one in `(pᵢ/8, pᵢ/4)` (Sect. 4). Bertrand's
//! postulate guarantees such primes exist. We use a deterministic
//! Miller–Rabin test that is exact for all `u64` inputs.

/// Deterministic Miller–Rabin for `u64`.
///
/// Uses the base set `{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}`, proven
/// sufficient for all `n < 3.3 · 10²⁴` (Sorenson & Webster), which covers the
/// full `u64` range.
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for &p in &[2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    // n - 1 = d · 2^s with d odd
    let mut d = n - 1;
    let mut s = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        s += 1;
    }
    'witness: for &a in &[2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = mod_pow(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = mod_mul(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// `(a * b) mod m` without overflow.
#[inline]
pub fn mod_mul(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

/// `(base ^ exp) mod m` by square-and-multiply. `m` must be nonzero.
pub fn mod_pow(base: u64, exp: u64, m: u64) -> u64 {
    debug_assert!(m > 0);
    if m == 1 {
        return 0;
    }
    pow_by(|a, b| mod_mul(a, b, m), base % m, exp)
}

/// Square-and-multiply over any associative `mul` with identity 1.
#[inline]
fn pow_by(mul: impl Fn(u64, u64) -> u64, mut base: u64, mut exp: u64) -> u64 {
    let mut acc = 1u64;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul(acc, base);
        }
        base = mul(base, base);
        exp >>= 1;
    }
    acc
}

/// Multiplication modulo a fixed `p < 2³²` by Barrett reduction: both
/// factors are `< 2³²`, so the product fits a `u64` and one 64×64→128
/// multiply by `m = ⌊2⁶⁴/p⌋` estimates the quotient to within one — no
/// `u128 %` (a library call on x86-64). This is the multiplication under
/// every chord of `Z(p)`; [`mod_mul`] stays the general-`u64` one that
/// [`is_prime`] needs.
#[derive(Clone, Copy)]
struct Barrett {
    p: u64,
    m: u64,
}

impl Barrett {
    fn new(p: u64) -> Self {
        assert!(
            p > 1 && p >> 32 == 0,
            "Barrett modulus {p} not in [2, 2^32)"
        );
        Barrett { p, m: u64::MAX / p }
    }

    /// `a·b mod p` for `a, b < 2³²`.
    #[inline]
    fn mul(self, a: u64, b: u64) -> u64 {
        let z = a * b;
        // q ∈ {⌊z/p⌋ − 1, ⌊z/p⌋}, so z − q·p ∈ [0, 2p).
        let q = ((z as u128 * self.m as u128) >> 64) as u64;
        let r = z - q * self.p;
        if r >= self.p {
            r - self.p
        } else {
            r
        }
    }

    /// `x⁻¹ = x^(p−2) mod p` (Fermat) for prime `p` and `x ≢ 0`.
    fn inverse(self, x: u64) -> u64 {
        pow_by(|a, b| self.mul(a, b), x % self.p, self.p - 2)
    }
}

/// Multiplicative inverse of `x` modulo prime `p` via Fermat's little
/// theorem: `x⁻¹ = x^(p−2) mod p`. Below 2³² — every p-cycle — the
/// powering runs on Barrett multiplication.
///
/// # Panics
/// Panics if `x % p == 0` (zero has no inverse).
pub fn mod_inverse(x: u64, p: u64) -> u64 {
    assert!(!x.is_multiple_of(p), "0 has no inverse mod {p}");
    if p >> 32 == 0 {
        Barrett::new(p).inverse(x)
    } else {
        mod_pow(x, p - 2, p)
    }
}

/// Invert a whole slice modulo prime `p < 2³²`: `out[i] = xs[i]⁻¹ mod p`,
/// and `0 ↦ 0` (the self-loop of Definition 1, so a slice of p-cycle
/// vertices maps to their chord partners). Elements must be reduced
/// (`< p`).
///
/// Montgomery's trick: one scalar [`mod_inverse`]-cost inversion of the
/// running product plus three multiplications per element, instead of a
/// ≈ 1.5·log₂ p-multiplication powering each. This is the chord kernel:
/// every traversal of `Z(p)` that touches more than a handful of
/// vertices (full-cycle sweeps, the route search's chord table, a
/// victim's `Sim` set) goes through it.
///
/// One running product is a chain of dependent multiplications, bound by
/// their latency. So element `j` joins lane `j mod 4`, and the four lane
/// products are independent chains the CPU overlaps (eight lanes
/// measured slower). One prefix pass over the four lane products splits
/// a single inversion of their product into the inverse of each, so a
/// call still pays exactly one scalar inversion.
///
/// # Panics
/// Panics if the slices differ in length or `p ≥ 2³²`.
pub fn inverse_batch(p: u64, xs: &[u32], out: &mut [u32]) {
    const LANES: usize = 4;
    assert_eq!(xs.len(), out.len(), "inverse_batch: length mismatch");
    if xs.is_empty() {
        return;
    }
    let b = Barrett::new(p);
    // A zero leaves its lane's product alone and inverts to 0.
    let factor = |x: u32| {
        debug_assert!((x as u64) < p, "unreduced element {x} mod {p}");
        if x == 0 {
            1
        } else {
            x as u64
        }
    };
    // Whole chunks of four in place; the rest zero-padded to one more.
    let (xs_body, xs_tail) = xs.as_chunks::<LANES>();
    let (out_body, out_tail) = out.as_chunks_mut::<LANES>();
    let (mut tail_xs, mut tail_out) = ([0u32; LANES], [0u32; LANES]);
    tail_xs[..xs_tail.len()].copy_from_slice(xs_tail);

    // Forward: out[j] = product of lane (j mod 4)'s elements before j.
    let mut acc = [1u64; LANES];
    let mut forward = |x: &[u32; LANES], o: &mut [u32; LANES]| {
        for l in 0..LANES {
            o[l] = acc[l] as u32;
            acc[l] = b.mul(acc[l], factor(x[l]));
        }
    };
    for (x, o) in xs_body.iter().zip(out_body.iter_mut()) {
        forward(x, o);
    }
    forward(&tail_xs, &mut tail_out);

    // below[l] = product of lanes < l; one inversion of the product of
    // all four, peeled back lane by lane into lane_inv[l] = acc[l]⁻¹.
    let mut below = [1u64; LANES];
    for l in 1..LANES {
        below[l] = b.mul(below[l - 1], acc[l - 1]);
    }
    let mut inv = b.inverse(b.mul(below[LANES - 1], acc[LANES - 1]));
    let mut lane_inv = [0u64; LANES];
    for l in (0..LANES).rev() {
        lane_inv[l] = b.mul(inv, below[l]);
        inv = b.mul(inv, acc[l]);
    }

    // Backward, each lane descending: lane_inv[l] is the inverse of the
    // product of lane l's elements up to and including j.
    let mut backward = |x: &[u32; LANES], o: &mut [u32; LANES]| {
        for l in 0..LANES {
            let y = b.mul(lane_inv[l], o[l] as u64);
            lane_inv[l] = b.mul(lane_inv[l], factor(x[l]));
            o[l] = if x[l] == 0 { 0 } else { y as u32 };
        }
    };
    backward(&tail_xs, &mut tail_out);
    out_tail.copy_from_slice(&tail_out[..out_tail.len()]);
    for (x, o) in xs_body.iter().zip(out_body.iter_mut()).rev() {
        backward(x, o);
    }
}

/// Smallest prime strictly inside the open interval `(lo, hi)`, or `None`.
pub fn smallest_prime_in(lo: u64, hi: u64) -> Option<u64> {
    let mut c = lo + 1;
    if c <= 2 {
        if 2 < hi {
            return Some(2);
        }
        c = 3;
    }
    if c.is_multiple_of(2) {
        c += 1;
    }
    while c < hi {
        if is_prime(c) {
            return Some(c);
        }
        c += 2;
    }
    None
}

/// Smallest prime in the inflation range `(4p, 8p)` (paper, Sect. 4.2.1).
/// Always exists for `p ≥ 1` by Bertrand's postulate.
pub fn inflation_prime(p: u64) -> u64 {
    smallest_prime_in(4 * p, 8 * p).expect("Bertrand guarantees a prime in (4p, 8p)")
}

/// Smallest prime in the deflation range `(p/8, p/4)` (paper, Sect. 4.2.2),
/// or `None` if the interval contains no prime (only possible for tiny `p`).
pub fn deflation_prime(p: u64) -> Option<u64> {
    smallest_prime_in(p / 8, p / 4)
}

/// Smallest prime in `(4n, 8n)` used for the initial p-cycle `Z₀(p₀)`.
pub fn initial_prime(n0: u64) -> u64 {
    smallest_prime_in(4 * n0, 8 * n0).expect("Bertrand guarantees a prime in (4n, 8n)")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_primes() {
        let primes: Vec<u64> = (0..100).filter(|&n| is_prime(n)).collect();
        assert_eq!(
            primes,
            vec![
                2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79,
                83, 89, 97
            ]
        );
    }

    #[test]
    fn large_known_primes_and_composites() {
        assert!(is_prime(2_147_483_647)); // 2^31 - 1 (Mersenne)
        assert!(is_prime(1_000_000_007));
        assert!(!is_prime(1_000_000_007u64 * 3));
        // Carmichael numbers must be rejected.
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 62745, 162401] {
            assert!(!is_prime(c), "{c} is Carmichael, not prime");
        }
        // Strong pseudoprime to base 2.
        assert!(!is_prime(3_215_031_751));
    }

    #[test]
    fn mod_pow_matches_naive() {
        for base in 1u64..20 {
            for exp in 0u64..12 {
                let m = 1_000_003;
                let naive = (0..exp).fold(1u64, |acc, _| acc * base % m);
                assert_eq!(mod_pow(base, exp, m), naive);
            }
        }
    }

    #[test]
    fn mod_inverse_is_inverse() {
        for p in [23u64, 101, 65537, 1_000_000_007] {
            for x in [1u64, 2, 5, 17, p - 1] {
                let inv = mod_inverse(x, p);
                assert_eq!(mod_mul(x, inv, p), 1, "x={x} p={p}");
            }
        }
    }

    #[test]
    fn barrett_inverse_matches_u128_powering() {
        // 4294967291 is the largest prime below 2³² (the Barrett limit).
        for p in [2u64, 3, 5, 23, 65537, 2_000_003, 4_294_967_291] {
            for x in [1u64, 2, 3, p / 2, p - 2, p - 1, p + 1, 3 * p + 2] {
                if x % p != 0 {
                    assert_eq!(mod_inverse(x, p), mod_pow(x, p - 2, p), "x={x} p={p}");
                }
            }
        }
        // Above the limit the general multiplication still serves.
        let p = 4_294_967_311u64;
        assert!(is_prime(p));
        assert_eq!(mod_mul(12345, mod_inverse(12345, p), p), 1);
    }

    #[test]
    fn inverse_batch_matches_scalar() {
        let check = |p: u64, xs: &[u32]| {
            let mut out = vec![u32::MAX; xs.len()];
            inverse_batch(p, xs, &mut out);
            for (&x, &inv) in xs.iter().zip(&out) {
                let want = if x == 0 { 0 } else { mod_inverse(x as u64, p) };
                assert_eq!(inv as u64, want, "x={x} p={p} in {xs:?}");
            }
        };
        for p in [5u64, 23, 2_000_003, 4_294_967_291] {
            let top = (p - 1) as u32;
            check(p, &[0]);
            check(p, &[1]);
            check(p, &[top]);
            // Zeros interleaved (0 ↦ 0), leading and trailing.
            check(p, &[0, 2, 0, 0, top, 1, 3, 0]);
            // Every length across the lane boundaries: whole chunks of
            // four, and every tail length, each at the top of the range.
            for len in 0..=40u32 {
                let xs: Vec<u32> = (0..len).map(|i| top - i % top).collect();
                check(p, &xs);
                // A zero on each lane, then the whole slice zero.
                for lane in 0..4 {
                    let mut zeroed = xs.clone();
                    for x in zeroed.iter_mut().skip(lane).step_by(4) {
                        *x = 0;
                    }
                    check(p, &zeroed);
                }
                check(p, &vec![0; len as usize]);
            }
            // Every vertex of a small cycle / a long run on a large one.
            let run: Vec<u32> = (0..p.min(5000) as u32).collect();
            check(p, &run);
            let high: Vec<u32> = (0..1000).map(|i| top - i % (top.min(977))).collect();
            check(p, &high);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn inverse_batch_rejects_mismatched_output() {
        inverse_batch(23, &[1, 2], &mut [0]);
    }

    #[test]
    fn prime_ranges() {
        assert_eq!(smallest_prime_in(10, 20), Some(11));
        assert_eq!(smallest_prime_in(23, 29), None); // open interval: (23,29) has no prime
        assert_eq!(smallest_prime_in(0, 3), Some(2));
        assert_eq!(smallest_prime_in(2, 3), None);
    }

    #[test]
    fn paper_figure_prime() {
        // Figure 1 uses the 23-cycle; 23 is the smallest prime in (4·5, 8·5).
        assert_eq!(initial_prime(5), 23);
    }

    #[test]
    fn inflation_chain_grows_geometrically() {
        let mut p = initial_prime(8);
        for _ in 0..8 {
            let q = inflation_prime(p);
            assert!(q > 4 * p && q < 8 * p, "p={p} q={q}");
            p = q;
        }
    }

    #[test]
    fn deflation_inverts_inflation_range() {
        let p = 1009u64;
        let q = deflation_prime(p).unwrap();
        assert!(q > p / 8 && q < p / 4, "p={p} q={q}");
    }
}

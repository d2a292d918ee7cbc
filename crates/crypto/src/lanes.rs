//! Multi-lane (batched, software-pipelined) SHA-256 and HMAC.
//!
//! One scalar SHA-256 compression is a 64-round serial dependency chain:
//! each round's working state feeds the next, so a single message schedule
//! can never fill a superscalar core's ALU ports. Interleaving [`LANES`]
//! *independent* message schedules breaks that ceiling: the crate's one
//! round function, `compress_lanes`, runs here at `N = LANES` over an
//! array-of-lanes state, and the compiler turns each round operation into
//! one SIMD operation over all eight lanes.
//!
//! The engine is resumed from the per-key HMAC ipad/opad *midstates*
//! ([`crate::HmacSha256`] precomputes them), so a batched 64-byte MAC costs
//! the same three compressions per lane as the scalar path — it just runs
//! eight of them at once. [`mac64_batch`] is the public entry point; it is
//! bit-identical to N scalar [`crate::HmacSha256::mac64`] calls (the
//! equivalence and RFC 4231 tests below pin this) and allocation-free.
//!
//! This is what the controller's lazy MAC-verify queue drains through: N
//! deferred leaf verifications become one batched pass (DESIGN.md, "Batched
//! verification lanes").

use crate::hmac::HmacSha256;
use crate::sha256::{compress_lanes, Sha256};

/// Number of interleaved SHA-256 lanes in one batch compression.
///
/// Eight lanes of `u32` fill one AVX2 register (or two 128-bit SSE
/// registers) per round variable, and eight is also the Bonsai tree arity —
/// one drained batch covers one node's worth of children.
pub const LANES: usize = 8;

/// Data-MAC message length the secure-memory controller batches: a 64-byte
/// ciphertext block plus the `b"data"` domain tag, address, major counter
/// and minor counter. Re-exported so queue entries can be fixed-size.
pub const DATA_MAC_MSG_LEN: usize = 64 + 4 + 8 + 8 + 1;

/// Interleaved working state: `state[w][l]` is word `w` of lane `l`.
struct LaneState {
    state: [[u32; LANES]; 8],
}

/// One padded 64-byte block of lane `l` for round-robin compression, plus
/// whether the lane still has blocks to absorb this round.
#[inline]
fn padded_block(msg: &[u8], prior_bytes: u64, r: usize, last: usize) -> [u8; 64] {
    let off = r * 64;
    if off + 64 <= msg.len() {
        let mut b = [0u8; 64];
        b.copy_from_slice(&msg[off..off + 64]);
        return b;
    }
    // Final region: message tail, 0x80 marker, zeros, bit length.
    let mut b = [0u8; 64];
    if off <= msg.len() {
        let tail = &msg[off..];
        b[..tail.len()].copy_from_slice(tail);
        b[tail.len()] = 0x80;
    }
    if r == last {
        let bit_len = (prior_bytes + msg.len() as u64).wrapping_mul(8);
        b[56..64].copy_from_slice(&bit_len.to_be_bytes());
    }
    b
}

/// Number of 64-byte blocks `len` message bytes occupy once padded
/// (excluding any blocks already absorbed by the midstate).
#[inline]
fn padded_blocks(len: usize) -> usize {
    len / 64 + if len % 64 <= 55 { 1 } else { 2 }
}

impl LaneState {
    /// Resumes the engine from one midstate per lane. The midstates must be
    /// block-aligned (nothing buffered) — HMAC pad states always are.
    fn resume(mids: &[&Sha256; LANES]) -> Self {
        let mut state = [[0u32; LANES]; 8];
        for l in 0..LANES {
            debug_assert_eq!(mids[l].buffered_len(), 0, "midstates are block-aligned");
            let words = mids[l].state_words();
            for w in 0..8 {
                state[w][l] = words[w];
            }
        }
        LaneState { state }
    }

    /// One lockstep compression: all lanes absorb their block, but only
    /// `active` lanes commit the result (inactive lanes ran on garbage and
    /// discard it — the uniform control flow is what keeps the round loop
    /// vectorizable).
    fn compress(&mut self, blocks: &[[u8; 64]; LANES], active: &[bool; LANES]) {
        let mut next = self.state;
        compress_lanes(&mut next, blocks);
        for (word, new) in self.state.iter_mut().zip(&next) {
            for l in 0..LANES {
                if active[l] {
                    word[l] = new[l];
                }
            }
        }
    }

    /// Big-endian digest of lane `l`.
    fn digest(&self, l: usize) -> [u8; 32] {
        let mut out = [0u8; 32];
        for w in 0..8 {
            out[w * 4..w * 4 + 4].copy_from_slice(&self.state[w][l].to_be_bytes());
        }
        out
    }
}

/// Eight truncated HMAC-SHA-256 MACs, computed with interleaved lanes.
/// Messages may have different ("ragged") lengths: lanes that run out of
/// blocks simply stop committing state while the stragglers finish.
fn mac64_x8(items: &[(&HmacSha256, &[u8]); LANES]) -> [u64; LANES] {
    // Inner hash: resume each lane's ipad midstate over its message.
    let inner_mids: [&Sha256; LANES] = core::array::from_fn(|l| items[l].0.inner_midstate());
    let mut st = LaneState::resume(&inner_mids);
    let mut last = [0usize; LANES];
    let mut rounds = 0usize;
    for l in 0..LANES {
        last[l] = padded_blocks(items[l].1.len()) - 1;
        rounds = rounds.max(last[l] + 1);
    }
    for r in 0..rounds {
        let mut blocks = [[0u8; 64]; LANES];
        let mut active = [false; LANES];
        for l in 0..LANES {
            if r <= last[l] {
                active[l] = true;
                blocks[l] = padded_block(items[l].1, inner_mids[l].bytes_hashed(), r, last[l]);
            }
        }
        st.compress(&blocks, &active);
    }

    // Outer hash: every lane is exactly one block — opad midstate, 32-byte
    // inner digest, marker, bit length.
    let outer_mids: [&Sha256; LANES] = core::array::from_fn(|l| items[l].0.outer_midstate());
    let mut outer = LaneState::resume(&outer_mids);
    let mut blocks = [[0u8; 64]; LANES];
    for l in 0..LANES {
        blocks[l][..32].copy_from_slice(&st.digest(l));
        blocks[l][32] = 0x80;
        let bit_len = (outer_mids[l].bytes_hashed() + 32).wrapping_mul(8);
        blocks[l][56..64].copy_from_slice(&bit_len.to_be_bytes());
    }
    outer.compress(&blocks, &[true; LANES]);
    core::array::from_fn(|l| (u64::from(outer.state[0][l]) << 32) | u64::from(outer.state[1][l]))
}

/// Computes `N` truncated 64-bit HMAC-SHA-256 MACs in interleaved lanes —
/// bit-identical to `N` scalar [`HmacSha256::mac64`] calls, at a fraction
/// of the per-MAC cost once the lanes fill (the `crypto_bench` artifact and
/// its perfgate row pin the speedup at `N = 8`).
///
/// Batches larger than [`LANES`] are processed in chunks; short or ragged
/// batches pad the unused lanes with a duplicate of the first item and
/// discard those results. Allocation-free for any `N`.
///
/// # Examples
///
/// ```
/// use amnt_crypto::{mac64_batch, HmacSha256};
///
/// let k1 = HmacSha256::new(b"key-1");
/// let k2 = HmacSha256::new(b"key-2");
/// let [a, b] = mac64_batch(&[(&k1, &b"msg-a"[..]), (&k2, &b"msg-b"[..])]);
/// assert_eq!(a, k1.mac64(b"msg-a"));
/// assert_eq!(b, k2.mac64(b"msg-b"));
/// ```
pub fn mac64_batch<const N: usize>(items: &[(&HmacSha256, &[u8]); N]) -> [u64; N] {
    let mut out = [0u64; N];
    let mut i = 0;
    while i < N {
        let take = LANES.min(N - i);
        // Unused lanes replay item `i` (results discarded below).
        let mut lane_items: [(&HmacSha256, &[u8]); LANES] = [items[i]; LANES];
        lane_items[..take].copy_from_slice(&items[i..i + take]);
        let macs = mac64_x8(&lane_items);
        out[i..i + take].copy_from_slice(&macs[..take]);
        i += take;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_rng::Mix;

    fn batch_eq_scalar(keys: &[Vec<u8>], msgs: &[Vec<u8>]) {
        let hmacs: Vec<HmacSha256> = keys.iter().map(|k| HmacSha256::new(k)).collect();
        match msgs.len() {
            1 => run::<1>(&hmacs, msgs),
            2 => run::<2>(&hmacs, msgs),
            4 => run::<4>(&hmacs, msgs),
            8 => run::<8>(&hmacs, msgs),
            13 => run::<13>(&hmacs, msgs),
            _ => unreachable!("unsupported test batch width"),
        }
        fn run<const N: usize>(hmacs: &[HmacSha256], msgs: &[Vec<u8>]) {
            let items: [(&HmacSha256, &[u8]); N] =
                core::array::from_fn(|i| (&hmacs[i % hmacs.len()], &msgs[i][..]));
            let got = mac64_batch(&items);
            for (i, (h, m)) in items.iter().enumerate() {
                assert_eq!(got[i], h.mac64(m), "lane {i} of {N}, len {}", m.len());
            }
        }
    }

    /// Seeded property loop: `mac64_batch` == N scalar `mac64` calls for
    /// N ∈ {1, 2, 4, 8}, over random keys and message lengths that cover
    /// every padding shape (0, block-aligned, 55/56 boundary, multi-block).
    #[test]
    fn batch_matches_scalar_for_all_widths() {
        let mut rng = Mix(0xA3A7_F001);
        for round in 0..24 {
            let keys: Vec<Vec<u8>> = (0..8)
                .map(|_| {
                    let len = 1 + (rng.next() as usize) % 80;
                    rng.bytes(len)
                })
                .collect();
            for n in [1usize, 2, 4, 8] {
                let msgs: Vec<Vec<u8>> = (0..n)
                    .map(|_| {
                        let len = (rng.next() as usize) % 200;
                        rng.bytes(len)
                    })
                    .collect();
                batch_eq_scalar(&keys, &msgs);
            }
            let _ = round;
        }
    }

    /// Ragged tails: lengths straddling every padding boundary in one
    /// batch, plus a batch wider than the lane count (chunked path).
    #[test]
    fn ragged_and_oversized_batches_match_scalar() {
        let mut rng = Mix(7);
        let keys = vec![rng.bytes(32), rng.bytes(131)];
        let edge_lens = [0usize, 1, 54, 55, 56, 63, 64, 65, 119, 120, 128];
        let msgs: Vec<Vec<u8>> = edge_lens.iter().map(|&l| rng.bytes(l)).take(8).collect();
        batch_eq_scalar(&keys, &msgs);
        let wide: Vec<Vec<u8>> = (0..13).map(|i| rng.bytes(edge_lens[i % 11])).collect();
        batch_eq_scalar(&keys, &wide);
    }

    /// RFC 4231 known-answer vectors routed through *every* lane index: the
    /// KAT message rides in lane `i` with filler in the other lanes, so a
    /// lane-transposition bug cannot cancel out.
    #[test]
    fn rfc4231_kats_through_every_lane() {
        let cases: [(&[u8], &[u8], u64); 4] = [
            (&[0x0b; 20], b"Hi There", 0xb034_4c61_d8db_3853),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                0x5bdc_c146_bf60_754e,
            ),
            (&[0xaa; 20], &[0xdd; 50], 0x773e_a91e_3680_0e46),
            (
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                0x60e4_3159_1ee0_b67f,
            ),
        ];
        let filler_key = HmacSha256::new(b"filler");
        for (key, msg, want) in cases {
            let kat = HmacSha256::new(key);
            for lane in 0..LANES {
                let mut items: [(&HmacSha256, &[u8]); LANES] =
                    [(&filler_key, &b"filler message"[..]); LANES];
                items[lane] = (&kat, msg);
                let got = mac64_batch(&items);
                assert_eq!(got[lane], want, "KAT in lane {lane}");
                assert_eq!(got[lane], kat.mac64(msg));
            }
        }
    }

    /// The controller's exact batch shape: eight 85-byte data-MAC messages
    /// under one key.
    #[test]
    fn uniform_data_mac_shape_matches_scalar() {
        let hmac = HmacSha256::new(b"midsummer-integrity-hmac-key-32b");
        let mut rng = Mix(99);
        let msgs: Vec<Vec<u8>> = (0..8).map(|_| rng.bytes(DATA_MAC_MSG_LEN)).collect();
        let items: [(&HmacSha256, &[u8]); 8] = core::array::from_fn(|i| (&hmac, &msgs[i][..]));
        let got = mac64_batch(&items);
        for (i, m) in msgs.iter().enumerate() {
            assert_eq!(got[i], hmac.mac64(m));
        }
    }

    #[test]
    fn padded_blocks_counts_every_boundary() {
        assert_eq!(padded_blocks(0), 1);
        assert_eq!(padded_blocks(55), 1);
        assert_eq!(padded_blocks(56), 2);
        assert_eq!(padded_blocks(64), 2);
        assert_eq!(padded_blocks(119), 2);
        assert_eq!(padded_blocks(120), 3);
        assert_eq!(padded_blocks(DATA_MAC_MSG_LEN), 2);
    }
}

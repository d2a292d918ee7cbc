//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! A streaming [`Sha256`] hasher plus the convenience function [`sha256`].

/// Round constants (first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A streaming SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use amnt_crypto::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(digest[0], 0xba);
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered toward the next 64-byte block.
    buffer: [u8; 64],
    buffered: usize,
    /// Total message length in bytes.
    length: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            length: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.length = self.length.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buffered > 0 {
            let take = rest.len().min(64 - self.buffered);
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        while rest.len() >= 64 {
            let (block, tail) = rest.split_at(64);
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            self.compress(&b);
            rest = tail;
        }
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffered = rest.len();
        }
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.length.wrapping_mul(8);
        // Padding in place: 0x80, zeros to byte 56 of the final block (the
        // next block if the marker lands past byte 55), then the bit length.
        // Built directly rather than via byte-at-a-time `update` calls —
        // this runs once per MAC on the engine's hot path.
        self.buffer[self.buffered] = 0x80;
        if self.buffered >= 56 {
            for b in &mut self.buffer[self.buffered + 1..] {
                *b = 0;
            }
            let block = self.buffer;
            self.compress(&block);
            self.buffer = [0u8; 64];
        } else {
            for b in &mut self.buffer[self.buffered + 1..56] {
                *b = 0;
            }
        }
        self.buffer[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buffer;
        self.compress(&block);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// The eight working-state words — a *midstate* when `buffered_len` is
    /// zero. Used by the multi-lane engine ([`crate::lanes`]) to resume
    /// HMAC pad states without recompressing the pad block.
    pub(crate) fn state_words(&self) -> &[u32; 8] {
        &self.state
    }

    /// Total bytes absorbed so far (feeds the padding bit-length).
    pub(crate) fn bytes_hashed(&self) -> u64 {
        self.length
    }

    /// Bytes buffered toward an incomplete block (zero for HMAC midstates).
    pub(crate) fn buffered_len(&self) -> usize {
        self.buffered
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut lanes = self.state.map(|word| [word]);
        compress_lanes(&mut lanes, core::array::from_ref(block));
        self.state = lanes.map(|[word]| word);
    }
}

/// The SHA-256 compression function over `N` independent lanes:
/// `state[w][l]` is working word `w` of lane `l`, and lane `l` absorbs
/// `blocks[l]`. This is the crate's only round loop: [`Sha256`] runs it at
/// `N = 1` and the multi-lane MAC engine ([`crate::lanes`]) at `N = 8`.
///
/// The lane loop is the outermost loop, around a straight-line body: the
/// 64 rounds are unrolled by a macro with static register renaming, and
/// the message schedule is a 16-word ring extended in place as the rounds
/// reach it. With no inner loop left, LLVM's loop vectorizer turns the
/// lane loop into one pass of `N`-wide vector operations — at `N = 8` on
/// x86-64-v3, every rotate becomes `vpsrld`/`vpslld`/`vpor` on one YMM
/// register — while at `N = 1` the loop disappears and each rotate stays
/// a scalar rotate. The message words are transposed first so that each
/// one is a contiguous load across lanes.
pub(crate) fn compress_lanes<const N: usize>(state: &mut [[u32; N]; 8], blocks: &[[u8; 64]; N]) {
    let mut words = [[0u32; N]; 16];
    for (l, block) in blocks.iter().enumerate() {
        for (word, bytes) in words.iter_mut().zip(block.chunks_exact(4)) {
            if let Some(lane) = word.get_mut(l) {
                *lane = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
            }
        }
    }
    for l in 0..N {
        let mut w = [0u32; 16];
        for (wt, word) in w.iter_mut().zip(&words) {
            *wt = word[l];
        }
        let mut regs = [0u32; 8];
        for (reg, word) in regs.iter_mut().zip(state.iter()) {
            *reg = word[l];
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = regs;
        // Round `$i`. Writes the new `a` into `$h` and the new `e` into
        // `$d`; callers rename instead of rotating.
        macro_rules! round {
            ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident,
             $h:ident, $i:expr) => {{
                if $i >= 16 {
                    // W[i] = σ1(W[i-2]) + W[i-7] + σ0(W[i-15]) + W[i-16],
                    // written over W[i-16]'s slot.
                    let w15 = w[($i + 1) % 16];
                    let w2 = w[($i + 14) % 16];
                    let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                    let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                    w[$i % 16] = w[$i % 16]
                        .wrapping_add(s0)
                        .wrapping_add(w[($i + 9) % 16])
                        .wrapping_add(s1);
                }
                let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
                let ch = ($e & $f) ^ (!$e & $g);
                let t1 = $h
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[$i])
                    .wrapping_add(w[$i % 16]);
                let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
                let maj = ($a & $b) ^ ($a & $c) ^ ($b & $c);
                $d = $d.wrapping_add(t1);
                $h = t1.wrapping_add(s0).wrapping_add(maj);
            }};
        }
        // Eight rounds, after which every register is back in its role.
        macro_rules! eight_rounds {
            ($i:expr) => {
                round!(a, b, c, d, e, f, g, h, $i);
                round!(h, a, b, c, d, e, f, g, $i + 1);
                round!(g, h, a, b, c, d, e, f, $i + 2);
                round!(f, g, h, a, b, c, d, e, $i + 3);
                round!(e, f, g, h, a, b, c, d, $i + 4);
                round!(d, e, f, g, h, a, b, c, $i + 5);
                round!(c, d, e, f, g, h, a, b, $i + 6);
                round!(b, c, d, e, f, g, h, a, $i + 7);
            };
        }
        eight_rounds!(0);
        eight_rounds!(8);
        eight_rounds!(16);
        eight_rounds!(24);
        eight_rounds!(32);
        eight_rounds!(40);
        eight_rounds!(48);
        eight_rounds!(56);
        for (word, reg) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            word[l] = word[l].wrapping_add(reg);
        }
    }
}

/// Hashes `data` in one call.
///
/// ```
/// let d = amnt_crypto::sha256(b"");
/// assert_eq!(d[0], 0xe3);
/// ```
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(digest: &[u8]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn nist_empty_string() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_448_bit_message() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let oneshot = sha256(&data);
        for split in [0usize, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), oneshot, "split at {split}");
        }
    }

    /// A hasher cloned mid-stream (a *midstate*) and resumed must equal
    /// one-shot hashing — what the HMAC ipad/opad precomputation relies on.
    #[test]
    fn midstate_clone_and_resume_matches_oneshot() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 31 % 256) as u8).collect();
        for split in [0usize, 1, 63, 64, 65, 128, 299, 300] {
            let mut mid = Sha256::new();
            mid.update(&data[..split]);
            // Resume two independent clones: neither may disturb the other.
            let mut a = mid.clone();
            let mut b = mid.clone();
            a.update(&data[split..]);
            b.update(b"different tail");
            assert_eq!(a.finalize(), sha256(&data), "split at {split}");
            let mut oneshot = Sha256::new();
            oneshot.update(&data[..split]);
            oneshot.update(b"different tail");
            assert_eq!(b.finalize(), oneshot.finalize(), "clone at {split}");
        }
    }

    #[test]
    fn byte_at_a_time_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut h = Sha256::new();
        for b in data {
            h.update(&[*b]);
        }
        assert_eq!(h.finalize(), sha256(data));
    }
}

//! AES-128 block cipher (FIPS-197), encryption direction only.
//!
//! Counter-mode encryption ([`crate::ctr`]) only ever runs the cipher in the
//! forward direction (the pad is XOR'ed for both encrypt and decrypt), so no
//! inverse cipher is provided.
//!
//! This is a T-table software implementation on 32-bit words, intended for
//! functional simulation of a memory encryption engine. Its lookups are
//! indexed by secret state, so it makes no constant-time claims and must
//! not be used to protect real secrets.

/// The AES S-box (FIPS-197 Figure 7).
const S_BOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab,
    0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4,
    0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71,
    0xd8, 0x31, 0x15, 0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6,
    0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb,
    0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf, 0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45,
    0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44,
    0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73, 0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a,
    0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49,
    0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08, 0xba, 0x78, 0x25,
    0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e,
    0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1,
    0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb,
    0x16,
];

/// Round constants for the key schedule.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiply a field element by `x` (i.e. `{02}`) in GF(2^8) mod the AES polynomial.
#[inline]
const fn xtime(a: u8) -> u8 {
    (a << 1) ^ (if a & 0x80 != 0 { 0x1b } else { 0 })
}

/// Round table: `TE[x]` is the MixColumns column `(2·S, S, S, 3·S)` of
/// `S = S_BOX[x]` as a little-endian word — what state row 0's byte `x`
/// contributes to its output column in a full round. Rows 1–3 contribute
/// the same column rotated down by one, two and three bytes, i.e. `TE[x]`
/// rotated left by 8, 16 and 24 bits.
const TE: [u32; 256] = {
    let mut t = [0u32; 256];
    let mut x = 0;
    while x < 256 {
        let s = S_BOX[x];
        t[x] = u32::from_le_bytes([xtime(s), s, s, xtime(s) ^ s]);
        x += 1;
    }
    t
};

/// Byte `row` of a little-endian column word, as a table index.
#[inline(always)]
fn byte(word: u32, row: u32) -> usize {
    ((word >> (8 * row)) & 0xff) as usize
}

/// SubBytes on each byte of a word.
#[inline(always)]
fn sub_word(w: u32) -> u32 {
    u32::from_le_bytes(w.to_le_bytes().map(|b| S_BOX[usize::from(b)]))
}

/// An AES-128 cipher with an expanded key schedule.
///
/// The state and round keys are held as four little-endian column words,
/// and each full round is four table lookups per column (SubBytes,
/// ShiftRows and MixColumns folded into `TE`).
///
/// # Examples
///
/// ```
/// use amnt_crypto::Aes128;
///
/// let key = [0u8; 16];
/// let aes = Aes128::new(&key);
/// let mut block = [0u8; 16];
/// aes.encrypt_block(&mut block);
/// assert_ne!(block, [0u8; 16]);
/// ```
#[derive(Clone)]
pub struct Aes128 {
    /// 11 round keys of four little-endian column words each.
    round_keys: [[u32; 4]; 11],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes128").field("round_keys", &"<redacted>").finish()
    }
}

impl Aes128 {
    /// Expands `key` into the full round-key schedule.
    pub fn new(key: &[u8; 16]) -> Self {
        let mut w = [0u32; 44];
        for (word, bytes) in w.iter_mut().zip(key.chunks_exact(4)) {
            *word = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                // RotWord moves byte 0 to the top: a right rotate of the
                // little-endian word. Rcon lands in byte 0.
                temp = sub_word(temp.rotate_right(8)) ^ u32::from(RCON[i / 4 - 1]);
            }
            w[i] = w[i - 4] ^ temp;
        }
        Aes128 {
            round_keys: core::array::from_fn(|r| core::array::from_fn(|c| w[r * 4 + c])),
        }
    }

    /// Encrypts one 16-byte block in place.
    ///
    /// ```
    /// use amnt_crypto::Aes128;
    /// // FIPS-197 Appendix B known-answer test.
    /// let key = [0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
    ///            0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c];
    /// let mut block = [0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
    ///                  0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34];
    /// Aes128::new(&key).encrypt_block(&mut block);
    /// assert_eq!(block[..4], [0x39, 0x25, 0x84, 0x1d]);
    /// ```
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        self.encrypt_n(core::array::from_mut(block));
    }

    /// Encrypts a copy of `block`, returning the ciphertext.
    pub fn encrypt(&self, block: [u8; 16]) -> [u8; 16] {
        let mut out = block;
        self.encrypt_block(&mut out);
        out
    }

    /// Encrypts `N` independent blocks in place with their rounds
    /// interleaved: each round runs over every block before the next round
    /// starts, so one block's table loads overlap the others' instead of
    /// waiting on its own previous round.
    pub(crate) fn encrypt_n<const N: usize>(&self, blocks: &mut [[u8; 16]; N]) {
        let [first, middle @ .., last] = &self.round_keys;
        let mut states = [[0u32; 4]; N];
        for (s, block) in states.iter_mut().zip(blocks.iter()) {
            for ((col, bytes), k) in s.iter_mut().zip(block.chunks_exact(4)).zip(first) {
                *col = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) ^ k;
            }
        }
        for rk in middle {
            for s in states.iter_mut() {
                let [s0, s1, s2, s3] = *s;
                *s = [
                    round_column(s0, s1, s2, s3, rk[0]),
                    round_column(s1, s2, s3, s0, rk[1]),
                    round_column(s2, s3, s0, s1, rk[2]),
                    round_column(s3, s0, s1, s2, rk[3]),
                ];
            }
        }
        for (block, s) in blocks.iter_mut().zip(&states) {
            let [s0, s1, s2, s3] = *s;
            let out = [
                final_column(s0, s1, s2, s3, last[0]),
                final_column(s1, s2, s3, s0, last[1]),
                final_column(s2, s3, s0, s1, last[2]),
                final_column(s3, s0, s1, s2, last[3]),
            ];
            for (bytes, col) in block.chunks_exact_mut(4).zip(out) {
                bytes.copy_from_slice(&col.to_le_bytes());
            }
        }
    }
}

/// One output column of a full round. ShiftRows is the argument order:
/// row `r` of output column `c` comes from input column `c + r`, so the
/// caller passes columns `c, c+1, c+2, c+3` and this takes row `r` of
/// the `r`-th.
#[inline(always)]
fn round_column(a: u32, b: u32, c: u32, d: u32, key: u32) -> u32 {
    TE[byte(a, 0)]
        ^ TE[byte(b, 1)].rotate_left(8)
        ^ TE[byte(c, 2)].rotate_left(16)
        ^ TE[byte(d, 3)].rotate_left(24)
        ^ key
}

/// One output column of the final round: SubBytes and ShiftRows only,
/// straight from `S_BOX`.
#[inline(always)]
fn final_column(a: u32, b: u32, c: u32, d: u32, key: u32) -> u32 {
    u32::from_le_bytes([
        S_BOX[byte(a, 0)],
        S_BOX[byte(b, 1)],
        S_BOX[byte(c, 2)],
        S_BOX[byte(d, 3)],
    ]) ^ key
}

/// The byte-wise FIPS-197 cipher, with SubBytes, ShiftRows and MixColumns
/// as separate passes over a column-major byte state: the reference the
/// word-wise cipher is checked against.
#[cfg(test)]
mod reference {
    use super::{xtime, RCON, S_BOX};

    /// Expands `key` and encrypts `block`.
    pub(super) fn encrypt(key: &[u8; 16], block: [u8; 16]) -> [u8; 16] {
        let round_keys = expand(key);
        let mut state = block;
        add_round_key(&mut state, &round_keys[0]);
        for rk in &round_keys[1..10] {
            sub_bytes(&mut state);
            shift_rows(&mut state);
            mix_columns(&mut state);
            add_round_key(&mut state, rk);
        }
        sub_bytes(&mut state);
        shift_rows(&mut state);
        add_round_key(&mut state, &round_keys[10]);
        state
    }

    fn expand(key: &[u8; 16]) -> [[u8; 16]; 11] {
        let mut w = [[0u8; 4]; 44];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            w[i].copy_from_slice(chunk);
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                // RotWord + SubWord + Rcon.
                temp.rotate_left(1);
                for b in &mut temp {
                    *b = S_BOX[*b as usize];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[c * 4..c * 4 + 4].copy_from_slice(&w[r * 4 + c]);
            }
        }
        round_keys
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for (s, k) in state.iter_mut().zip(rk.iter()) {
            *s ^= k;
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = S_BOX[*b as usize];
        }
    }

    /// State is column-major: byte `state[c*4 + r]` is row `r`, column `c`.
    fn shift_rows(state: &mut [u8; 16]) {
        // Row 1: rotate left by 1.
        let t = state[1];
        state[1] = state[5];
        state[5] = state[9];
        state[9] = state[13];
        state[13] = t;
        // Row 2: rotate left by 2.
        state.swap(2, 10);
        state.swap(6, 14);
        // Row 3: rotate left by 3 (== right by 1).
        let t = state[15];
        state[15] = state[11];
        state[11] = state[7];
        state[7] = state[3];
        state[3] = t;
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = &mut state[c * 4..c * 4 + 4];
            let a0 = col[0];
            let a1 = col[1];
            let a2 = col[2];
            let a3 = col[3];
            let all = a0 ^ a1 ^ a2 ^ a3;
            col[0] = a0 ^ all ^ xtime(a0 ^ a1);
            col[1] = a1 ^ all ^ xtime(a1 ^ a2);
            col[2] = a2 ^ all ^ xtime(a2 ^ a3);
            col[3] = a3 ^ all ^ xtime(a3 ^ a0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_rng::Mix;

    /// FIPS-197 Appendix B: (key, plaintext, ciphertext).
    const APPENDIX_B: ([u8; 16], [u8; 16], [u8; 16]) = (
        [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ],
        [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ],
        [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ],
    );

    /// FIPS-197 Appendix C.1 (AES-128): (key, plaintext, ciphertext).
    const APPENDIX_C1: ([u8; 16], [u8; 16], [u8; 16]) = (
        [
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ],
        [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ],
        [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ],
    );

    #[test]
    fn fips197_appendix_b() {
        let (key, mut block, want) = APPENDIX_B;
        Aes128::new(&key).encrypt_block(&mut block);
        assert_eq!(block, want);
        assert_eq!(reference::encrypt(&key, APPENDIX_B.1), want);
    }

    #[test]
    fn fips197_appendix_c1() {
        let (key, mut block, want) = APPENDIX_C1;
        Aes128::new(&key).encrypt_block(&mut block);
        assert_eq!(block, want);
        assert_eq!(reference::encrypt(&key, APPENDIX_C1.1), want);
    }

    /// The known answers ride in every position of a 4-block batch, with
    /// filler in the others, so a mix-up between interleaved blocks cannot
    /// cancel out.
    #[test]
    fn fips197_kats_through_every_batch_position() {
        for (key, plain, want) in [APPENDIX_B, APPENDIX_C1] {
            let aes = Aes128::new(&key);
            for pos in 0..4 {
                let mut blocks: [[u8; 16]; 4] = core::array::from_fn(|i| [0x5a ^ i as u8; 16]);
                blocks[pos] = plain;
                let fillers = blocks;
                aes.encrypt_n(&mut blocks);
                assert_eq!(blocks[pos], want, "KAT in position {pos}");
                for (i, (got, filler)) in blocks.iter().zip(fillers).enumerate() {
                    assert_eq!(*got, aes.encrypt(filler), "filler in position {i}");
                }
            }
        }
    }

    /// The word-wise cipher equals the byte-wise reference on seeded random
    /// keys and blocks, one block at a time and four at a time.
    #[test]
    fn matches_bytewise_reference_singly_and_in_batches() {
        let mut rng = Mix(0xAE5_7AB1E);
        for _ in 0..20_000 {
            let key: [u8; 16] = rng.array();
            let blocks: [[u8; 16]; 4] = core::array::from_fn(|_| rng.array());
            let want = blocks.map(|b| reference::encrypt(&key, b));
            let aes = Aes128::new(&key);
            for (b, w) in blocks.iter().zip(&want) {
                assert_eq!(aes.encrypt(*b), *w, "key {key:02x?} block {b:02x?}");
            }
            let mut batch = blocks;
            aes.encrypt_n(&mut batch);
            assert_eq!(batch, want, "key {key:02x?}");
        }
    }

    #[test]
    fn different_keys_give_different_ciphertexts() {
        let block = [0u8; 16];
        let a = Aes128::new(&[0u8; 16]).encrypt(block);
        let b = Aes128::new(&[1u8; 16]).encrypt(block);
        assert_ne!(a, b);
    }

    #[test]
    fn encryption_is_deterministic() {
        let aes = Aes128::new(&[7u8; 16]);
        let block = [42u8; 16];
        assert_eq!(aes.encrypt(block), aes.encrypt(block));
    }

    #[test]
    fn debug_does_not_leak_key() {
        let aes = Aes128::new(&[0xAA; 16]);
        let s = format!("{aes:?}");
        assert!(s.contains("redacted"));
        assert!(!s.contains("170")); // 0xAA
    }

    #[test]
    fn xtime_matches_field_arithmetic() {
        assert_eq!(xtime(0x57), 0xae);
        assert_eq!(xtime(0xae), 0x47);
        assert_eq!(xtime(0x47), 0x8e);
        assert_eq!(xtime(0x8e), 0x07);
    }
}

//! # amnt-crypto
//!
//! From-scratch cryptographic primitives for the Midsummer secure-memory
//! engine: [`Aes128`] (FIPS-197), [`Sha256`] (FIPS 180-4), [`HmacSha256`]
//! (RFC 2104), and the counter-mode encryption engine [`CtrEngine`] used to
//! encrypt 64-byte memory blocks with split (major, minor) counters.
//!
//! These implementations are *functional* — the simulator really encrypts,
//! MACs and verifies data — but they are plain software implementations with
//! no constant-time or side-channel guarantees. They model a hardware memory
//! encryption engine; do not use them to protect real secrets.
//!
//! ## Example
//!
//! ```
//! use amnt_crypto::{CtrEngine, HmacSha256};
//!
//! // Encrypt one cache line, MAC it, verify it.
//! let engine = CtrEngine::new(&[1; 16]);
//! let hmac = HmacSha256::new(b"integrity key");
//!
//! let plaintext = [0xAB; 64];
//! let ciphertext = engine.encrypt_block(0x4000, 1, 0, &plaintext);
//! let tag = hmac.mac64(&ciphertext);
//!
//! assert_eq!(hmac.mac64(&ciphertext), tag);
//! assert_eq!(engine.decrypt_block(0x4000, 1, 0, &ciphertext), plaintext);
//! ```

#![forbid(unsafe_code)]

mod aes;
mod ctr;
mod hmac;
mod lanes;
mod sha256;

pub use aes::Aes128;
pub use ctr::{CtrEngine, BLOCK_SIZE};
pub use hmac::HmacSha256;
pub use lanes::{mac64_batch, DATA_MAC_MSG_LEN, LANES};
pub use sha256::{sha256, Sha256};

/// Tiny deterministic generator (SplitMix64) for the unit tests — the
/// crypto crate stays dependency-free, including on the in-tree prng.
#[cfg(test)]
mod test_rng {
    pub(crate) struct Mix(pub(crate) u64);

    impl Mix {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        pub(crate) fn bytes(&mut self, len: usize) -> Vec<u8> {
            (0..len).map(|_| self.next() as u8).collect()
        }

        pub(crate) fn array<const N: usize>(&mut self) -> [u8; N] {
            core::array::from_fn(|_| self.next() as u8)
        }
    }
}

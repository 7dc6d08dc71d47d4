//! From-scratch SipHash-2-4 (Aumasson & Bernstein), the keyed PRF
//! underlying every digest in this crate. Verified against the reference
//! test vectors from the SipHash paper / reference implementation.

/// SipHash-2-4 under a 128-bit key of the concatenation of `parts`, each
/// read in place.
pub fn siphash24(key: &[u8; 16], parts: impl IntoIterator<Item = impl AsRef<[u8]>>) -> u64 {
    let k0 = u64::from_le_bytes(key[..8].try_into().expect("8 bytes"));
    let k1 = u64::from_le_bytes(key[8..].try_into().expect("8 bytes"));
    let mut v = [
        0x736f6d6570736575 ^ k0,
        0x646f72616e646f6d ^ k1,
        0x6c7967656e657261 ^ k0,
        0x7465646279746573 ^ k1,
    ];

    #[inline(always)]
    fn sipround([v0, v1, v2, v3]: &mut [u64; 4]) {
        *v0 = v0.wrapping_add(*v1);
        *v1 = v1.rotate_left(13);
        *v1 ^= *v0;
        *v0 = v0.rotate_left(32);
        *v2 = v2.wrapping_add(*v3);
        *v3 = v3.rotate_left(16);
        *v3 ^= *v2;
        *v0 = v0.wrapping_add(*v3);
        *v3 = v3.rotate_left(21);
        *v3 ^= *v0;
        *v2 = v2.wrapping_add(*v1);
        *v1 = v1.rotate_left(17);
        *v1 ^= *v2;
        *v2 = v2.rotate_left(32);
    }
    let compress = |v: &mut [u64; 4], m: u64| {
        v[3] ^= m;
        sipround(v);
        sipround(v);
        v[0] ^= m;
    };

    // The bytes of the word not yet complete, and how many were read.
    let (mut last, mut len) = (0u64, 0usize);
    for part in parts {
        let mut bytes = part.as_ref();
        // A part starting inside a word tops it up byte by byte.
        while len % 8 != 0 {
            let Some((&b, rest)) = bytes.split_first() else { break };
            (last, len, bytes) = (last | u64::from(b) << (8 * (len % 8)), len + 1, rest);
            if len % 8 == 0 {
                compress(&mut v, std::mem::take(&mut last));
            }
        }
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            compress(&mut v, u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        len += bytes.len() - chunks.remainder().len();
        for &b in chunks.remainder() {
            (last, len) = (last | u64::from(b) << (8 * (len % 8)), len + 1);
        }
    }

    // Final block: remaining bytes + length in the top byte.
    compress(&mut v, last | (len as u64 & 0xFF) << 56);
    v[2] ^= 0xFF;
    for _ in 0..4 {
        sipround(&mut v);
    }
    v[0] ^ v[1] ^ v[2] ^ v[3]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// First 16 vectors from the SipHash reference implementation
    /// (key = 00 01 .. 0f, input = empty, 00, 00 01, ...).
    const REFERENCE: [u64; 16] = [
        0x726fdb47dd0e0e31,
        0x74f839c593dc67fd,
        0x0d6c8009d9a94f5a,
        0x85676696d7fb7e2d,
        0xcf2794e0277187b7,
        0x18765564cd99a68d,
        0xcbc9466e58fee3ce,
        0xab0200f58b01d137,
        0x93f5f5799a932462,
        0x9e0082df0ba9e4b0,
        0x7a5dbbc594ddb9f3,
        0xf4b32f46226bada7,
        0x751e8fbc860ee5fb,
        0x14ea5627c0843d90,
        0xf723ca908e7af2ee,
        0xa129ca6149be45e5,
    ];

    #[test]
    fn reference_vectors() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        for (len, expected) in REFERENCE.iter().enumerate() {
            let input: Vec<u8> = (0..len as u8).collect();
            assert_eq!(siphash24(&key, [&input]), *expected, "vector length {len}");
        }
    }

    #[test]
    fn key_sensitivity() {
        let k1 = [0u8; 16];
        let mut k2 = [0u8; 16];
        k2[15] = 1;
        assert_ne!(siphash24(&k1, [b"data"]), siphash24(&k2, [b"data"]));
    }

    #[test]
    fn length_extension_distinct() {
        // Messages that are prefixes of each other must hash differently.
        let key = [7u8; 16];
        assert_ne!(siphash24(&key, [b"abc"]), siphash24(&key, [b"abc\0"]));
        assert_ne!(siphash24(&key, [b""]), siphash24(&key, [b"\0"]));
    }

    #[test]
    fn long_input_cross_block_boundaries() {
        let key = [3u8; 16];
        let mut seen = std::collections::HashSet::new();
        for len in 0..64 {
            let input: Vec<u8> = (0..len).map(|i| i as u8).collect();
            assert!(seen.insert(siphash24(&key, [&input])), "collision at length {len}");
        }
    }
}

//! Per-column block encodings for store chunks.
//!
//! A block encodes one column of a single day's chunk as a `(tag, data)`
//! pair. Values are carried as `u64` regardless of the column's on-disk
//! width (1, 2 or 4 bytes) so one codec set serves every column:
//!
//! | tag | encoding      | layout                                            |
//! |-----|---------------|---------------------------------------------------|
//! | 0   | raw           | `value[width × n]` little-endian                  |
//! | 1   | constant      | `value[width]` (all rows equal)                   |
//! | 2   | RLE           | `(run_len:uvarint value[width])*`                 |
//! | 3   | delta varint  | `zigzag(v0) zigzag(v1−v0) …` as LEB128 uvarints   |
//! | 4   | dict packed   | `dict_len:uvarint dict[width × d] indices` where  |
//! |     |               | indices are `⌈log₂ d⌉`-bit, LSB-first packed      |
//!
//! [`choose_block`] encodes a column with every applicable codec and
//! keeps the smallest output; ties break toward the lower tag. The
//! choice is a pure function of the values, which is what keeps resumed
//! stores byte-identical to uninterrupted writes.
//!
//! Decoding validates everything it touches — widths, varint
//! termination, dict bounds, exact data consumption — and returns
//! `InvalidData` rather than panicking: a corrupt block must surface as
//! a store error with a locus, not a crash.

use std::io::{self, ErrorKind};

/// Raw little-endian values, `width` bytes each.
pub const TAG_RAW: u8 = 0;
/// A single value repeated for every row.
pub const TAG_CONSTANT: u8 = 1;
/// Run-length encoded `(count, value)` pairs.
pub const TAG_RLE: u8 = 2;
/// Zigzag deltas between consecutive values, LEB128-varint coded.
pub const TAG_DELTA_VARINT: u8 = 3;
/// Sorted value dictionary plus bit-width-packed indices.
pub const TAG_DICT_PACKED: u8 = 4;

/// Dictionary encoding is only attempted below this many distinct
/// values: past it the dictionary itself dominates and raw/delta wins.
const DICT_MAX_ENTRIES: usize = 4096;

fn bad(msg: String) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, msg)
}

fn width_max(width: usize) -> u64 {
    match width {
        8 => u64::MAX,
        w => (1u64 << (8 * w)) - 1,
    }
}

fn put_value(buf: &mut Vec<u8>, v: u64, width: usize) {
    buf.extend_from_slice(&v.to_le_bytes()[..width]);
}

fn get_value(data: &[u8], pos: usize, width: usize) -> u64 {
    let mut bytes = [0u8; 8];
    bytes[..width].copy_from_slice(&data[pos..pos + width]);
    u64::from_le_bytes(bytes)
}

/// Append `v` as a LEB128 unsigned varint.
pub fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Read a LEB128 unsigned varint at `pos`, returning the value and the
/// position just past it.
pub fn read_uvarint(data: &[u8], mut pos: usize) -> io::Result<(u64, usize)> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &byte =
            data.get(pos).ok_or_else(|| bad("varint runs past the end of the block".into()))?;
        pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(bad("varint overflows u64".into()));
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok((v, pos));
        }
        shift += 7;
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn encode_raw(values: &[u64], width: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(values.len() * width);
    for &v in values {
        put_value(&mut buf, v, width);
    }
    buf
}

fn encode_rle(values: &[u64], width: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut i = 0;
    while i < values.len() {
        let mut run = 1usize;
        while i + run < values.len() && values[i + run] == values[i] {
            run += 1;
        }
        put_uvarint(&mut buf, run as u64);
        put_value(&mut buf, values[i], width);
        i += run;
    }
    buf
}

fn encode_delta_varint(values: &[u64]) -> Vec<u8> {
    // Deltas are mod-2^64 (wrapping), so the codec is total over u64;
    // for in-range data this emits the same bytes as plain subtraction.
    let mut buf = Vec::new();
    let mut prev: u64 = 0;
    for &v in values {
        put_uvarint(&mut buf, zigzag(v.wrapping_sub(prev) as i64));
        prev = v;
    }
    buf
}

/// Bits needed to index a dictionary of `len` entries (0 for ≤1).
fn index_bits(len: usize) -> u32 {
    if len <= 1 {
        0
    } else {
        usize::BITS - (len - 1).leading_zeros()
    }
}

fn encode_dict_packed(values: &[u64], width: usize) -> Option<Vec<u8>> {
    let mut dict: Vec<u64> = values.to_vec();
    dict.sort_unstable();
    dict.dedup();
    if dict.len() > DICT_MAX_ENTRIES {
        return None;
    }
    let mut buf = Vec::new();
    put_uvarint(&mut buf, dict.len() as u64);
    for &v in &dict {
        put_value(&mut buf, v, width);
    }
    let bits = index_bits(dict.len());
    let mut acc: u64 = 0;
    let mut filled: u32 = 0;
    for &v in values {
        let index = dict.binary_search(&v).expect("value came from the dict") as u64;
        acc |= index << filled;
        filled += bits;
        while filled >= 8 {
            buf.push((acc & 0xff) as u8);
            acc >>= 8;
            filled -= 8;
        }
    }
    if filled > 0 {
        buf.push((acc & 0xff) as u8);
    }
    Some(buf)
}

/// Encode one column block, trying every applicable codec and keeping
/// the smallest output (ties break toward the lower tag). Every value
/// must fit in `width` bytes; an empty column encodes as an empty raw
/// block.
pub fn choose_block(values: &[u64], width: usize) -> (u8, Vec<u8>) {
    debug_assert!(values.iter().all(|&v| v <= width_max(width)));
    if values.is_empty() {
        return (TAG_RAW, Vec::new());
    }
    let mut best = (TAG_RAW, encode_raw(values, width));
    let mut consider = |tag: u8, data: Vec<u8>| {
        if data.len() < best.1.len() || (data.len() == best.1.len() && tag < best.0) {
            best = (tag, data);
        }
    };
    if values.iter().all(|&v| v == values[0]) {
        let mut data = Vec::with_capacity(width);
        put_value(&mut data, values[0], width);
        consider(TAG_CONSTANT, data);
    }
    consider(TAG_RLE, encode_rle(values, width));
    consider(TAG_DELTA_VARINT, encode_delta_varint(values));
    if let Some(data) = encode_dict_packed(values, width) {
        consider(TAG_DICT_PACKED, data);
    }
    best
}

/// Decode one column block of exactly `rows` values into `out`.
///
/// Rejects unknown tags, values that do not fit `width`, and blocks
/// whose data is shorter or longer than the encoding requires.
pub fn decode_block(
    tag: u8,
    data: &[u8],
    rows: usize,
    width: usize,
    out: &mut Vec<u64>,
) -> io::Result<()> {
    out.clear();
    out.reserve(rows);
    if tag > TAG_DICT_PACKED {
        return Err(bad(format!("unknown block encoding tag {tag}")));
    }
    if rows == 0 {
        if !data.is_empty() {
            return Err(bad(format!("empty block carries {} stray bytes", data.len())));
        }
        return Ok(());
    }
    let max = width_max(width);
    match tag {
        TAG_RAW => {
            if data.len() != rows * width {
                return Err(bad(format!(
                    "raw block is {} bytes, expected {} ({rows} rows × {width})",
                    data.len(),
                    rows * width
                )));
            }
            for i in 0..rows {
                out.push(get_value(data, i * width, width));
            }
        }
        TAG_CONSTANT => {
            if data.len() != width {
                return Err(bad(format!(
                    "constant block is {} bytes, expected {width}",
                    data.len()
                )));
            }
            let v = get_value(data, 0, width);
            out.resize(rows, v);
        }
        TAG_RLE => {
            let mut pos = 0;
            while out.len() < rows {
                let (run, next) = read_uvarint(data, pos)?;
                if run == 0 || run > (rows - out.len()) as u64 {
                    return Err(bad(format!("RLE run of {run} overruns {rows} rows")));
                }
                if data.len() - next < width {
                    return Err(bad("RLE value runs past the end of the block".into()));
                }
                let v = get_value(data, next, width);
                pos = next + width;
                out.resize(out.len() + run as usize, v);
            }
            if pos != data.len() {
                return Err(bad(format!("RLE block has {} trailing bytes", data.len() - pos)));
            }
        }
        TAG_DELTA_VARINT => {
            let mut pos = 0;
            let mut prev: u64 = 0;
            for _ in 0..rows {
                // Small deltas dominate real columns, so single-byte
                // varints get a branch instead of the general loop.
                let (z, next) = match data.get(pos) {
                    Some(&b) if b & 0x80 == 0 => (u64::from(b), pos + 1),
                    _ => read_uvarint(data, pos)?,
                };
                pos = next;
                // Mirror the encoder's wrapping mod-2^64 delta domain.
                let v = prev.wrapping_add(unzigzag(z) as u64);
                if v > max {
                    return Err(bad(format!("delta block value {v} does not fit {width} bytes")));
                }
                out.push(v);
                prev = v;
            }
            if pos != data.len() {
                return Err(bad(format!("delta block has {} trailing bytes", data.len() - pos)));
            }
        }
        TAG_DICT_PACKED => {
            let (len, mut pos) = read_uvarint(data, 0)?;
            let len = len as usize;
            if len == 0 || len > DICT_MAX_ENTRIES {
                return Err(bad(format!("dict block has implausible dictionary size {len}")));
            }
            if data.len() - pos < len * width {
                return Err(bad("dict block dictionary runs past the end".into()));
            }
            let mut dict = Vec::with_capacity(len);
            for i in 0..len {
                dict.push(get_value(data, pos + i * width, width));
            }
            pos += len * width;
            let bits = index_bits(len);
            let packed = &data[pos..];
            let need = (rows * bits as usize).div_ceil(8);
            if packed.len() != need {
                return Err(bad(format!(
                    "dict block indices are {} bytes, expected {need}",
                    packed.len()
                )));
            }
            let mut acc: u64 = 0;
            let mut filled: u32 = 0;
            let mut byte = 0usize;
            for _ in 0..rows {
                while filled < bits {
                    acc |= (packed[byte] as u64) << filled;
                    byte += 1;
                    filled += 8;
                }
                let index = if bits == 0 { 0 } else { (acc & ((1u64 << bits) - 1)) as usize };
                acc >>= bits;
                filled -= bits;
                let v = *dict
                    .get(index)
                    .ok_or_else(|| bad(format!("dict index {index} out of range {len}")))?;
                out.push(v);
            }
            if filled >= 8 || (acc != 0 && bits > 0) {
                return Err(bad("dict block has stray trailing index bits".into()));
            }
        }
        other => return Err(bad(format!("unknown block encoding tag {other}"))),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(values: &[u64], width: usize) -> (u8, usize) {
        let (tag, data) = choose_block(values, width);
        let mut out = Vec::new();
        decode_block(tag, &data, values.len(), width, &mut out).expect("decode");
        assert_eq!(out, values, "round trip failed for tag {tag}");
        (tag, data.len())
    }

    #[test]
    fn constant_column_collapses() {
        let values = vec![7u64; 500];
        let (tag, len) = round_trip(&values, 4);
        assert_eq!(tag, TAG_CONSTANT);
        assert_eq!(len, 4);
    }

    #[test]
    fn sorted_ids_take_about_a_byte_per_row() {
        let values: Vec<u64> = (0..1000u64).flat_map(|i| [i, i]).collect();
        let (tag, len) = round_trip(&values, 4);
        assert_eq!(tag, TAG_DELTA_VARINT);
        assert!(len <= values.len(), "{len} bytes for {} rows", values.len());
    }

    #[test]
    fn tiny_alphabet_bit_packs() {
        let values: Vec<u64> = (0..4096u64).map(|i| (i * 7) % 5).collect();
        let (tag, len) = round_trip(&values, 4);
        assert_eq!(tag, TAG_DICT_PACKED);
        // 5 entries → 3 bits/row plus the dictionary itself.
        assert!(len < 4096 / 2, "{len} bytes");
    }

    #[test]
    fn empty_and_single_row_blocks() {
        assert_eq!(round_trip(&[], 4), (TAG_RAW, 0));
        round_trip(&[0], 1);
        round_trip(&[u64::from(u32::MAX)], 4);
        round_trip(&[u64::from(u16::MAX)], 2);
    }

    #[test]
    fn adversarial_values_fall_back_to_raw_sizes() {
        // High-cardinality alternating extremes: dict overflows its cap
        // at >4096 distinct values, deltas are huge, RLE runs are 1.
        let values: Vec<u64> = (0..10_000u64)
            .map(|i| if i % 2 == 0 { i * 431 } else { u32::MAX as u64 - i })
            .collect();
        let (_, len) = round_trip(&values, 4);
        assert!(len <= values.len() * 4, "never worse than raw: {len}");
    }

    #[test]
    fn decode_rejects_malformed_blocks() {
        let mut out = Vec::new();
        // Unknown tag.
        assert!(decode_block(9, &[], 0, 4, &mut out).is_err());
        // Truncated raw.
        assert!(decode_block(TAG_RAW, &[1, 2, 3], 1, 4, &mut out).is_err());
        // RLE run past the row count.
        let mut rle = Vec::new();
        put_uvarint(&mut rle, 3);
        rle.extend_from_slice(&[5, 0, 0, 0]);
        assert!(decode_block(TAG_RLE, &rle, 2, 4, &mut out).is_err());
        // Delta that leaves the column's width.
        let mut delta = Vec::new();
        put_uvarint(&mut delta, zigzag(300));
        assert!(decode_block(TAG_DELTA_VARINT, &delta, 1, 1, &mut out).is_err());
        // Dict index bytes of the wrong length.
        let mut dict = Vec::new();
        put_uvarint(&mut dict, 2);
        dict.extend_from_slice(&[1, 0, 0, 0, 2, 0, 0, 0]);
        assert!(decode_block(TAG_DICT_PACKED, &dict, 9, 4, &mut out).is_err());
        // Unterminated varint.
        assert!(read_uvarint(&[0x80, 0x80], 0).is_err());
    }
}

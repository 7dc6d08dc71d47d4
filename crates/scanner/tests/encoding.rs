//! v2 block-codec and on-disk format tests:
//!
//! 1. **Codec round-trips (property)** — every encoder the chooser can
//!    pick (raw / constant / RLE / delta-varint / dict-packed) survives
//!    encode → decode exactly, including empty, single-row, and
//!    adversarial high-cardinality blocks, and the chooser never emits
//!    a block larger than raw.
//! 2. **Decoder against its reference model (property)** — blocks of
//!    every codec, width and dict bit width, valid or with a byte
//!    flipped, cut short or read at the wrong row count, decode to the
//!    values the column decoder this one replaced returns, or fail with
//!    its exact error text.
//! 3. **Chooser against its reference model (property)** — columns of
//!    every shape the store writes, at widths 1, 2 and 4 and up to 6 000
//!    rows, get the same tag and bytes from the chooser that sizes every
//!    codec and encodes only the winner as from the chooser it replaced,
//!    which encoded every codec and kept the smallest output.
//! 4. **Golden v2 pin** — a committed store holds the bytes the writer
//!    produced for a fixed set of rows: a fresh write of the same rows
//!    must equal it byte for byte, and it must stream exactly those
//!    rows back.

use proptest::prelude::*;
use scanner::persist::encoding::{
    choose_block, decode_block, put_uvarint, DictScratch, TAG_CONSTANT, TAG_DELTA_VARINT,
    TAG_DICT_PACKED, TAG_RAW, TAG_RLE,
};
use scanner::persist::{StoreMeta, StoreWriter};
use scanner::{open_store, Observation, ObservationSource, OrgId, OrgInterner, ScanFilter};
use std::path::{Path, PathBuf};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "httpsrr-encoding-test-{}-{tag}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Encode with the chooser, decode, and require an exact round-trip plus
/// the "never worse than raw" size bound.
fn round_trip(values: &[u64], width: usize) -> u8 {
    let (tag, data) = choose_block(values, width, &mut DictScratch::default());
    assert!(
        values.is_empty() || data.len() <= values.len() * width,
        "chosen block ({} bytes, tag {tag}) beats raw ({} bytes) the wrong way",
        data.len(),
        values.len() * width
    );
    let out = decode(tag, &data, values.len(), width).expect("decode chosen block");
    assert_eq!(out, values, "round-trip mismatch for tag {tag} width {width}");
    tag
}

/// [`decode_block`] into a fresh column of `rows` values.
fn decode(tag: u8, data: &[u8], rows: usize, width: usize) -> std::io::Result<Vec<u64>> {
    let mut out = vec![0; rows];
    decode_block(tag, data, width, &mut out, &mut Vec::new(), |row, v| *row = v)?;
    Ok(out)
}

/// The column decoder [`decode_block`] replaced: one `u64` per row into a
/// vector, the dictionary looked up and bound-checked row by row; and the
/// chooser [`choose_block`] replaced, which encoded a column with every
/// applicable codec and kept the smallest output. The references their
/// property tests compare against.
mod oracle {
    use scanner::persist::encoding::{
        put_uvarint, read_uvarint, TAG_CONSTANT, TAG_DELTA_VARINT, TAG_DICT_PACKED, TAG_RAW,
        TAG_RLE,
    };
    use std::io::{self, ErrorKind};

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

    fn get_value(data: &[u8], pos: usize, width: usize) -> u64 {
        let mut bytes = [0u8; 8];
        bytes[..width].copy_from_slice(&data[pos..pos + width]);
        u64::from_le_bytes(bytes)
    }

    fn unzigzag(v: u64) -> i64 {
        ((v >> 1) as i64) ^ -((v & 1) as i64)
    }

    fn index_bits(len: usize) -> u32 {
        if len <= 1 {
            0
        } else {
            usize::BITS - (len - 1).leading_zeros()
        }
    }

    fn put_value(buf: &mut Vec<u8>, v: u64, width: usize) {
        buf.extend_from_slice(&v.to_le_bytes()[..width]);
    }

    fn zigzag(v: i64) -> u64 {
        ((v << 1) ^ (v >> 63)) as u64
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

    pub fn decode_block(
        tag: u8,
        data: &[u8],
        rows: usize,
        width: usize,
        out: &mut Vec<u64>,
    ) -> io::Result<()> {
        out.clear();
        out.reserve(rows);
        if tag > 4 {
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
            0 => {
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
            1 => {
                if data.len() != width {
                    return Err(bad(format!(
                        "constant block is {} bytes, expected {width}",
                        data.len()
                    )));
                }
                let v = get_value(data, 0, width);
                out.resize(rows, v);
            }
            2 => {
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
            3 => {
                let mut pos = 0;
                let mut prev: u64 = 0;
                for _ in 0..rows {
                    let (z, next) = read_uvarint(data, pos)?;
                    pos = next;
                    let v = prev.wrapping_add(unzigzag(z) as u64);
                    if v > max {
                        return Err(bad(format!(
                            "delta block value {v} does not fit {width} bytes"
                        )));
                    }
                    out.push(v);
                    prev = v;
                }
                if pos != data.len() {
                    return Err(bad(format!(
                        "delta block has {} trailing bytes",
                        data.len() - pos
                    )));
                }
            }
            _ => {
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
        }
        Ok(())
    }
}

/// A deterministic value stream for one generated block.
fn values_from(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        state ^ state >> 29
    }
}

/// A valid block of `rows` values under codec `tag`, whatever its size
/// against the other codecs. `dict_len` sizes the dict codec's
/// dictionary (any length 1..=4096, so every index bit width 0..=12); a
/// `sloppy` dict block draws its indices from the whole bit width and
/// fills the last byte's spare bits, so it may point past the
/// dictionary or carry stray trailing bits.
fn encode_as(
    tag: u8,
    rows: usize,
    width: usize,
    (dict_len, sloppy): (usize, bool),
    seed: u64,
) -> Vec<u8> {
    let mask = if width == 8 { u64::MAX } else { (1u64 << (8 * width)) - 1 };
    let mut next = values_from(seed);
    let put = |buf: &mut Vec<u8>, v: u64| buf.extend_from_slice(&v.to_le_bytes()[..width]);
    let mut buf = Vec::new();
    match tag {
        TAG_RAW => (0..rows).for_each(|_| put(&mut buf, next() & mask)),
        TAG_CONSTANT => put(&mut buf, next() & mask),
        TAG_RLE => {
            let mut left = rows;
            while left > 0 {
                let run = (next() as usize % left) + 1;
                put_uvarint(&mut buf, run as u64);
                put(&mut buf, next() & mask);
                left -= run;
            }
        }
        TAG_DELTA_VARINT => {
            let mut prev = 0u64;
            for _ in 0..rows {
                // Mostly small steps, now and then anywhere in the width.
                let v = if next().is_multiple_of(4) {
                    next() & mask
                } else {
                    prev.wrapping_add(next() % 5) & mask
                };
                let delta = v.wrapping_sub(prev) as i64;
                put_uvarint(&mut buf, ((delta << 1) ^ (delta >> 63)) as u64);
                prev = v;
            }
        }
        TAG_DICT_PACKED => {
            put_uvarint(&mut buf, dict_len as u64);
            (0..dict_len).for_each(|_| put(&mut buf, next() & mask));
            let bits = if dict_len <= 1 { 0 } else { usize::BITS - (dict_len - 1).leading_zeros() };
            let (mut acc, mut filled) = (0u64, 0u32);
            let drawn = if sloppy { 1 << bits } else { dict_len as u64 };
            for _ in 0..rows {
                acc |= (next() % drawn) << filled;
                filled += bits;
                while filled >= 8 {
                    buf.push(acc as u8);
                    acc >>= 8;
                    filled -= 8;
                }
            }
            if filled > 0 {
                let spare = if sloppy { (next() as u8) << filled } else { 0 };
                buf.push(acc as u8 | spare);
            }
        }
        other => unreachable!("no codec has tag {other}"),
    }
    buf
}

proptest! {
    /// Arbitrary values within each column width round-trip, whatever
    /// encoder the chooser picks.
    #[test]
    fn any_block_round_trips(
        width in (0usize..4).prop_map(|i| [1usize, 2, 4, 8][i]),
        values in proptest::collection::vec(any::<u64>(), 0..300),
    ) {
        let max = if width == 8 { u64::MAX } else { (1u64 << (8 * width)) - 1 };
        let values: Vec<u64> = values.into_iter().map(|v| v & max).collect();
        round_trip(&values, width);
    }

    /// Constant blocks collapse to the constant encoding.
    #[test]
    fn constant_blocks_round_trip(value in 0u64..u32::MAX as u64, rows in 2usize..400) {
        let values = vec![value; rows];
        let tag = round_trip(&values, 4);
        prop_assert_eq!(tag, 1, "constant column must pick the constant codec");
    }

    /// Run-structured data (sorted ids, flag runs) round-trips through
    /// RLE or delta-varint — never raw.
    #[test]
    fn run_structured_blocks_round_trip(
        runs in proptest::collection::vec((0u64..50, 1usize..40), 1..20),
    ) {
        let values: Vec<u64> =
            runs.iter().flat_map(|&(v, n)| std::iter::repeat_n(v, n)).collect();
        if values.len() > 4 {
            let tag = round_trip(&values, 4);
            prop_assert_ne!(tag, 0, "runs of {} values must compress", values.len());
        }
    }

    /// Small-alphabet columns (flags/ns_category/org in practice)
    /// round-trip through the dictionary codec.
    #[test]
    fn small_alphabet_blocks_round_trip(
        picks in proptest::collection::vec(0usize..7, 64..500),
    ) {
        let alphabet = [3u64, 17, 0x1000_0001, 99, 7, 0xdead_beef, 42];
        let values: Vec<u64> = picks.iter().map(|&i| alphabet[i]).collect();
        round_trip(&values, 4);
    }

    /// Adversarial high-cardinality blocks (every value distinct and
    /// far apart) still round-trip; the chooser may fall back to raw.
    #[test]
    fn high_cardinality_blocks_round_trip(seed in any::<u64>(), rows in 1usize..300) {
        let mut state = seed | 1;
        let values: Vec<u64> = (0..rows)
            .map(|_| {
                state = state.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(0x14057b7e);
                state
            })
            .collect();
        round_trip(&values, 8);
    }

    /// Empty and single-row blocks are valid for every width.
    #[test]
    fn empty_and_single_row_blocks(width in (0usize..4).prop_map(|i| [1usize, 2, 4, 8][i]), v in any::<u64>()) {
        let max = if width == 8 { u64::MAX } else { (1u64 << (8 * width)) - 1 };
        round_trip(&[], width);
        round_trip(&[v & max], width);
    }
}

/// Row counts around a group of eight indices, and whole groups.
fn row_count() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0usize), Just(1), Just(7), Just(8), Just(9), (1usize..64).prop_map(|k| 8 * k)]
}

/// A dictionary length of exactly `bits` index bits, 0..=12.
fn dict_len() -> impl Strategy<Value = usize> {
    ((0u32..=12), any::<u64>()).prop_map(|(bits, pick)| match bits {
        0 => 1,
        b => (1usize << (b - 1)) + 1 + (pick % (1u64 << (b - 1))) as usize,
    })
}

proptest! {
    /// Every codec at every width, row count and dict bit width, intact
    /// or damaged: the decoder returns the reference decoder's values or
    /// its error text. Damage is one byte flipped, the block cut anywhere
    /// or by its last few bytes, a byte appended, a row more or fewer
    /// than the block holds, or a tag byte the format does not define.
    #[test]
    fn decoder_matches_the_column_decoder_it_replaced(
        // Every codec; the dict codec, with the most checks, most often.
        tag in prop_oneof![0u8..5, Just(TAG_DICT_PACKED)],
        width in (0usize..4).prop_map(|i| [1usize, 2, 4, 8][i]),
        rows in row_count(),
        dict in (dict_len(), any::<bool>()),
        seed in any::<u64>(),
        damage in (0u8..7, any::<u64>(), 1u8..=255),
    ) {
        let mut data = encode_as(tag, rows, width, dict, seed);
        let (kind, at, flip) = damage;
        let (mut tag, mut rows) = (tag, rows);
        match kind {
            1 if !data.is_empty() => {
                let at = at as usize % data.len();
                data[at] ^= flip;
            }
            2 => data.truncate(at as usize % (data.len() + 1)),
            3 => data.truncate(data.len().saturating_sub(1 + at as usize % 8)),
            4 => data.push(flip),
            5 => rows = if at % 2 == 0 { rows + 1 } else { rows.saturating_sub(1) },
            6 => tag = tag.wrapping_add(flip),
            _ => {}
        }
        let mut want = Vec::new();
        let want = oracle::decode_block(tag, &data, rows, width, &mut want).map(|()| want);
        match (decode(tag, &data, rows, width), want) {
            (Ok(got), Ok(want)) => prop_assert_eq!(got, want),
            (Err(got), Err(want)) => prop_assert_eq!(got.to_string(), want.to_string()),
            (got, want) => panic!("tag {tag} width {width} rows {rows}: got {got:?}, reference {want:?}"),
        }
    }
}

/// A column of `rows` values of shape `shape`, each within `width`
/// bytes: constant, long runs, sorted with duplicates, strictly sorted
/// (until the width runs out), unsorted over a small alphabet, falling
/// from the width's maximum (every delta wraps), or exactly `distinct`
/// values unsorted (6) or sorted (7). The last two widen a 1-byte column
/// to 2 bytes and take at least `distinct` rows.
fn column(shape: u8, rows: usize, width: usize, distinct: usize, seed: u64) -> (Vec<u64>, usize) {
    let mut next = values_from(seed);
    let width = if shape >= 6 { width.max(2) } else { width };
    let max = (1u64 << (8 * width)) - 1;
    let values = match shape {
        0 => vec![next() & max; rows],
        1 => {
            let mut values = Vec::with_capacity(rows);
            while values.len() < rows {
                let run = 1 + next() as usize % 400;
                values.extend(std::iter::repeat_n(next() & max, run.min(rows - values.len())));
            }
            values
        }
        // Shape 2: half the steps repeat a value, the rest spread the
        // column over the width. Shape 3: steps of 1..=50.
        2 | 3 => {
            let spread = 2 * max / rows.max(1) as u64 + 2;
            let step = |r: u64| match shape {
                2 if r.is_multiple_of(2) => 0,
                2 => r % spread,
                _ => 1 + r % 50,
            };
            let mut v = next() % 100;
            (0..rows)
                .map(|_| {
                    let here = v;
                    v = (v + step(next())).min(max);
                    here
                })
                .collect()
        }
        4 => {
            let alphabet: Vec<u64> = (0..1 + next() % 16).map(|_| next() & max).collect();
            (0..rows).map(|_| alphabet[next() as usize % alphabet.len()]).collect()
        }
        5 => {
            let mut v = max - next() % 4;
            (0..rows)
                .map(|_| {
                    let here = v;
                    v = v.saturating_sub(next() % 4);
                    here
                })
                .collect()
        }
        // An odd multiplier permutes the width's values, and 7 919 (a
        // prime that divides none of 4 095, 4 096, 4 097) the row order.
        _ => {
            let rows = rows.max(distinct);
            let spread = next() | 1;
            let gap = 1 + spread % (max / distinct as u64);
            let value = |i: usize| match shape {
                6 => ((i * 7_919 % distinct) as u64).wrapping_mul(spread) & max,
                _ => (i * distinct / rows) as u64 * gap,
            };
            (0..rows).map(value).collect()
        }
    };
    (values, width)
}

proptest! {
    /// The chooser that sizes every codec and encodes only the winner
    /// gives the tag and bytes of the chooser it replaced, on columns of
    /// every shape the store writes and around the dictionary's
    /// 4 096-entry cap, with one scratch reused across a chunk's columns
    /// as the store writer reuses it.
    #[test]
    fn chooser_matches_the_encoder_it_replaced(
        width in (0usize..3).prop_map(|i| [1usize, 2, 4][i]),
        rows in prop_oneof![0usize..16, 0usize..=6_000],
        distinct in 4_095usize..=4_097,
        columns in proptest::collection::vec((0u8..8, any::<u64>()), 1..5),
    ) {
        let mut scratch = DictScratch::default();
        for (shape, seed) in columns {
            let (values, width) = column(shape, rows, width, distinct, seed);
            let want = oracle::choose_block(&values, width);
            // Twice: the second time over the set the first one filled.
            for _ in 0..2 {
                let got = choose_block(&values, width, &mut scratch);
                prop_assert_eq!(&got, &want, "shape {}", shape);
            }
        }
    }
}

/// Where two codecs give blocks of one size, the lower tag wins: raw
/// over RLE and dict, RLE over delta-varint, delta-varint over dict, and
/// raw over constant on a single row.
#[test]
fn ties_break_toward_the_lower_tag() {
    let cases: [(&[u64], usize, u8); 4] = [
        // raw 4, RLE 4, delta 5, dict 4.
        (&[1, 1, 200, 200], 1, TAG_RAW),
        // raw 40, RLE 10, delta 10, dict 11.
        (&[0, 0, 0, 0, 0, 1, 1, 1, 1, 1], 4, TAG_RLE),
        // raw 12, RLE 18, delta 6, dict 6.
        (&[0, 1, 0, 1, 0, 1], 2, TAG_DELTA_VARINT),
        // raw 4, constant 4, RLE 5, delta 5, dict 5.
        (&[0xffff_fff0], 4, TAG_RAW),
    ];
    for (values, width, tag) in cases {
        let got = choose_block(values, width, &mut DictScratch::default());
        assert_eq!(got, oracle::choose_block(values, width), "{values:?}");
        assert_eq!(got.0, tag, "{values:?}");
    }
}

/// A dictionary of 4 096 entries is the largest the chooser may write:
/// past it a column that a dictionary would shrink is written another way.
#[test]
fn the_dictionary_stops_at_4096_entries() {
    for (distinct, tag) in [(4_095, TAG_DICT_PACKED), (4_096, TAG_DICT_PACKED), (4_097, TAG_RAW)] {
        let values: Vec<u64> = (0..20_000u64)
            .map(|i| (i * 7_919 % distinct).wrapping_mul(0x9e37_79b1) & 0xffff_ffff)
            .collect();
        let got = choose_block(&values, 4, &mut DictScratch::default());
        assert_eq!(got, oracle::choose_block(&values, 4), "{distinct} distinct");
        assert_eq!(got.0, tag, "{distinct} distinct");
    }
}

// ---------------------------------------------------------------------
// Golden v2 fixture: committed bytes of the golden rows' store.

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_v2_store")
}

const GOLDEN_DAYS: [u32; 3] = [0, 3, 7];
const GOLDEN_VANTAGES: [&str; 2] = ["golden-a", "golden-b"];

fn golden_meta() -> StoreMeta {
    StoreMeta {
        vantages: GOLDEN_VANTAGES.iter().map(|v| v.to_string()).collect(),
        sample_days: GOLDEN_DAYS.iter().map(|&d| u64::from(d)).collect(),
        scan_www: true,
        world_seed: 42,
        population: 60,
        list_size: 30,
    }
}

/// Deterministic pseudo-campaign rows exercising every column: repeated
/// days, near-sorted ids/ranks, small flag/category/org alphabets.
fn golden_rows(day: u32, vantage: usize) -> Vec<Observation> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ (u64::from(day) << 8) ^ vantage as u64;
    let mut next = || {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    (0..60u32)
        .map(|i| {
            let r = next();
            Observation {
                day,
                domain_id: i / 2,
                rank: i / 2 + 1,
                flags: (r & 0x3ff) as u32,
                ns_category: (r >> 10 & 3) as u8,
                org: if r >> 12 & 7 == 0 { OrgId::NONE } else { OrgId((r >> 15 & 3) as u32) },
                min_priority: (r >> 18 & 7) as u16,
            }
        })
        .collect()
}

/// The golden rows written the way this build writes every store.
fn write_golden_v2(dir: &Path) {
    let mut orgs = OrgInterner::default();
    for name in ["Cloudflare, Inc.", "GoDaddy.com, LLC", "Google LLC", "NSOne, Inc."] {
        orgs.intern(name);
    }
    let mut w = StoreWriter::create(dir, golden_meta()).expect("create");
    for &day in &GOLDEN_DAYS {
        for vi in 0..GOLDEN_VANTAGES.len() {
            w.append_chunk(vi, day, &golden_rows(day, vi), &orgs).expect("append");
        }
    }
}

const STORE_FILES: [&str; 4] = ["MANIFEST", "orgs.dict", "v00.col", "v01.col"];

/// Every file of a store, in [`STORE_FILES`] order.
fn store_bytes(dir: &Path) -> Vec<Vec<u8>> {
    STORE_FILES.iter().map(|name| std::fs::read(dir.join(name)).expect("store file")).collect()
}

/// The committed store is what this build writes for the golden rows,
/// byte for byte, and it streams exactly those rows back.
#[test]
fn golden_v2_store_is_pinned_byte_for_byte() {
    let committed = store_bytes(&fixture_dir());
    let fresh = scratch("golden-v2");
    write_golden_v2(&fresh);
    for (name, (got, want)) in STORE_FILES.iter().zip(store_bytes(&fresh).iter().zip(&committed)) {
        assert_eq!(got, want, "a fresh write differs from the committed store ({name})");
    }
    std::fs::remove_dir_all(&fresh).expect("cleanup");

    let open = open_store(&fixture_dir()).expect("golden fixture opens");
    assert_eq!(open.meta, golden_meta());
    for (vi, reader) in open.readers.iter().enumerate() {
        assert_eq!(reader.vantage(), GOLDEN_VANTAGES[vi]);
        assert_eq!(ObservationSource::days(reader), GOLDEN_DAYS.to_vec());
        let mut streamed = Vec::new();
        reader.for_each_day_filtered(ScanFilter::all(), &mut |_, obs| {
            streamed.extend_from_slice(obs)
        });
        let expect: Vec<Observation> =
            GOLDEN_DAYS.iter().flat_map(|&d| golden_rows(d, vi)).collect();
        assert_eq!(streamed, expect, "vantage {vi} stream diverged from the fixture source");
    }
}

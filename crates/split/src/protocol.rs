//! Wire messages exchanged between end-systems and the centralized server,
//! with byte-accurate encoding for communication-cost accounting.
//!
//! # Wire format (version 1)
//!
//! Every message is framed with a 14-byte integrity header followed by a
//! message-kind-specific payload:
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------
//!      0     4  magic            b"STSL"
//!      4     1  version          0x01
//!      5     1  kind             0xA5 activation / 0x5A gradient
//!      6     4  payload length   u32 LE, bytes after the header
//!     10     4  CRC32 (IEEE)     u32 LE, over the payload bytes
//!     14     …  payload
//! ```
//!
//! The payload layout is unchanged from the pre-versioned format:
//! `from/to (u32) | epoch (u32) | batch (u32) | tensor | [targets]` where a
//! tensor is `rank (u8) | dims (u32 LE each) | data (f32 LE each)` and
//! targets are `count (u32) | label (u16 LE each)`.
//!
//! [`ActivationMsg::decode`]/[`GradientMsg::decode`] verify the full frame
//! including the checksum and never panic on hostile input; they return a
//! typed [`DecodeError`] instead. [`ActivationMsg::decode_lenient`] parses
//! CRC-mismatched-but-parseable frames too and *reports* the checksum
//! verdict instead of enforcing it — the "guard off" path used to measure
//! what silent corruption does to training. Both accept any byte buffer
//! (`encode`'s boxed slice, a `Vec<u8>` or a `&[u8]`) and read it through
//! a bounds-checked `&[u8]` cursor.

use stsl_simnet::EndSystemId;
use stsl_tensor::{Shape, Tensor};

/// Leading magic bytes of every frame.
pub const WIRE_MAGIC: [u8; 4] = *b"STSL";
/// Current wire-format version.
pub const WIRE_VERSION: u8 = 1;
/// Frame-kind byte for [`ActivationMsg`].
pub const KIND_ACTIVATION: u8 = 0xA5;
/// Frame-kind byte for [`GradientMsg`].
pub const KIND_GRADIENT: u8 = 0x5A;
/// Size of the integrity header: magic + version + kind + length + CRC32.
pub const WIRE_HEADER_BYTES: usize = 4 + 1 + 1 + 4 + 4;

/// Highest tensor rank accepted on the wire (matches `[n, c, h, w]` plus
/// slack; anything larger is corruption, not a real tensor).
const MAX_WIRE_RANK: usize = 8;

/// Fixed per-payload header: sender id (u32), epoch (u32), batch (u32).
const PAYLOAD_HEADER_BYTES: usize = 12;

/// Reflected IEEE CRC32 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables, built at compile time: `CRC_TABLES[k][b]`
/// is the CRC register after byte `b` followed by `k` zero bytes, so
/// eight lookups fold eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// Shifts `bits` zero bits through the CRC register `crc`.
const fn crc_shift(mut crc: u32, bits: u32) -> u32 {
    let mut i = 0;
    while i < bits {
        crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
        i += 1;
    }
    crc
}

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut rows: &mut [[u32; 256]] = &mut tables;
    let mut k = 0;
    while let Some((row, rest)) = rows.split_first_mut() {
        let mut slots: &mut [u32] = row;
        let mut b = 0;
        while let Some((slot, tail)) = slots.split_first_mut() {
            *slot = crc_shift(b, 8 * (k + 1));
            slots = tail;
            b += 1;
        }
        rows = rest;
        k += 1;
    }
    tables
}

/// `table[byte]`. A byte always indexes a 256-entry table, so the
/// fallback is dead and the optimizer drops the check.
fn lookup(table: &[u32; 256], byte: u8) -> u32 {
    table.get(usize::from(byte)).copied().unwrap_or(0)
}

/// Computes the IEEE CRC32 (reflected, polynomial `0xEDB88320`) of `data`.
///
/// Table-driven slicing-by-8 (eight bytes per step, tables built at
/// compile time): the workspace is offline and brings no checksum crate.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(!0, data, &CRC_TABLES)
}

/// Folds `data` into the CRC register `crc` with the slicing tables
/// `t0`..`t7` (`tk` advances a byte through `k` further zero bytes).
fn crc32_update(
    mut crc: u32,
    data: &[u8],
    [t0, t1, t2, t3, t4, t5, t6, t7]: &[[u32; 256]; 8],
) -> u32 {
    let (words, tail) = data.as_chunks::<8>();
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in words {
        // `as u8` keeps the low byte: each lookup takes one register byte.
        let low = crc ^ u32::from_le_bytes([b0, b1, b2, b3]);
        crc = lookup(t7, low as u8)
            ^ lookup(t6, (low >> 8) as u8)
            ^ lookup(t5, (low >> 16) as u8)
            ^ lookup(t4, (low >> 24) as u8)
            ^ lookup(t3, b4)
            ^ lookup(t2, b5)
            ^ lookup(t1, b6)
            ^ lookup(t0, b7);
    }
    for &byte in tail {
        crc = (crc >> 8) ^ lookup(t0, crc as u8 ^ byte);
    }
    crc
}

/// Why a frame failed to decode. Carried inside
/// [`ProtocolError::Decode`](crate::client::ProtocolError).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the field being read.
    Truncated {
        /// Bytes the current field needed.
        needed: usize,
        /// Bytes actually left in the buffer.
        have: usize,
    },
    /// The frame does not start with [`WIRE_MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        got: [u8; 4],
    },
    /// The version byte is one this decoder does not understand.
    UnsupportedVersion {
        /// The version byte found.
        got: u8,
    },
    /// The kind byte does not match the message type being decoded.
    WrongKind {
        /// Kind byte the caller expected.
        expected: u8,
        /// Kind byte found in the frame.
        got: u8,
    },
    /// The declared payload length disagrees with the bytes present.
    LengthMismatch {
        /// Payload length declared in the header.
        declared: usize,
        /// Payload bytes actually present.
        actual: usize,
    },
    /// The CRC32 over the payload does not match the header checksum.
    ChecksumMismatch {
        /// Checksum declared in the header.
        declared: u32,
        /// Checksum computed over the received payload.
        computed: u32,
    },
    /// The payload is structurally impossible (bad rank, dims that do not
    /// match the byte count, trailing garbage, …).
    Malformed {
        /// Which structural invariant failed.
        what: &'static str,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { needed, have } => {
                write!(
                    f,
                    "truncated frame: field needs {needed} bytes, {have} left"
                )
            }
            DecodeError::BadMagic { got } => write!(f, "bad magic {got:02x?}"),
            DecodeError::UnsupportedVersion { got } => {
                write!(f, "unsupported wire version {got}")
            }
            DecodeError::WrongKind { expected, got } => {
                write!(
                    f,
                    "wrong frame kind: expected {expected:#04x}, got {got:#04x}"
                )
            }
            DecodeError::LengthMismatch { declared, actual } => {
                write!(
                    f,
                    "payload length mismatch: header says {declared}, have {actual}"
                )
            }
            DecodeError::ChecksumMismatch { declared, computed } => {
                write!(
                    f,
                    "checksum mismatch: header {declared:#010x}, computed {computed:#010x}"
                )
            }
            DecodeError::Malformed { what } => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Identifies one mini-batch computation within a training run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BatchId {
    /// 0-based epoch.
    pub epoch: u32,
    /// 0-based batch index within the client's epoch.
    pub batch: u32,
}

impl std::fmt::Display for BatchId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}b{}", self.epoch, self.batch)
    }
}

/// Uplink message: smashed activations plus labels.
///
/// In the paper's configuration the server owns the output layer and the
/// loss, so labels travel with the activations (standard split learning
/// *with* label sharing; the raw images never leave the end-system).
#[derive(Debug, Clone, PartialEq)]
pub struct ActivationMsg {
    /// Originating end-system.
    pub from: EndSystemId,
    /// Which batch this is.
    pub batch_id: BatchId,
    /// Cut-layer activations, `[n, c, h, w]` (or `[n, f]` for dense cuts).
    pub activations: Tensor,
    /// Class labels, one per sample.
    pub targets: Vec<usize>,
}

/// Downlink message: gradient of the loss w.r.t. the cut activations.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientMsg {
    /// Destination end-system (the one that sent the activations).
    pub to: EndSystemId,
    /// Which batch the gradient answers.
    pub batch_id: BatchId,
    /// Gradient tensor, same shape as the activations.
    pub grad: Tensor,
}

fn tensor_encoded_len(t: &Tensor) -> usize {
    1 + 4 * t.rank() + 4 * t.len()
}

fn put_tensor(buf: &mut Vec<u8>, t: &Tensor) {
    buf.push(t.rank() as u8);
    for &d in t.dims() {
        buf.extend_from_slice(&(d as u32).to_le_bytes());
    }
    for &v in t.as_slice() {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Splits the next `n` bytes off the read cursor `buf`. Every decoder read
/// goes through here or [`read_array`], so hostile or truncated input
/// surfaces as [`DecodeError::Truncated`] rather than a panic.
fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], DecodeError> {
    let rest: &'a [u8] = buf;
    let (head, tail) = rest.split_at_checked(n).ok_or(DecodeError::Truncated {
        needed: n,
        have: rest.len(),
    })?;
    *buf = tail;
    Ok(head)
}

/// Reads the next `N` bytes off the read cursor `buf` as an array.
fn read_array<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], DecodeError> {
    let rest: &[u8] = buf;
    let (head, tail) = rest
        .split_first_chunk::<N>()
        .ok_or(DecodeError::Truncated {
            needed: N,
            have: rest.len(),
        })?;
    *buf = tail;
    Ok(*head)
}

fn read_u8(buf: &mut &[u8]) -> Result<u8, DecodeError> {
    read_array(buf).map(u8::from_le_bytes)
}

fn read_u32(buf: &mut &[u8]) -> Result<u32, DecodeError> {
    read_array(buf).map(u32::from_le_bytes)
}

fn get_tensor(buf: &mut &[u8]) -> Result<Tensor, DecodeError> {
    const OVERFLOW: DecodeError = DecodeError::Malformed {
        what: "tensor volume overflows",
    };
    let rank = read_u8(buf)? as usize;
    if rank == 0 || rank > MAX_WIRE_RANK {
        return Err(DecodeError::Malformed {
            what: "tensor rank out of range",
        });
    }
    let mut dims = Vec::with_capacity(rank);
    let mut len = 1usize;
    for _ in 0..rank {
        let d = read_u32(buf)? as usize;
        len = len.checked_mul(d).ok_or(OVERFLOW)?;
        dims.push(d);
    }
    // Taking the data bytes before allocating keeps a lying dim field from
    // turning into a multi-gigabyte allocation.
    let (words, _) = take(buf, len.checked_mul(4).ok_or(OVERFLOW)?)?.as_chunks::<4>();
    let data = words.iter().map(|&w| f32::from_le_bytes(w)).collect();
    Ok(Tensor::from_vec(data, Shape::from(dims)))
}

/// Validates the 14-byte frame header and returns the payload plus the
/// CRC verdict. `verify_crc` distinguishes `decode` (mismatch is an
/// error) from `decode_lenient` (mismatch is reported).
fn open_frame(frame: &[u8], kind: u8, verify_crc: bool) -> Result<(&[u8], bool), DecodeError> {
    if frame.len() < WIRE_HEADER_BYTES {
        return Err(DecodeError::Truncated {
            needed: WIRE_HEADER_BYTES,
            have: frame.len(),
        });
    }
    let mut payload = frame;
    let magic = read_array::<4>(&mut payload)?;
    if magic != WIRE_MAGIC {
        return Err(DecodeError::BadMagic { got: magic });
    }
    let version = read_u8(&mut payload)?;
    if version != WIRE_VERSION {
        return Err(DecodeError::UnsupportedVersion { got: version });
    }
    let got_kind = read_u8(&mut payload)?;
    if got_kind != kind {
        return Err(DecodeError::WrongKind {
            expected: kind,
            got: got_kind,
        });
    }
    let declared = read_u32(&mut payload)? as usize;
    let crc_header = read_u32(&mut payload)?;
    if declared != payload.len() {
        return Err(DecodeError::LengthMismatch {
            declared,
            actual: payload.len(),
        });
    }
    let computed = crc32(payload);
    let crc_ok = computed == crc_header;
    if verify_crc && !crc_ok {
        return Err(DecodeError::ChecksumMismatch {
            declared: crc_header,
            computed,
        });
    }
    Ok((payload, crc_ok))
}

/// A buffer for an `encoded_len`-byte frame, holding the zeroed header
/// that [`seal_frame`] fills in once the payload has been appended.
fn frame_buffer(encoded_len: usize) -> Vec<u8> {
    let mut frame = Vec::with_capacity(encoded_len);
    frame.extend_from_slice(&[0; WIRE_HEADER_BYTES]);
    frame
}

/// Writes the header in place over the payload that follows it in a
/// [`frame_buffer`]; the payload is never copied.
fn seal_frame(kind: u8, mut frame: Vec<u8>) -> Box<[u8]> {
    let payload = frame.get(WIRE_HEADER_BYTES..).unwrap_or_default();
    let len = (payload.len() as u32).to_le_bytes();
    let crc = crc32(payload).to_le_bytes();
    let version_kind = [WIRE_VERSION, kind];
    let header = WIRE_MAGIC
        .iter()
        .chain(&version_kind)
        .chain(&len)
        .chain(&crc);
    for (slot, &byte) in frame.iter_mut().zip(header) {
        *slot = byte;
    }
    frame.into_boxed_slice()
}

impl ActivationMsg {
    /// Exact size of the encoded message in bytes (drives the simulated
    /// serialization delay and the communication-cost experiment).
    pub fn encoded_len(&self) -> usize {
        WIRE_HEADER_BYTES
            + PAYLOAD_HEADER_BYTES
            + tensor_encoded_len(&self.activations)
            + 4
            + 2 * self.targets.len()
    }

    /// Serializes to a framed, checksummed byte buffer.
    pub fn encode(&self) -> Box<[u8]> {
        let mut buf = frame_buffer(self.encoded_len());
        buf.extend_from_slice(&(self.from.0 as u32).to_le_bytes());
        buf.extend_from_slice(&self.batch_id.epoch.to_le_bytes());
        buf.extend_from_slice(&self.batch_id.batch.to_le_bytes());
        put_tensor(&mut buf, &self.activations);
        buf.extend_from_slice(&(self.targets.len() as u32).to_le_bytes());
        for &t in &self.targets {
            buf.extend_from_slice(&(t as u16).to_le_bytes());
        }
        seal_frame(KIND_ACTIVATION, buf)
    }

    /// Deserializes and fully validates a frame produced by
    /// [`ActivationMsg::encode`], including the CRC32 payload checksum.
    ///
    /// Never panics: truncated, garbled or mis-typed input returns a
    /// [`DecodeError`].
    pub fn decode(frame: impl AsRef<[u8]>) -> Result<Self, DecodeError> {
        let (payload, _) = open_frame(frame.as_ref(), KIND_ACTIVATION, true)?;
        Self::parse_payload(payload)
    }

    /// Deserializes without *enforcing* the checksum — the "guard off"
    /// path — but still computes and reports it: the second element is
    /// `true` iff the CRC32 matched.
    ///
    /// Structural validation always applies (magic, version, kind, declared
    /// length, tensor shape), so this never panics; it lets
    /// bit-flipped-but-parseable payloads through as silently corrupt data
    /// while telling the caller the frame was dirty.
    pub fn decode_lenient(frame: impl AsRef<[u8]>) -> Result<(Self, bool), DecodeError> {
        let (payload, crc_ok) = open_frame(frame.as_ref(), KIND_ACTIVATION, false)?;
        Ok((Self::parse_payload(payload)?, crc_ok))
    }

    fn parse_payload(mut buf: &[u8]) -> Result<Self, DecodeError> {
        let from = EndSystemId(read_u32(&mut buf)? as usize);
        let epoch = read_u32(&mut buf)?;
        let batch = read_u32(&mut buf)?;
        let activations = get_tensor(&mut buf)?;
        let n = read_u32(&mut buf)? as usize;
        if buf.len() != 2 * n {
            return Err(DecodeError::Malformed {
                what: "target count disagrees with payload",
            });
        }
        let (labels, _) = buf.as_chunks::<2>();
        let targets = labels
            .iter()
            .map(|&l| u16::from_le_bytes(l) as usize)
            .collect();
        Ok(ActivationMsg {
            from,
            batch_id: BatchId { epoch, batch },
            activations,
            targets,
        })
    }
}

impl GradientMsg {
    /// Exact size of the encoded message in bytes.
    pub fn encoded_len(&self) -> usize {
        WIRE_HEADER_BYTES + PAYLOAD_HEADER_BYTES + tensor_encoded_len(&self.grad)
    }

    /// Serializes to a framed, checksummed byte buffer.
    pub fn encode(&self) -> Box<[u8]> {
        let mut buf = frame_buffer(self.encoded_len());
        buf.extend_from_slice(&(self.to.0 as u32).to_le_bytes());
        buf.extend_from_slice(&self.batch_id.epoch.to_le_bytes());
        buf.extend_from_slice(&self.batch_id.batch.to_le_bytes());
        put_tensor(&mut buf, &self.grad);
        seal_frame(KIND_GRADIENT, buf)
    }

    /// Deserializes and fully validates a frame produced by
    /// [`GradientMsg::encode`], including the CRC32 payload checksum.
    ///
    /// Never panics: truncated, garbled or mis-typed input returns a
    /// [`DecodeError`].
    pub fn decode(frame: impl AsRef<[u8]>) -> Result<Self, DecodeError> {
        let (payload, _) = open_frame(frame.as_ref(), KIND_GRADIENT, true)?;
        Self::parse_payload(payload)
    }

    /// Deserializes without *enforcing* the checksum, reporting the CRC
    /// verdict as the second element. See [`ActivationMsg::decode_lenient`].
    pub fn decode_lenient(frame: impl AsRef<[u8]>) -> Result<(Self, bool), DecodeError> {
        let (payload, crc_ok) = open_frame(frame.as_ref(), KIND_GRADIENT, false)?;
        Ok((Self::parse_payload(payload)?, crc_ok))
    }

    fn parse_payload(mut buf: &[u8]) -> Result<Self, DecodeError> {
        let to = EndSystemId(read_u32(&mut buf)? as usize);
        let epoch = read_u32(&mut buf)?;
        let batch = read_u32(&mut buf)?;
        let grad = get_tensor(&mut buf)?;
        if !buf.is_empty() {
            return Err(DecodeError::Malformed {
                what: "trailing bytes after gradient",
            });
        }
        Ok(GradientMsg {
            to,
            batch_id: BatchId { epoch, batch },
            grad,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stsl_tensor::init::rng_from_seed;

    fn sample_activation() -> ActivationMsg {
        ActivationMsg {
            from: EndSystemId(3),
            batch_id: BatchId {
                epoch: 2,
                batch: 17,
            },
            activations: Tensor::randn([2, 4, 8, 8], &mut rng_from_seed(0)),
            targets: vec![1, 9],
        }
    }

    #[test]
    fn activation_roundtrip() {
        let msg = sample_activation();
        let encoded = msg.encode();
        assert_eq!(encoded.len(), msg.encoded_len());
        let back = ActivationMsg::decode(encoded).expect("clean frame decodes");
        assert_eq!(back, msg);
    }

    #[test]
    fn gradient_roundtrip() {
        let msg = GradientMsg {
            to: EndSystemId(0),
            batch_id: BatchId { epoch: 0, batch: 0 },
            grad: Tensor::randn([3, 2], &mut rng_from_seed(1)),
        };
        let encoded = msg.encode();
        assert_eq!(encoded.len(), msg.encoded_len());
        assert_eq!(
            GradientMsg::decode(encoded).expect("clean frame decodes"),
            msg
        );
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bit-serial CRC32 the table-driven one replaced: the oracle.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc ^= byte as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_bitwise_oracle() {
        let bytes: Vec<u8> = (0..512 * 1024u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in 0..=64 {
            for start in [0, 3] {
                let slice = &bytes[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bitwise(slice),
                    "length {len} at {start}"
                );
            }
        }
        assert_eq!(crc32(&bytes), crc32_bitwise(&bytes), "512 KiB");
    }

    #[test]
    fn frame_header_layout() {
        let encoded = sample_activation().encode();
        let raw = encoded.as_ref();
        assert_eq!(&raw[0..4], b"STSL");
        assert_eq!(raw[4], WIRE_VERSION);
        assert_eq!(raw[5], KIND_ACTIVATION);
        let declared = u32::from_le_bytes([raw[6], raw[7], raw[8], raw[9]]) as usize;
        assert_eq!(declared, raw.len() - WIRE_HEADER_BYTES);
        let crc = u32::from_le_bytes([raw[10], raw[11], raw[12], raw[13]]);
        assert_eq!(crc, crc32(&raw[WIRE_HEADER_BYTES..]));
    }

    #[test]
    fn bit_flip_is_caught_by_checksum() {
        let msg = sample_activation();
        for byte_idx in [
            WIRE_HEADER_BYTES,
            WIRE_HEADER_BYTES + 30,
            WIRE_HEADER_BYTES + 100,
        ] {
            let mut raw = msg.encode().as_ref().to_vec();
            raw[byte_idx] ^= 0x10;
            let err = ActivationMsg::decode(raw).unwrap_err();
            assert!(
                matches!(err, DecodeError::ChecksumMismatch { .. }),
                "flip at {byte_idx} gave {err:?}"
            );
        }
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let raw = sample_activation().encode().as_ref().to_vec();
        for keep in [
            0,
            3,
            WIRE_HEADER_BYTES - 1,
            WIRE_HEADER_BYTES + 5,
            raw.len() - 1,
        ] {
            let cut = raw[..keep].to_vec();
            assert!(ActivationMsg::decode(cut).is_err(), "keep={keep}");
        }
    }

    #[test]
    fn wrong_kind_and_bad_magic_rejected() {
        let msg = sample_activation();
        let encoded = msg.encode();
        // An activation frame fed to the gradient decoder:
        assert!(matches!(
            GradientMsg::decode(encoded.clone()),
            Err(DecodeError::WrongKind {
                expected: KIND_GRADIENT,
                got: KIND_ACTIVATION
            })
        ));
        let mut raw = encoded.as_ref().to_vec();
        raw[0] = b'X';
        assert!(matches!(
            ActivationMsg::decode(raw.clone()),
            Err(DecodeError::BadMagic { .. })
        ));
        raw[0] = b'S';
        raw[4] = 9;
        assert!(matches!(
            ActivationMsg::decode(raw),
            Err(DecodeError::UnsupportedVersion { got: 9 })
        ));
    }

    #[test]
    fn decode_lenient_reports_crc_but_not_structure() {
        let msg = sample_activation();
        // Flip a data byte deep in the tensor payload: CRC decode rejects,
        // lenient decode lets the (numerically garbled) message through but
        // reports the dirty checksum.
        let mut raw = msg.encode().as_ref().to_vec();
        let idx = raw.len() - 20;
        raw[idx] ^= 0x40;
        assert!(ActivationMsg::decode(raw.clone()).is_err());
        let (garbled, crc_ok) = ActivationMsg::decode_lenient(raw).expect("parseable");
        assert!(!crc_ok);
        assert_eq!(garbled.from, msg.from);
        assert_ne!(garbled, msg);
        // A clean frame reports a clean checksum.
        let (clean, crc_ok) = ActivationMsg::decode_lenient(msg.encode()).expect("clean");
        assert!(crc_ok);
        assert_eq!(clean, msg);
        // Truncation stays an error on both paths.
        let cut = msg.encode().as_ref()[..40].to_vec();
        assert!(ActivationMsg::decode_lenient(cut).is_err());
    }

    /// A valid-CRC frame whose tensor header declares `dims`, with no
    /// tensor data behind it.
    fn hostile_frame(kind: u8, dims: &[u32]) -> Vec<u8> {
        let mut frame = vec![0u8; WIRE_HEADER_BYTES + PAYLOAD_HEADER_BYTES];
        frame.push(dims.len() as u8);
        for d in dims {
            frame.extend_from_slice(&d.to_le_bytes());
        }
        seal_frame(kind, frame).into_vec()
    }

    #[test]
    fn hostile_tensor_volume_is_malformed_not_a_panic() {
        let overflow = Some(DecodeError::Malformed {
            what: "tensor volume overflows",
        });
        // 2^31 * 2^31 elements fit a usize, but their byte count does not.
        let dims = [1 << 31, 1 << 31];
        let act = hostile_frame(KIND_ACTIVATION, &dims);
        assert_eq!(act.len(), 35);
        assert_eq!(ActivationMsg::decode(&act).err(), overflow);
        assert_eq!(ActivationMsg::decode_lenient(&act).err(), overflow);
        let grad = hostile_frame(KIND_GRADIENT, &dims);
        assert_eq!(GradientMsg::decode(&grad).err(), overflow);
        assert_eq!(GradientMsg::decode_lenient(&grad).err(), overflow);
    }

    #[test]
    fn encoded_len_scales_with_activation_volume() {
        let small = ActivationMsg {
            from: EndSystemId(0),
            batch_id: BatchId { epoch: 0, batch: 0 },
            activations: Tensor::zeros([1, 16, 16, 16]),
            targets: vec![0],
        };
        let large = ActivationMsg {
            from: EndSystemId(0),
            batch_id: BatchId { epoch: 0, batch: 0 },
            activations: Tensor::zeros([1, 16, 32, 32]),
            targets: vec![0],
        };
        assert!(large.encoded_len() > 3 * small.encoded_len());
    }

    #[test]
    fn batch_id_orders_lexicographically() {
        let a = BatchId { epoch: 0, batch: 9 };
        let b = BatchId { epoch: 1, batch: 0 };
        assert!(a < b);
        assert_eq!(a.to_string(), "e0b9");
    }
}

//! Whole-cache snapshots: a magic-tagged, versioned file image of
//! every plan-cache entry, revalidated against catalog epoch and
//! fingerprint before any entry is trusted.

use crate::codec::{Reader, Writer};
use crate::error::WireError;
use crate::plan::{decode_plan, encode_plan};
use fro_algebra::{Interner, RelId};
use fro_exec::PhysPlan;

/// First bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"FROW";

/// The snapshot format version this build writes (and the newest it
/// reads). Version 2 added a per-entry recency rank so a loaded cache
/// preserves the saver's LRU order instead of flattening it.
pub const SNAPSHOT_FORMAT_VERSION: u8 = 2;

/// The oldest snapshot version this build decodes: the current one.
/// Older images are refused with [`WireError::UnsupportedVersion`]; a
/// loader that cannot read a snapshot just starts cold.
pub const SNAPSHOT_MIN_SUPPORTED_VERSION: u8 = SNAPSHOT_FORMAT_VERSION;

/// The revalidation preamble of a snapshot: which catalog generation
/// wrote it, over which name⇄id mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Catalog epoch at save time. A loader whose epoch differs treats
    /// the snapshot as stale (statistics may have moved) and stays
    /// cold.
    pub epoch: u64,
    /// Fingerprint of the catalog's interner contents and statistics.
    /// A loader whose fingerprint differs must not decode entries at
    /// all — the ids on the wire would resolve to the wrong names.
    pub fingerprint: u64,
}

/// One cached plan, fully annotated, as it crosses the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotEntry {
    /// Stable query-graph signature the entry is keyed on.
    pub sig: u64,
    /// Bitset of canonical relation indices the plan covers.
    pub set_bits: u64,
    /// A policy byte, below [`POLICY_TAGS`]. Plan-cache keys no longer
    /// carry a policy, so savers write a constant and loaders ignore
    /// it; the wire layer only validates the range.
    pub policy_tag: u8,
    /// Estimated cost annotation.
    pub cost: f64,
    /// Estimated output-cardinality annotation.
    pub rows: f64,
    /// For single-relation entries: the base relation, letting the
    /// loader rebuild the scan-entry fast path.
    pub base: Option<RelId>,
    /// Recency rank at save time: 0 = least recently used. A loader
    /// installs entries in rank order so its eviction order matches
    /// the saver's.
    pub recency: u64,
    /// The plan itself.
    pub plan: PhysPlan,
}

/// The range a snapshot entry's policy byte must fall in
/// (`0..POLICY_TAGS`).
pub const POLICY_TAGS: u8 = 3;

// Floor for `take_count`: sig + set + policy + cost + rows + base tag
// + blob length + a one-byte blob can't encode in fewer bytes.
const MIN_ENTRY_BYTES: usize = 22;

fn validate_entry(e: &SnapshotEntry, it: &Interner) -> Result<(), WireError> {
    if e.set_bits == 0 {
        return Err(WireError::InvalidNode {
            node: "SnapshotEntry",
            reason: "empty relation set",
        });
    }
    if e.policy_tag >= POLICY_TAGS {
        return Err(WireError::UnknownTag {
            what: "policy",
            tag: u64::from(e.policy_tag),
            at: 0,
        });
    }
    let set_len = e.set_bits.count_ones() as usize;
    let plan_rels = e.plan.base_rel_refs();
    if set_len != plan_rels {
        return Err(WireError::RelSetMismatch { set_len, plan_rels });
    }
    if let Some(r) = e.base {
        let name = it.try_rel_name(r).ok_or(WireError::BadRelId {
            id: r.index() as u64,
            n_rels: it.n_rels(),
        })?;
        let is_bare_scan = matches!(&e.plan, PhysPlan::Scan { rel } if rel.as_str() == name);
        if !is_bare_scan {
            return Err(WireError::InvalidNode {
                node: "SnapshotEntry",
                reason: "base relation set but plan is not a bare scan of it",
            });
        }
    }
    Ok(())
}

/// Encode a full snapshot. Entries are sorted by
/// `(sig, set_bits, policy_tag)` so the byte image is a canonical
/// function of the cache *contents*, independent of insertion order.
///
/// # Errors
/// Propagates plan-encode failures ([`WireError::UnknownRelation`] /
/// [`WireError::UnknownAttr`]) and rejects entries the decoder would
/// refuse, so a written snapshot always loads.
pub fn encode_snapshot(
    header: SnapshotHeader,
    entries: &[SnapshotEntry],
    it: &Interner,
) -> Result<Vec<u8>, WireError> {
    let mut sorted: Vec<&SnapshotEntry> = entries.iter().collect();
    sorted.sort_by_key(|e| (e.sig, e.set_bits, e.policy_tag));
    let mut w = Writer::new();
    w.put_raw(&SNAPSHOT_MAGIC);
    w.put_u8(SNAPSHOT_FORMAT_VERSION);
    w.put_u64(header.epoch);
    w.put_u64(header.fingerprint);
    w.put_u64(sorted.len() as u64);
    for e in sorted {
        validate_entry(e, it)?;
        w.put_u64(e.sig);
        w.put_u64(e.set_bits);
        w.put_u8(e.policy_tag);
        w.put_f64(e.cost);
        w.put_f64(e.rows);
        match e.base {
            None => w.put_u8(0),
            Some(r) => {
                w.put_u8(1);
                w.put_u64(r.index() as u64);
            }
        }
        w.put_u64(e.recency);
        w.put_bytes(&encode_plan(&e.plan, it)?);
    }
    Ok(w.into_bytes())
}

fn dec_header(r: &mut Reader<'_>) -> Result<SnapshotHeader, WireError> {
    let magic = r.take_raw(4)?;
    if magic != SNAPSHOT_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = r.take_u8()?;
    if !(SNAPSHOT_MIN_SUPPORTED_VERSION..=SNAPSHOT_FORMAT_VERSION).contains(&version) {
        return Err(WireError::UnsupportedVersion {
            what: "snapshot",
            found: version,
            min_supported: SNAPSHOT_MIN_SUPPORTED_VERSION,
            supported: SNAPSHOT_FORMAT_VERSION,
        });
    }
    let epoch = r.take_u64()?;
    let fingerprint = r.take_u64()?;
    Ok(SnapshotHeader { epoch, fingerprint })
}

/// Read only the magic, version, and header of a snapshot — enough for
/// a loader to decide staleness *before* decoding a single entry, so a
/// foreign interner mapping is never consulted.
///
/// # Errors
/// [`WireError::BadMagic`], [`WireError::UnsupportedVersion`], or
/// truncation errors.
pub fn peek_snapshot_header(bytes: &[u8]) -> Result<SnapshotHeader, WireError> {
    dec_header(&mut Reader::new(bytes))
}

/// Decode a full snapshot, validating every entry structurally against
/// `it`. The caller is expected to have already checked the header via
/// [`peek_snapshot_header`]; this function re-reads and returns it.
///
/// # Errors
/// Any [`WireError`] decode variant.
pub fn decode_snapshot(
    bytes: &[u8],
    it: &Interner,
) -> Result<(SnapshotHeader, Vec<SnapshotEntry>), WireError> {
    let mut r = Reader::new(bytes);
    let header = dec_header(&mut r)?;
    let count = r.take_count(MIN_ENTRY_BYTES)?;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let sig = r.take_u64()?;
        let set_bits = r.take_u64()?;
        let policy_tag = r.take_u8()?;
        let cost = r.take_f64()?;
        let rows = r.take_f64()?;
        let at = r.pos();
        let base = match r.take_u8()? {
            0 => None,
            1 => {
                let id = r.take_u64()?;
                let idx = usize::try_from(id)
                    .ok()
                    .filter(|&i| i < it.n_rels())
                    .ok_or(WireError::BadRelId {
                        id,
                        n_rels: it.n_rels(),
                    })?;
                Some(RelId::from_index(idx))
            }
            t => {
                return Err(WireError::UnknownTag {
                    what: "option",
                    tag: u64::from(t),
                    at,
                })
            }
        };
        let recency = r.take_u64()?;
        let blob = r.take_bytes()?;
        let plan = decode_plan(blob, it)?;
        let entry = SnapshotEntry {
            sig,
            set_bits,
            policy_tag,
            cost,
            rows,
            base,
            recency,
            plan,
        };
        validate_entry(&entry, it)?;
        entries.push(entry);
    }
    r.finish()?;
    Ok((header, entries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fro_algebra::{Attr, Pred, Schema};

    fn test_interner() -> Interner {
        let mut it = Interner::new();
        it.register_relation("R", &Schema::of_relation("R", &["k", "v"]));
        it.register_relation("S", &Schema::of_relation("S", &["k"]));
        it
    }

    fn sample_entries(it: &Interner) -> Vec<SnapshotEntry> {
        let join = PhysPlan::HashJoin {
            kind: fro_exec::JoinKind::LeftOuter,
            probe: Box::new(PhysPlan::scan("R")),
            build: Box::new(PhysPlan::scan("S")),
            probe_keys: vec![Attr::parse("R.k")],
            build_keys: vec![Attr::parse("S.k")],
            residual: Pred::always(),
        };
        vec![
            SnapshotEntry {
                sig: 0xdead_beef,
                set_bits: 0b11,
                policy_tag: 0,
                cost: 42.5,
                rows: 17.0,
                base: None,
                recency: 1,
                plan: join,
            },
            SnapshotEntry {
                sig: 0xdead_beef,
                set_bits: 0b01,
                policy_tag: 2,
                cost: 1.0,
                rows: 10.0,
                base: it.rel_id("R"),
                recency: 0,
                plan: PhysPlan::scan("R"),
            },
        ]
    }

    #[test]
    fn snapshot_roundtrips_and_is_canonical() {
        let it = test_interner();
        let header = SnapshotHeader {
            epoch: 7,
            fingerprint: 0x1234_5678_9abc_def0,
        };
        let entries = sample_entries(&it);
        let bytes = encode_snapshot(header, &entries, &it).unwrap();
        assert_eq!(peek_snapshot_header(&bytes).unwrap(), header);
        let (h2, back) = decode_snapshot(&bytes, &it).unwrap();
        assert_eq!(h2, header);
        // Entries come back sorted; reversing the input changes nothing.
        let mut reversed = entries.clone();
        reversed.reverse();
        let bytes2 = encode_snapshot(header, &reversed, &it).unwrap();
        assert_eq!(bytes, bytes2, "byte image is order-independent");
        assert_eq!(back.len(), 2);
        assert!(back[0].set_bits < back[1].set_bits);
        // And the decoded entries re-encode to the identical image.
        let bytes3 = encode_snapshot(header, &back, &it).unwrap();
        assert_eq!(bytes, bytes3);
    }

    #[test]
    fn invalid_entries_are_rejected_on_both_sides() {
        let it = test_interner();
        let header = SnapshotHeader {
            epoch: 0,
            fingerprint: 0,
        };
        // Relation-set cardinality disagrees with the plan.
        let bad = SnapshotEntry {
            sig: 1,
            set_bits: 0b111,
            policy_tag: 0,
            cost: 0.0,
            rows: 0.0,
            base: None,
            recency: 0,
            plan: PhysPlan::scan("R"),
        };
        assert!(matches!(
            encode_snapshot(header, std::slice::from_ref(&bad), &it),
            Err(WireError::RelSetMismatch { .. })
        ));
        // Policy tag out of range.
        let bad_policy = SnapshotEntry {
            policy_tag: 3,
            set_bits: 0b1,
            ..bad.clone()
        };
        assert!(matches!(
            encode_snapshot(header, &[bad_policy], &it),
            Err(WireError::UnknownTag { what: "policy", .. })
        ));
        // Base relation claimed but the plan is not its bare scan.
        let bad_base = SnapshotEntry {
            set_bits: 0b1,
            base: it.rel_id("S"),
            ..bad
        };
        assert!(matches!(
            encode_snapshot(header, &[bad_base], &it),
            Err(WireError::InvalidNode { .. })
        ));
    }

    #[test]
    fn hostile_headers_are_typed() {
        let it = test_interner();
        assert!(matches!(
            peek_snapshot_header(b"NOPE\x01"),
            Err(WireError::BadMagic)
        ));
        assert!(matches!(
            peek_snapshot_header(b"FROW\x09"),
            Err(WireError::UnsupportedVersion { .. })
        ));
        assert!(matches!(
            peek_snapshot_header(b"FR"),
            Err(WireError::UnexpectedEof { .. })
        ));
        // A count claiming more entries than the remaining bytes could
        // possibly hold is rejected before any allocation.
        let mut w = Writer::new();
        w.put_raw(&SNAPSHOT_MAGIC);
        w.put_u8(SNAPSHOT_FORMAT_VERSION);
        w.put_u64(0);
        w.put_u64(0);
        w.put_u64(u64::MAX);
        assert!(matches!(
            decode_snapshot(&w.into_bytes(), &it),
            Err(WireError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn version1_images_are_rejected() {
        // One wire version: an image from a build that wrote version 1
        // gets the typed version error, from the header peek and from
        // a full decode alike.
        let it = test_interner();
        let header = SnapshotHeader {
            epoch: 5,
            fingerprint: 11,
        };
        let mut v1 = encode_snapshot(header, &sample_entries(&it), &it).unwrap();
        v1[4] = 1;
        let refused = WireError::UnsupportedVersion {
            what: "snapshot",
            found: 1,
            min_supported: SNAPSHOT_FORMAT_VERSION,
            supported: SNAPSHOT_FORMAT_VERSION,
        };
        assert_eq!(peek_snapshot_header(&v1).unwrap_err(), refused);
        assert_eq!(decode_snapshot(&v1, &it).unwrap_err(), refused);
    }

    #[test]
    fn corrupting_any_byte_never_panics() {
        let it = test_interner();
        let header = SnapshotHeader {
            epoch: 3,
            fingerprint: 99,
        };
        let bytes = encode_snapshot(header, &sample_entries(&it), &it).unwrap();
        for i in 0..bytes.len() {
            for delta in [1u8, 0x80] {
                let mut mutated = bytes.clone();
                mutated[i] = mutated[i].wrapping_add(delta);
                // Must be Ok or a typed error — never a panic.
                let _ = decode_snapshot(&mutated, &it);
            }
        }
    }
}

//! Binary store snapshots.
//!
//! Parsing N-Triples and rebuilding the three permutation indexes
//! dominates endpoint start-up time; a snapshot stores the dictionary and
//! the id-triples directly, so re-loading is a single pass with no string
//! parsing. Used by the CLI (`.snap` data files).
//!
//! Format (little-endian):
//!
//! ```text
//! magic "LUSNAP01"
//! u32 term_count
//!   per term: u8 tag (0 iri | 1 bnode | 2 plain | 3 typed | 4 lang),
//!             then 1–2 length-prefixed UTF-8 strings
//! u64 triple_count
//!   per triple: 3 × u32 term ids (ids index the dictionary section)
//! ```

use crate::store::Store;
use lusail_rdf::{Literal, Term};

const MAGIC: &[u8; 8] = b"LUSNAP01";

/// A malformed snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError(pub String);

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot error: {}", self.0)
    }
}

impl std::error::Error for SnapshotError {}

/// Serialize a store to its snapshot bytes.
pub fn save(store: &Store) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + store.len() * 12);
    out.extend_from_slice(MAGIC);
    let dict = store.dict();
    out.extend_from_slice(&(dict.len() as u32).to_le_bytes());
    for (_, term) in dict.iter() {
        match term {
            Term::Iri(iri) => {
                out.push(0);
                write_str(&mut out, iri);
            }
            Term::BlankNode(label) => {
                out.push(1);
                write_str(&mut out, label);
            }
            Term::Literal(l) => match (&l.datatype, &l.language) {
                (None, None) => {
                    out.push(2);
                    write_str(&mut out, &l.lexical);
                }
                (Some(dt), _) => {
                    out.push(3);
                    write_str(&mut out, &l.lexical);
                    write_str(&mut out, dt);
                }
                (None, Some(lang)) => {
                    out.push(4);
                    write_str(&mut out, &l.lexical);
                    write_str(&mut out, lang);
                }
            },
        }
    }
    out.extend_from_slice(&(store.len() as u64).to_le_bytes());
    for (s, p, o) in store.iter_ids() {
        out.extend_from_slice(&s.to_le_bytes());
        out.extend_from_slice(&p.to_le_bytes());
        out.extend_from_slice(&o.to_le_bytes());
    }
    out
}

/// Rebuild a store from snapshot bytes.
pub fn load(bytes: &[u8]) -> Result<Store, SnapshotError> {
    let mut r = Reader { bytes, pos: 0 };
    let magic = r.take(8)?;
    if magic != MAGIC {
        return Err(SnapshotError("bad magic (not a Lusail snapshot)".into()));
    }
    let term_count = r.u32()? as usize;
    let mut terms: Vec<Term> = Vec::with_capacity(term_count);
    for _ in 0..term_count {
        let tag = r.u8()?;
        let term = match tag {
            0 => Term::iri(r.string()?),
            1 => Term::bnode(r.string()?),
            2 => Term::Literal(Literal::plain(r.string()?)),
            3 => {
                let lexical = r.string()?;
                let dt = r.string()?;
                Term::Literal(Literal::typed(lexical, dt))
            }
            4 => {
                let lexical = r.string()?;
                let lang = r.string()?;
                Term::Literal(Literal::lang(lexical, lang))
            }
            other => return Err(SnapshotError(format!("unknown term tag {other}"))),
        };
        terms.push(term);
    }
    let triple_count = r.u64()? as usize;
    let mut store = Store::new();
    for _ in 0..triple_count {
        let s = r.u32()? as usize;
        let p = r.u32()? as usize;
        let o = r.u32()? as usize;
        let get = |i: usize| -> Result<&Term, SnapshotError> {
            terms
                .get(i)
                .ok_or_else(|| SnapshotError(format!("term id {i} out of range")))
        };
        store.insert(&lusail_rdf::Triple {
            subject: get(s)?.clone(),
            predicate: get(p)?.clone(),
            object: get(o)?.clone(),
        });
    }
    if !r.at_end() {
        return Err(SnapshotError("trailing bytes after triples".into()));
    }
    Ok(store)
}

/// Save to a file.
pub fn save_to_file(store: &Store, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, save(store))
}

/// Load from a file.
pub fn load_from_file(path: &std::path::Path) -> Result<Store, Box<dyn std::error::Error>> {
    let bytes = std::fs::read(path)?;
    Ok(load(&bytes)?)
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.pos + n > self.bytes.len() {
            return Err(SnapshotError("unexpected end of snapshot".into()));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<&'a str, SnapshotError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| SnapshotError("invalid UTF-8 in snapshot".into()))
    }

    fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_rdf::{Graph, Term};

    fn sample_store() -> Store {
        let mut g = Graph::new();
        g.add(
            Term::iri("http://x/a"),
            Term::iri("http://x/p"),
            Term::literal("plain"),
        );
        g.add(
            Term::iri("http://x/a"),
            Term::iri("http://x/p"),
            Term::integer(42),
        );
        g.add(
            Term::iri("http://x/b"),
            Term::iri("http://x/q"),
            Term::Literal(lusail_rdf::Literal::lang("ciao", "it")),
        );
        g.add(
            Term::bnode("n0"),
            Term::iri("http://x/p"),
            Term::iri("http://x/a"),
        );
        Store::from_graph(&g)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let store = sample_store();
        let bytes = save(&store);
        let loaded = load(&bytes).unwrap();
        assert_eq!(loaded.len(), store.len());
        // Every original triple matches in the loaded store.
        for (s, p, o) in store.iter_ids() {
            let hits = loaded.match_terms(
                Some(store.decode(s)),
                Some(store.decode(p)),
                Some(store.decode(o)),
            );
            assert_eq!(hits.len(), 1);
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(load(b"not a snapshot").is_err());
        assert!(load(b"LUSNAP01").is_err()); // truncated
        let mut bytes = save(&sample_store());
        bytes.push(0); // trailing byte
        assert!(load(&bytes).is_err());
        // Corrupt a term id far out of range.
        let mut bytes = save(&sample_store());
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(load(&bytes).is_err());
    }

    #[test]
    fn file_helpers() {
        let store = sample_store();
        let path = std::env::temp_dir().join(format!("lusail-snap-{}.snap", std::process::id()));
        save_to_file(&store, &path).unwrap();
        let loaded = load_from_file(&path).unwrap();
        assert_eq!(loaded.len(), store.len());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_store_roundtrips() {
        let store = Store::new();
        let loaded = load(&save(&store)).unwrap();
        assert!(loaded.is_empty());
    }
}

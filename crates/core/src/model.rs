//! Model snapshots — the servable artifact of a finished clustering run.
//!
//! The collaborative protocol ends with `k` converged global
//! representatives, but a [`crate::ClusteringOutcome`] only records the
//! partition of the *training* transactions. A [`TrainedModel`] captures
//! everything an online classifier needs to place a *new* XML document into
//! one of those clusters:
//!
//! * the `k` cluster [`Representative`]s in tree-tuple form,
//! * the [`SimParams`] the model was trained with (`f` and `γ`),
//! * the label and term interners plus the path table, so incoming
//!   documents resolve their tags, paths and terms to the same symbols, and
//! * the corpus-level `ttf.itf` statistics (`N_T`, per-term `n_{j,T}`), so
//!   arriving TCUs are weighted against the *frozen* training collection —
//!   the same approximation the streaming extension documents.
//!
//! [`save_model`] / [`load_model`] round-trip the model through a compact
//! versioned binary format (conventionally stored as `*.cxkmodel`):
//! little-endian fields, length-prefixed UTF-8 strings, `f64`s as raw IEEE
//! bits so weights (and therefore synthetic fingerprints) survive
//! bit-exactly, and a trailing FxHash checksum over the payload. The
//! tag-path similarity table is *not* stored — it is derived state:
//! [`TrainedModel::prepare`] builds it over the representatives' tag paths
//! once per serving epoch, and every session clones and extends it.

use crate::error::CxkError;
use crate::localrep::cluster_representatives;
use crate::outcome::ClusteringOutcome;
use crate::rep::{prepare_representatives, RepItem, Representative};
use cxk_text::{SparseVec, TermStatsBuilder};
use cxk_transact::item::ItemId;
use cxk_transact::{BuildOptions, Dataset, PreparedSlab, SimParams, TagPathSimTable};
use cxk_util::bytes::{put_f64, put_u32, put_u64};
use cxk_util::{ByteError, ByteReader, FxHasher, Interner, Symbol};
use cxk_xml::path::{PathId, PathTable};
use std::hash::Hasher;
use std::path::Path;

/// Snapshot format magic bytes.
const MAGIC: &[u8; 4] = b"CXKM";
/// Current snapshot format version.
pub const MODEL_FORMAT_VERSION: u32 = 1;
/// Sentinel encoding `RepItem::source = None`.
const NO_SOURCE: u32 = u32::MAX;

/// A servable model: converged representatives plus the frozen
/// preprocessing context of the training corpus.
#[derive(Debug, Clone)]
pub struct TrainedModel {
    /// Similarity parameters (`f`, `γ`) the model was trained with.
    pub params: SimParams,
    /// Preprocessing options; classification must reuse them so incoming
    /// documents are parsed, tokenized and tuple-limited like the corpus.
    pub build: BuildOptions,
    /// Label interner (tags, attribute names, `S`).
    pub labels: Interner,
    /// Term vocabulary.
    pub vocabulary: Interner,
    /// Interned complete and tag paths.
    pub paths: PathTable,
    /// The `k` cluster representatives (trash has none — it is the implicit
    /// `(k+1)`-th cluster, id [`TrainedModel::trash_id`]).
    pub reps: Vec<Representative>,
    /// Frozen collection-level term statistics for `ttf.itf` weighting of
    /// arriving TCUs.
    pub term_stats: TermStatsBuilder,
    /// Documents in the training corpus (metadata).
    pub trained_documents: u64,
    /// Transactions in the training corpus (metadata).
    pub trained_transactions: u64,
}

impl TrainedModel {
    /// Extracts a model from a finished clustering run: each proper cluster
    /// of the final assignment is condensed into its representative (the
    /// same `ComputeLocalRepresentative` the protocol's last round used —
    /// with `m = 1` this *is* the converged global representative).
    pub fn from_clustering(
        ds: &Dataset,
        outcome: &ClusteringOutcome,
        params: SimParams,
        build: BuildOptions,
    ) -> Self {
        let reps = cluster_representatives(ds, params, &outcome.assignments, outcome.k);
        Self::from_representatives(ds, reps, params, build)
    }

    /// Builds a model from representatives that already exist — the
    /// streaming clusterer maintains them across refreshes, so its periodic
    /// retrain can snapshot a servable model (and hand it to a running
    /// server's hot-reload seam) without recomputing anything.
    pub fn from_representatives(
        ds: &Dataset,
        reps: Vec<Representative>,
        params: SimParams,
        build: BuildOptions,
    ) -> Self {
        Self {
            params,
            build,
            labels: ds.labels.clone(),
            vocabulary: ds.vocabulary.clone(),
            paths: ds.paths.clone(),
            reps,
            term_stats: ds.term_stats.clone(),
            trained_documents: ds.stats.documents as u64,
            trained_transactions: ds.stats.transactions as u64,
        }
    }

    /// Number of proper clusters `k`.
    pub fn k(&self) -> usize {
        self.reps.len()
    }

    /// The trash cluster's id (`k`).
    pub fn trash_id(&self) -> u32 {
        self.reps.len() as u32
    }

    /// The distinct tag paths appearing in the representatives, sorted —
    /// the base domain of the derived structural-similarity table.
    pub fn rep_tag_paths(&self) -> Vec<PathId> {
        let mut tag_paths: Vec<PathId> = self
            .reps
            .iter()
            .flat_map(|r| r.items.iter().map(|i| i.tag_path))
            .collect();
        tag_paths.sort_unstable();
        tag_paths.dedup();
        tag_paths
    }

    /// The `sim_S` table over [`TrainedModel::rep_tag_paths`], and the
    /// representatives prepared against it (entry `j` is representative
    /// `j`): built once per serving epoch, valid under every extension.
    pub fn prepare(&self) -> (TagPathSimTable, PreparedSlab) {
        let tag_sim = TagPathSimTable::build(&self.rep_tag_paths(), &self.paths);
        let reps = prepare_representatives(&tag_sim, &self.reps);
        (tag_sim, reps)
    }
}

/// Errors from [`load_model`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelError {
    /// Byte offset where the problem was found.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "model load error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ModelError {}

impl From<ByteError> for ModelError {
    fn from(e: ByteError) -> Self {
        err(e.offset, e.kind.to_string())
    }
}

fn checksum(payload: &[u8]) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write(payload);
    hasher.finish()
}

/// The content digest a snapshot carries in its trailing checksum, without
/// decoding the payload. `None` when `bytes` cannot be a snapshot (too
/// short, or wrong magic). Two snapshots with equal digests encode the
/// same model bit-for-bit, so hot-reload pollers use this to skip swaps
/// when a re-written file's contents did not actually change.
pub fn snapshot_digest(bytes: &[u8]) -> Option<u64> {
    if bytes.len() < MAGIC.len() + 4 + 8 || !bytes.starts_with(MAGIC) {
        return None;
    }
    ByteReader::new(&bytes[bytes.len() - 8..]).u64().ok()
}

/// The format version a snapshot declares, without decoding the payload.
/// `None` when `bytes` is too short or does not start with the snapshot
/// magic. Serving layers check it against [`MODEL_FORMAT_VERSION`] before
/// attempting a hot swap, so an incompatible snapshot is rejected without
/// disturbing the live model.
pub fn peek_format_version(bytes: &[u8]) -> Option<u32> {
    if bytes.len() < MAGIC.len() + 4 || !bytes.starts_with(MAGIC) {
        return None;
    }
    ByteReader::new(&bytes[MAGIC.len()..]).u32().ok()
}

/// Serializes a model to the versioned binary snapshot format.
pub fn save_model(model: &TrainedModel) -> Vec<u8> {
    let mut out = Vec::with_capacity(4096);
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, MODEL_FORMAT_VERSION);

    put_f64(&mut out, model.params.f);
    put_f64(&mut out, model.params.gamma);

    out.push(u8::from(model.build.parse.keep_whitespace_text));
    out.push(u8::from(model.build.parse.trim_text));
    out.push(u8::from(model.build.parse.coalesce_text));
    out.push(u8::from(model.build.pipeline.remove_stopwords));
    out.push(u8::from(model.build.pipeline.stem));
    put_u64(&mut out, model.build.limits.max_tuples_per_tree as u64);

    put_u64(&mut out, model.trained_documents);
    put_u64(&mut out, model.trained_transactions);

    put_interner(&mut out, &model.labels);
    put_interner(&mut out, &model.vocabulary);

    put_u32(&mut out, model.paths.len() as u32);
    for (_, labels) in model.paths.iter() {
        put_u32(&mut out, labels.len() as u32);
        for sym in labels {
            put_u32(&mut out, sym.0);
        }
    }

    put_u64(&mut out, model.term_stats.total_tcus());
    put_u32(&mut out, model.term_stats.counts().len() as u32);
    for &count in model.term_stats.counts() {
        put_u64(&mut out, count);
    }

    put_u32(&mut out, model.reps.len() as u32);
    for rep in &model.reps {
        put_u32(&mut out, rep.items.len() as u32);
        for item in &rep.items {
            put_u32(&mut out, item.path.0);
            put_u32(&mut out, item.tag_path.0);
            put_u64(&mut out, item.fingerprint);
            put_u32(&mut out, item.source.map_or(NO_SOURCE, |id| id.0));
            put_u32(&mut out, item.vector.nnz() as u32);
            for (term, weight) in item.vector.iter() {
                put_u32(&mut out, term.0);
                put_f64(&mut out, weight);
            }
        }
    }

    let digest = checksum(&out);
    put_u64(&mut out, digest);
    out
}

/// Deserializes a model snapshot, verifying the magic, version, checksum
/// and the internal consistency of every id. No label, term or path may be
/// listed twice: the decoder builds each table in one sized pass and
/// rejects a repeated entry, which would otherwise collapse onto the first
/// and shift every later id onto the next entry's key.
pub fn load_model(bytes: &[u8]) -> Result<TrainedModel, ModelError> {
    if bytes.len() < MAGIC.len() + 4 + 8 {
        return Err(err(0, "truncated snapshot"));
    }
    let (payload, tail) = bytes.split_at(bytes.len() - 8);
    if ByteReader::new(tail).u64().ok() != Some(checksum(payload)) {
        return Err(err(bytes.len() - 8, "checksum mismatch (corrupt snapshot)"));
    }

    let mut r = ByteReader::new(payload);
    if r.bytes(MAGIC.len())? != MAGIC {
        return Err(err(0, "bad magic (not a .cxkmodel snapshot)"));
    }
    let version = r.u32()?;
    if version != MODEL_FORMAT_VERSION {
        return Err(err(
            r.offset(),
            format!("unsupported format version {version} (expected {MODEL_FORMAT_VERSION})"),
        ));
    }

    let f = r.f64()?;
    let gamma = r.f64()?;
    if !(0.0..=1.0).contains(&f) || !(0.0..=1.0).contains(&gamma) {
        return Err(err(r.offset(), "similarity parameters out of [0, 1]"));
    }
    let params = SimParams::new(f, gamma);

    let mut build = BuildOptions::default();
    build.parse.keep_whitespace_text = r.bool()?;
    build.parse.trim_text = r.bool()?;
    build.parse.coalesce_text = r.bool()?;
    build.pipeline.remove_stopwords = r.bool()?;
    build.pipeline.stem = r.bool()?;
    build.limits.max_tuples_per_tree = r.u64()? as usize;

    let trained_documents = r.u64()?;
    let trained_transactions = r.u64()?;

    let labels = read_interner(&mut r, "labels")?;
    let vocabulary = read_interner(&mut r, "vocabulary")?;
    let paths = read_paths(&mut r, labels.len())?;

    let total_tcus = r.u64()?;
    let count_len = r.count(8)?;
    let mut counts = r.vec_for(count_len);
    for _ in 0..count_len {
        counts.push(r.u64()?);
    }
    if counts.len() > vocabulary.len() {
        return Err(err(r.offset(), "term statistics exceed the vocabulary"));
    }
    let term_stats = TermStatsBuilder::from_parts(total_tcus, counts);

    let k = r.count(4)?;
    let mut reps = r.vec_for(k);
    for _ in 0..k {
        let item_count = r.count(24)?;
        let mut items = r.vec_for(item_count);
        for _ in 0..item_count {
            let path = r.u32()?;
            let tag_path = r.u32()?;
            if path as usize >= paths.len() || tag_path as usize >= paths.len() {
                return Err(err(r.offset(), "representative item path id out of range"));
            }
            let fingerprint = r.u64()?;
            let source = r.u32()?;
            let nnz = r.count(12)?;
            let mut pairs = r.vec_for(nnz);
            for _ in 0..nnz {
                let term = r.u32()?;
                if term as usize >= vocabulary.len() {
                    return Err(err(r.offset(), format!("vector term {term} out of range")));
                }
                pairs.push((Symbol(term), r.f64()?));
            }
            items.push(RepItem {
                path: PathId(path),
                tag_path: PathId(tag_path),
                vector: SparseVec::from_pairs(pairs),
                fingerprint,
                source: (source != NO_SOURCE).then_some(ItemId(source)),
            });
        }
        reps.push(Representative { items });
    }

    if !r.is_exhausted() {
        return Err(err(r.offset(), "trailing bytes after the representatives"));
    }

    Ok(TrainedModel {
        params,
        build,
        labels,
        vocabulary,
        paths,
        reps,
        term_stats,
        trained_documents,
        trained_transactions,
    })
}

/// Serializes a model and writes it to `path` (conventionally
/// `*.cxkmodel`), returning the snapshot's byte count.
///
/// # Errors
/// Returns [`CxkError::Io`] when the file cannot be written.
pub fn save_model_file(model: &TrainedModel, path: impl AsRef<Path>) -> Result<usize, CxkError> {
    let path = path.as_ref();
    let bytes = save_model(model);
    std::fs::write(path, &bytes).map_err(|source| CxkError::Io {
        op: "write",
        path: path.to_path_buf(),
        source,
    })?;
    Ok(bytes.len())
}

/// Reads and decodes a model snapshot from `path`, attributing both I/O
/// and decode failures to the file.
///
/// # Errors
/// Returns [`CxkError::Io`] when the file cannot be read and
/// [`CxkError::Model`] when its contents are not a valid snapshot.
pub fn load_model_file(path: impl AsRef<Path>) -> Result<TrainedModel, CxkError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|source| CxkError::Io {
        op: "read",
        path: path.to_path_buf(),
        source,
    })?;
    load_model(&bytes).map_err(|source| CxkError::Model {
        path: Some(path.to_path_buf()),
        source,
    })
}

fn err(offset: usize, message: impl Into<String>) -> ModelError {
    ModelError {
        offset,
        message: message.into(),
    }
}

fn put_interner(out: &mut Vec<u8>, interner: &Interner) {
    put_u32(out, interner.len() as u32);
    for (_, text) in interner.iter() {
        put_u32(out, text.len() as u32);
        out.extend_from_slice(text.as_bytes());
    }
}

/// Measures the `count` entries that follow, each a length-prefixed run
/// of `unit`-byte elements, without consuming them: their total and their
/// longest length, in elements.
fn extent(r: &ByteReader<'_>, count: usize, unit: usize) -> Result<(usize, usize), ByteError> {
    let mut ahead = r.clone();
    let (mut total, mut longest) = (0, 0);
    for _ in 0..count {
        let len = ahead.count(unit)?;
        ahead.bytes(unit * len)?;
        total += len;
        longest = longest.max(len);
    }
    Ok((total, longest))
}

/// Reads a string table section: a count, then length-prefixed UTF-8
/// strings, interned in order into an interner sized from the section's
/// extent.
fn read_interner(r: &mut ByteReader<'_>, section: &str) -> Result<Interner, ModelError> {
    let count = r.count(4)?;
    let (bytes, _) = extent(r, count, 1)?;
    let mut interner = Interner::with_capacity_and_bytes(count, bytes);
    for _ in 0..count {
        let at = r.offset();
        let len = r.count(1)?;
        let text = std::str::from_utf8(r.bytes(len)?)
            .map_err(|_| err(r.offset(), "interned string is not UTF-8"))?;
        interner
            .insert_new(text)
            .map_err(|first| duplicate(at, section, first.0))?;
    }
    Ok(interner)
}

/// Reads the path section: a count, then length-prefixed label sequences
/// over `labels` labels, interned in order into a table sized from the
/// section's extent.
fn read_paths(r: &mut ByteReader<'_>, labels: usize) -> Result<PathTable, ModelError> {
    let count = r.count(4)?;
    let (total, longest) = extent(r, count, 4)?;
    let mut paths = PathTable::with_capacity_and_labels(count, total);
    let mut symbols = Vec::with_capacity(longest);
    for _ in 0..count {
        let at = r.offset();
        let len = r.count(4)?;
        symbols.clear();
        for _ in 0..len {
            let sym = r.u32()?;
            if sym as usize >= labels {
                return Err(err(
                    r.offset(),
                    format!("path label symbol {sym} out of range"),
                ));
            }
            symbols.push(Symbol(sym));
        }
        paths
            .insert_new(&symbols)
            .map_err(|first| duplicate(at, "paths", first.0))?;
    }
    Ok(paths)
}

/// The error for the entry at byte `at` of `section`, which repeats entry
/// `first`: interning it would collapse the two and shift every later id
/// onto the next entry's key.
fn duplicate(at: usize, section: &str, first: u32) -> ModelError {
    err(
        at,
        format!("duplicated entry in the {section} section (entry {first} again)"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cxk::CxkConfig;
    use crate::engine::EngineBuilder;
    use cxk_transact::DatasetBuilder;

    fn trained() -> TrainedModel {
        let docs = [
            r#"<dblp><inproceedings key="m1"><author>A. Miner</author><title>mining clustering patterns trees</title><booktitle>KDD</booktitle></inproceedings></dblp>"#,
            r#"<dblp><inproceedings key="m2"><author>A. Miner</author><title>frequent mining clustering streams</title><booktitle>KDD</booktitle></inproceedings></dblp>"#,
            r#"<dblp><article key="n1"><author>B. Netter</author><title>routing congestion networks protocols</title><journal>Networking</journal></article></dblp>"#,
            r#"<dblp><article key="n2"><author>B. Netter</author><title>packet routing networks latency</title><journal>Networking</journal></article></dblp>"#,
        ];
        let mut builder = DatasetBuilder::new(BuildOptions::default());
        for doc in docs {
            builder.add_xml(doc).unwrap();
        }
        let ds = builder.finish();
        let mut config = CxkConfig::new(2);
        config.params = SimParams::new(0.5, 0.5);
        config.seed = 1;
        EngineBuilder::from_cxk_config(&config)
            .build()
            .expect("valid test config")
            .fit(&ds)
            .expect("fit succeeds")
            .into_model(&ds, BuildOptions::default())
    }

    fn assert_models_equal(a: &TrainedModel, b: &TrainedModel) {
        assert_eq!(a.params, b.params);
        assert_eq!(a.reps.len(), b.reps.len());
        for (ra, rb) in a.reps.iter().zip(&b.reps) {
            assert_eq!(ra.items, rb.items, "items must round-trip bit-exactly");
        }
        assert_eq!(a.term_stats.total_tcus(), b.term_stats.total_tcus());
        assert_eq!(a.term_stats.counts(), b.term_stats.counts());
        assert_eq!(a.labels.len(), b.labels.len());
        for (sym, text) in a.labels.iter() {
            assert_eq!(b.labels.resolve(sym), text);
        }
        for (sym, text) in a.vocabulary.iter() {
            assert_eq!(b.vocabulary.resolve(sym), text);
        }
        assert_eq!(a.paths.len(), b.paths.len());
        for (id, labels) in a.paths.iter() {
            assert_eq!(b.paths.resolve(id), labels);
        }
        assert_eq!(a.trained_documents, b.trained_documents);
        assert_eq!(a.trained_transactions, b.trained_transactions);
    }

    #[test]
    fn snapshot_round_trips() {
        let model = trained();
        assert_eq!(model.k(), 2);
        assert!(model.reps.iter().any(|r| !r.is_empty()));
        let bytes = save_model(&model);
        let loaded = load_model(&bytes).expect("loads");
        assert_models_equal(&model, &loaded);
    }

    #[test]
    fn from_clustering_covers_every_proper_cluster() {
        let model = trained();
        // Both topical clusters are populated, so both reps carry items.
        assert!(model.reps.iter().all(|r| !r.is_empty()));
        assert_eq!(model.trained_documents, 4);
        assert_eq!(model.trash_id(), 2);
        assert!(!model.rep_tag_paths().is_empty());
    }

    #[test]
    fn file_helpers_round_trip_and_type_their_errors() {
        let model = trained();
        let path =
            std::env::temp_dir().join(format!("cxk-model-file-{}.cxkmodel", std::process::id()));
        save_model_file(&model, &path).expect("writes");
        let loaded = load_model_file(&path).expect("loads");
        assert_models_equal(&model, &loaded);

        // Corrupt file → Model error carrying the path.
        std::fs::write(&path, b"not a snapshot at all").unwrap();
        match load_model_file(&path).unwrap_err() {
            CxkError::Model { path: Some(p), .. } => assert_eq!(p, path),
            other => panic!("expected a model error, got {other}"),
        }
        let _ = std::fs::remove_file(&path);

        // Missing file → Io error.
        match load_model_file(&path).unwrap_err() {
            CxkError::Io { op: "read", .. } => {}
            other => panic!("expected an I/O error, got {other}"),
        }
    }

    #[test]
    fn rejects_corruption_and_truncation() {
        let model = trained();
        let bytes = save_model(&model);

        // Flip one payload byte: the checksum must catch it.
        let mut corrupt = bytes.clone();
        corrupt[MAGIC.len() + 6] ^= 0xFF;
        assert!(load_model(&corrupt)
            .unwrap_err()
            .message
            .contains("checksum"));

        // Truncation.
        assert!(load_model(&bytes[..bytes.len() / 2]).is_err());
        assert!(load_model(&[]).is_err());

        // Wrong magic (checksum recomputed so the magic check itself fires).
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        let body_len = wrong.len() - 8;
        let digest = checksum(&wrong[..body_len]);
        wrong[body_len..].copy_from_slice(&digest.to_le_bytes());
        assert!(load_model(&wrong).unwrap_err().message.contains("magic"));

        // Unsupported version.
        let mut vers = bytes;
        vers[4..8].copy_from_slice(&99u32.to_le_bytes());
        let body_len = vers.len() - 8;
        let digest = checksum(&vers[..body_len]);
        vers[body_len..].copy_from_slice(&digest.to_le_bytes());
        assert!(load_model(&vers).unwrap_err().message.contains("version"));
    }

    /// `model`'s snapshot with the one occurrence of `from` replaced by
    /// `to` (as long), its checksum recomputed; also returns where.
    fn patched(model: &TrainedModel, from: &[u8], to: &[u8]) -> (Vec<u8>, usize) {
        let mut bytes = save_model(model);
        let found: Vec<usize> = (0..bytes.len() - from.len())
            .filter(|&at| bytes[at..].starts_with(from))
            .collect();
        assert_eq!(found.len(), 1, "the pattern occurs once");
        bytes[found[0]..found[0] + to.len()].copy_from_slice(to);
        let body_len = bytes.len() - 8;
        let digest = checksum(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&digest.to_le_bytes());
        (bytes, found[0])
    }

    /// A length-prefixed string entry, as the snapshot stores it.
    fn entry(text: &str) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, text.len() as u32);
        out.extend_from_slice(text.as_bytes());
        out
    }

    #[test]
    fn rejects_a_duplicated_label() {
        let mut model = trained();
        for label in ["zzdupa", "zzdupb", "zzlast"] {
            model.labels.intern(label);
        }
        let (bytes, at) = patched(&model, &entry("zzdupb"), &entry("zzdupa"));
        let e = load_model(&bytes).unwrap_err();
        assert_eq!(e.offset, at);
        assert!(e.message.contains("labels section"), "{e}");
    }

    #[test]
    fn rejects_a_duplicated_term() {
        let mut model = trained();
        for term in ["zzdupa", "zzdupb", "zzlast"] {
            model.vocabulary.intern(term);
        }
        let (bytes, at) = patched(&model, &entry("zzdupb"), &entry("zzdupa"));
        let e = load_model(&bytes).unwrap_err();
        assert_eq!(e.offset, at);
        assert!(e.message.contains("vocabulary section"), "{e}");
    }

    #[test]
    fn rejects_a_duplicated_path() {
        let mut model = trained();
        let label = model.labels.intern("zzonly");
        let next = Symbol(label.0 + 1);
        model.labels.intern("zznext");
        // Two new paths that differ in their last label only, then one
        // more whose id the duplicate would shift.
        let encode = |labels: &[Symbol]| {
            let mut out = Vec::new();
            put_u32(&mut out, labels.len() as u32);
            for sym in labels {
                put_u32(&mut out, sym.0);
            }
            out
        };
        let (dup, twin) = ([label, label, label], [label, label, next]);
        model.paths.intern(&dup);
        model.paths.intern(&twin);
        model.paths.intern(&[next]);
        let (bytes, at) = patched(&model, &encode(&twin), &encode(&dup));
        let e = load_model(&bytes).unwrap_err();
        assert_eq!(e.offset, at);
        assert!(e.message.contains("paths section"), "{e}");
    }

    #[test]
    fn a_snapshot_declaring_u32_max_representatives_is_refused_at_its_count() {
        let model = trained();
        let mut bytes = save_model(&model);
        // The representatives section closes the payload: a count, then per
        // representative an item count and 24 bytes plus 12 per term for
        // each item.
        let section: usize = 4 + model
            .reps
            .iter()
            .map(|rep| {
                4 + rep
                    .items
                    .iter()
                    .map(|item| 24 + 12 * item.vector.nnz())
                    .sum::<usize>()
            })
            .sum::<usize>();
        let at = bytes.len() - 8 - section;
        assert_eq!(bytes[at..at + 4], (model.k() as u32).to_le_bytes());
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let body_len = bytes.len() - 8;
        let digest = checksum(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&digest.to_le_bytes());
        let e = load_model(&bytes).unwrap_err();
        assert_eq!(e.offset, at + 4);
        assert_eq!(
            e.message,
            format!("count {} exceeds the bytes left", u32::MAX)
        );
    }

    #[test]
    fn snapshot_digest_and_version_peek_without_decoding() {
        let model = trained();
        let bytes = save_model(&model);
        assert_eq!(peek_format_version(&bytes), Some(MODEL_FORMAT_VERSION));
        let digest = snapshot_digest(&bytes).expect("digest");
        // Serialization is deterministic: same model, same digest.
        assert_eq!(snapshot_digest(&save_model(&model)), Some(digest));
        // A different model has a different digest (collisions aside).
        let mut other = model.clone();
        other.trained_documents += 1;
        assert_ne!(snapshot_digest(&save_model(&other)), Some(digest));
        // Non-snapshots peek to None instead of garbage.
        assert_eq!(snapshot_digest(b"short"), None);
        assert_eq!(snapshot_digest(b"XXXX-not-a-snapshot-at-all"), None);
        assert_eq!(peek_format_version(b"CXK"), None);
        assert_eq!(peek_format_version(b"not a snapshot"), None);
    }

    #[test]
    fn from_representatives_matches_from_clustering() {
        let model = trained();
        // Rebuilding from the model's own representatives over the same
        // dataset context reproduces the frozen statistics verbatim.
        let docs = [
            r#"<dblp><inproceedings key="m1"><author>A. Miner</author><title>mining clustering patterns trees</title><booktitle>KDD</booktitle></inproceedings></dblp>"#,
            r#"<dblp><inproceedings key="m2"><author>A. Miner</author><title>frequent mining clustering streams</title><booktitle>KDD</booktitle></inproceedings></dblp>"#,
            r#"<dblp><article key="n1"><author>B. Netter</author><title>routing congestion networks protocols</title><journal>Networking</journal></article></dblp>"#,
            r#"<dblp><article key="n2"><author>B. Netter</author><title>packet routing networks latency</title><journal>Networking</journal></article></dblp>"#,
        ];
        let mut builder = DatasetBuilder::new(BuildOptions::default());
        for doc in docs {
            builder.add_xml(doc).unwrap();
        }
        let ds = builder.finish();
        let rebuilt = TrainedModel::from_representatives(
            &ds,
            model.reps.clone(),
            model.params,
            BuildOptions::default(),
        );
        assert_models_equal(&model, &rebuilt);
    }

    #[test]
    fn empty_model_round_trips() {
        let ds = DatasetBuilder::new(BuildOptions::default()).finish();
        let outcome = ClusteringOutcome {
            assignments: Vec::new(),
            k: 3,
            m: 1,
            rounds: 0,
            converged: true,
            simulated_seconds: 0.0,
            total_work: 0,
            total_bytes: 0,
            total_messages: 0,
            per_round: Vec::new(),
        };
        let model = TrainedModel::from_clustering(
            &ds,
            &outcome,
            SimParams::default(),
            BuildOptions::default(),
        );
        assert_eq!(model.k(), 3);
        assert!(model.reps.iter().all(Representative::is_empty));
        let loaded = load_model(&save_model(&model)).expect("loads");
        assert_models_equal(&model, &loaded);
    }
}

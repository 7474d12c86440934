//! The three workloads: their documents, their key models, and the XQuery
//! text of every operation together with the result the model expects.
//!
//! The program sees only XQuery text. Each model tracks the live keys and
//! how often each occurs, so every operation's affected count (or, for a
//! query, the number of subtrees returned) is known before it runs.

use std::collections::BTreeMap;
use xmlup_core::RepoConfig;
use xmlup_rdb::BackendKind;
use xmlup_shred::Mapping;
use xmlup_workload::dblp::{dblp_document, dblp_dtd, DblpParams};
use xmlup_workload::{fixed_document, synthetic_dtd, SyntheticParams};
use xmlup_xml::{Document, NodeId};

/// Buffer-pool frames for `dblp-durable`: 64 × 4 KiB = 256 KiB, far
/// smaller than the ~4.4 MB page file, so reads go through to disk.
pub const DBLP_POOL_FRAMES: usize = 64;
/// Root element of the synthetic documents.
const SYNTH_ROOT: &str = "root";
/// `dblp-durable` checkpoints inline after this many updates.
pub const CHECKPOINT_EVERY: usize = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    SynthUpdate,
    SynthQuery,
    DblpDurable,
}

impl Name {
    pub fn parse(s: &str) -> Option<Name> {
        match s {
            "synth-update" => Some(Name::SynthUpdate),
            "synth-query" => Some(Name::SynthQuery),
            "dblp-durable" => Some(Name::DblpDurable),
            _ => None,
        }
    }

    pub fn durable(self) -> bool {
        self == Name::DblpDurable
    }

    /// Operations per round. A round starts from a freshly loaded store;
    /// every delete removes a key for good, so a round stops before the
    /// deletes have consumed a quarter of the keys (synth-update: 500 of
    /// 2000; dblp-durable: 900 of ~4000). synth-query deletes nothing; its
    /// rounds are short because its queries are slow.
    pub fn ops_per_round(self) -> usize {
        match self {
            Name::SynthUpdate => 1000,
            Name::SynthQuery => 500,
            Name::DblpDurable => 2700,
        }
    }
}

/// Kind of one operation; per-layer numbers are reported per kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Delete,
    Insert,
    Replace,
    Query,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Delete, Kind::Insert, Kind::Replace, Kind::Query];

    pub fn label(self) -> &'static str {
        match self {
            Kind::Delete => "delete",
            Kind::Insert => "insert",
            Kind::Replace => "replace",
            Kind::Query => "query",
        }
    }

    pub fn is_update(self) -> bool {
        self != Kind::Query
    }
}

/// One operation: XQuery text plus the result the key model predicts —
/// the affected count for an update, the number of subtrees for a query.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: Kind,
    pub text: String,
    pub expect: usize,
}

/// splitmix64: a small deterministic generator, so the inputs depend on
/// the seed alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn string(&mut self, len: usize) -> String {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
        (0..len)
            .map(|_| ALPHABET[self.below(ALPHABET.len())] as char)
            .collect()
    }
}

/// Derive an independent stream seed from the workload seed.
pub fn derive(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

/// A live key and how many subtrees currently carry it.
#[derive(Debug, Clone)]
struct Key {
    value: String,
    count: usize,
    /// Tuples in one subtree carrying the key (what a copy inserts).
    size: usize,
    /// Conference holding the subtree (dblp-durable only).
    parent: String,
}

/// Everything a run needs: the document, its mapping and configuration,
/// and the initial key model.
pub struct Workload {
    pub name: Name,
    /// Document name used in `document("…")`, also the oracle store's key.
    pub doc_name: &'static str,
    pub doc: Document,
    pub mapping: Mapping,
    pub config: RepoConfig,
    /// Serialized size of the generated document in bytes.
    pub doc_bytes: usize,
    keys: Vec<Key>,
    /// synth-query: `n3/str` value → number of `n1` subtrees containing it.
    deep_strs: Vec<(String, usize)>,
    op_seed: u64,
}

impl Workload {
    pub fn generate(name: Name, seed: u64) -> Workload {
        let doc_seed = derive(seed, 1);
        let op_seed = derive(seed, 2);
        let (doc, dtd, root, doc_name, config) = match name {
            Name::SynthUpdate => {
                let p = SyntheticParams {
                    seed: doc_seed,
                    ..SyntheticParams::new(2000, 8, 1)
                };
                (
                    fixed_document(&p),
                    synthetic_dtd(8),
                    SYNTH_ROOT,
                    "synth.xml",
                    RepoConfig::default(),
                )
            }
            Name::SynthQuery => {
                let p = SyntheticParams {
                    seed: doc_seed,
                    ..SyntheticParams::new(200, 4, 4)
                };
                (
                    fixed_document(&p),
                    synthetic_dtd(4),
                    SYNTH_ROOT,
                    "synth.xml",
                    RepoConfig::default(),
                )
            }
            Name::DblpDurable => {
                let p = DblpParams {
                    conferences: 100,
                    seed: doc_seed,
                    ..DblpParams::default()
                };
                (
                    dblp_document(&p),
                    dblp_dtd(),
                    "dblp",
                    "dblp.xml",
                    RepoConfig {
                        backend: BackendKind::Paged,
                        pool_frames: DBLP_POOL_FRAMES,
                        ..RepoConfig::default()
                    },
                )
            }
        };
        assert_eq!(config.statement_cost_us, 0, "the engine's own cost only");
        let mapping = Mapping::from_dtd(&dtd, root).expect("workload DTD maps");
        let doc_bytes = xmlup_xml::serializer::to_string(&doc).len();
        let mut w = Workload {
            name,
            doc_name,
            doc,
            mapping,
            config,
            doc_bytes,
            keys: Vec::new(),
            deep_strs: Vec::new(),
            op_seed,
        };
        w.build_model();
        w
    }

    fn child_text(doc: &Document, node: NodeId, name: &str) -> String {
        let c = doc
            .children(node)
            .iter()
            .copied()
            .find(|&c| doc.name(c) == Some(name))
            .expect("generated element has the child");
        doc.string_value(c)
    }

    fn elements<'a>(doc: &'a Document, node: NodeId, name: &'a str) -> Vec<NodeId> {
        doc.children(node)
            .iter()
            .copied()
            .filter(|&c| doc.name(c) == Some(name))
            .collect()
    }

    fn build_model(&mut self) {
        let doc = &self.doc;
        let top = doc.root();
        let mut keys: BTreeMap<String, Key> = BTreeMap::new();
        match self.name {
            Name::SynthUpdate | Name::SynthQuery => {
                let mut deep: BTreeMap<String, usize> = BTreeMap::new();
                for n1 in Self::elements(doc, top, "n1") {
                    let num = Self::child_text(doc, n1, "num");
                    let size = 1 + doc
                        .descendants(n1)
                        .filter(|&d| {
                            doc.name(d)
                                .is_some_and(|s| s.starts_with('n') && s != "num" && d != n1)
                        })
                        .count();
                    let k = keys.entry(num.clone()).or_insert(Key {
                        value: num,
                        count: 0,
                        size,
                        parent: String::new(),
                    });
                    k.count += 1;
                    if self.name == Name::SynthQuery {
                        let mut strs: Vec<String> = Vec::new();
                        for n2 in Self::elements(doc, n1, "n2") {
                            for n3 in Self::elements(doc, n2, "n3") {
                                strs.push(Self::child_text(doc, n3, "str"));
                            }
                        }
                        strs.sort();
                        strs.dedup();
                        for s in strs {
                            *deep.entry(s).or_default() += 1;
                        }
                    }
                }
                self.deep_strs = deep.into_iter().collect();
            }
            Name::DblpDurable => {
                for conf in Self::elements(doc, top, "conference") {
                    let cname = Self::child_text(doc, conf, "name");
                    for p in Self::elements(doc, conf, "inproceedings") {
                        let title = Self::child_text(doc, p, "title");
                        let size = 1 + doc
                            .children(p)
                            .iter()
                            .filter(|&&c| matches!(doc.name(c), Some("author" | "cite")))
                            .count();
                        let prev = keys.insert(
                            title.clone(),
                            Key {
                                value: title,
                                count: 1,
                                size,
                                parent: cname.clone(),
                            },
                        );
                        assert!(prev.is_none(), "generated titles are unique");
                    }
                }
            }
        }
        self.keys = keys.into_values().collect();
    }

    /// Tuples in the initial store (every relation, root tuple included).
    pub fn tuples(&self) -> usize {
        1 + self
            .doc
            .descendants(self.doc.root())
            .filter(|&d| {
                d != self.doc.root()
                    && self
                        .doc
                        .name(d)
                        .is_some_and(|n| self.mapping.relation_by_element(n).is_some())
            })
            .count()
    }

    /// The operations of round `round`, generated from the initial model.
    /// Each round starts from a freshly loaded store, so its sequence and
    /// its expectations depend only on the seed and the round number.
    pub fn round_ops(&self, round: usize) -> Vec<Op> {
        let mut rng = Rng::new(derive(self.op_seed, round as u64));
        let mut keys = self.keys.clone();
        let n = self.name.ops_per_round();
        let (d, r) = (self.doc_name, SYNTH_ROOT);
        let mut ops = Vec::with_capacity(n);
        for i in 0..n {
            let op = match self.name {
                Name::SynthUpdate => {
                    if i % 2 == 0 {
                        delete_any(&mut keys, &mut rng, |k| {
                            format!(
                                r#"FOR $d IN document("{d}")/{r}, $n IN $d/n1[num="{k}"] UPDATE $d {{ DELETE $n }}"#
                            )
                        })
                    } else {
                        copy_single(&mut keys, &mut rng, |k, _| {
                            format!(
                                r#"FOR $s IN document("{d}")/{r}/n1[num="{k}"], $d IN document("{d}")/{r} UPDATE $d {{ INSERT $s }}"#
                            )
                        })
                    }
                }
                // A fixed cycle of ten: one REPLACE, five key fetches,
                // four descendant-predicate queries. Fixed shares keep the
                // latency mix, and so its median, the same for every seed.
                Name::SynthQuery => match i % 10 {
                    0 => {
                        let k = &keys[rng.below(keys.len())];
                        let v = rng.string(50);
                        Op {
                            kind: Kind::Replace,
                            text: format!(
                                r#"FOR $n IN document("{d}")/{r}/n1[num="{}"], $s IN $n/str UPDATE $n {{ REPLACE $s WITH <str>{v}</str> }}"#,
                                k.value
                            ),
                            expect: k.count,
                        }
                    }
                    1..=5 => {
                        let k = &keys[rng.below(keys.len())];
                        Op {
                            kind: Kind::Query,
                            text: format!(
                                r#"FOR $n IN document("{d}")/{r}/n1[num="{}"] RETURN $n"#,
                                k.value
                            ),
                            expect: k.count,
                        }
                    }
                    _ => {
                        let (s, c) = &self.deep_strs[rng.below(self.deep_strs.len())];
                        Op {
                            kind: Kind::Query,
                            text: format!(
                                r#"FOR $n IN document("{d}")/{r}/n1[n2/n3/str="{s}"] RETURN $n"#
                            ),
                            expect: *c,
                        }
                    }
                },
                Name::DblpDurable => match i % 3 {
                    0 => {
                        let k = &keys[rng.below(keys.len())];
                        let year = 1990 + rng.below(12);
                        Op {
                            kind: Kind::Replace,
                            text: format!(
                                r#"FOR $p IN document("{d}")/dblp/conference/inproceedings[title="{}"], $y IN $p/year UPDATE $p {{ REPLACE $y WITH <year>{year}</year> }}"#,
                                k.value
                            ),
                            expect: k.count,
                        }
                    }
                    1 => copy_single(&mut keys, &mut rng, |t, conf| {
                        format!(
                            r#"FOR $c IN document("{d}")/dblp/conference[name="{conf}"], $p IN $c/inproceedings[title="{t}"] UPDATE $c {{ INSERT $p }}"#
                        )
                    }),
                    _ => delete_any(&mut keys, &mut rng, |t| {
                        format!(
                            r#"FOR $c IN document("{d}")/dblp/conference, $p IN $c/inproceedings[title="{t}"] UPDATE $c {{ DELETE $p }}"#
                        )
                    }),
                },
            };
            ops.push(op);
        }
        ops
    }
}

/// Delete every subtree carrying a random live key: the affected count is
/// the key's occurrence count, and the key leaves the model.
fn delete_any(keys: &mut Vec<Key>, rng: &mut Rng, text: impl Fn(&str) -> String) -> Op {
    let k = keys.swap_remove(rng.below(keys.len()));
    Op {
        kind: Kind::Delete,
        text: text(&k.value),
        expect: k.count,
    }
}

/// Copy the one subtree carrying a random single-occurrence key under its
/// own parent: the affected count is the subtree's tuple count, and the
/// key now occurs twice. Copying only single keys keeps the document's
/// size roughly steady.
fn copy_single(keys: &mut [Key], rng: &mut Rng, text: impl Fn(&str, &str) -> String) -> Op {
    let i = loop {
        let i = rng.below(keys.len());
        if keys[i].count == 1 {
            break i;
        }
    };
    let k = &mut keys[i];
    k.count = 2;
    Op {
        kind: Kind::Insert,
        text: text(&k.value, &k.parent),
        expect: k.size,
    }
}

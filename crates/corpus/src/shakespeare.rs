//! Shakespeare-like play corpus.
//!
//! Mirrors the paper's Shakespeare subset (§5.2): few, very long documents
//! with three structural classes determined by the presence of the
//! discriminatory paths `personae.pgroup`, `act.prologue` and
//! `act.epilogue`, five content classes, and 12 hybrid classes.
//!
//! The real subset has seven plays; seven documents cannot instantiate 12
//! hybrid classes at document granularity, so the synthetic corpus keeps the
//! "few very long documents" character while generating one play per
//! allowed (structure, content) pair — 12 plays by default.

use crate::textgen;
use crate::vocab::{SHAKESPEARE_TOPICS, SURNAMES};
use crate::Corpus;
use cxk_util::{DetRng, Interner};
use cxk_xml::tree::{XmlTree, S_LABEL};
use cxk_xml::write::{to_xml_string, Layout};

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct ShakespeareConfig {
    /// Speeches per scene (controls document length / tuple count).
    pub speeches_per_scene: usize,
    /// Personae per play (multiplies tuples).
    pub personae: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ShakespeareConfig {
    fn default() -> Self {
        Self {
            speeches_per_scene: 5,
            personae: 5,
            seed: 0x511A,
        }
    }
}

/// Structural classes: which discriminatory parts a play carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StructureVariant {
    /// Has `personae.pgroup`, no prologue/epilogue.
    PGroup,
    /// Has `act.prologue` and `act.epilogue`, no pgroup.
    PrologueEpilogue,
    /// Plain: none of the discriminatory parts.
    Plain,
}

/// The 12 allowed (structure, content) pairs: structure 0 and 2 cover all
/// five topics, structure 1 covers two — 12 hybrid classes.
const ALLOWED: [(StructureVariant, usize); 12] = [
    (StructureVariant::PGroup, 0),
    (StructureVariant::PGroup, 1),
    (StructureVariant::PGroup, 2),
    (StructureVariant::PGroup, 3),
    (StructureVariant::PGroup, 4),
    (StructureVariant::PrologueEpilogue, 1),
    (StructureVariant::PrologueEpilogue, 3),
    (StructureVariant::Plain, 0),
    (StructureVariant::Plain, 1),
    (StructureVariant::Plain, 2),
    (StructureVariant::Plain, 3),
    (StructureVariant::Plain, 4),
];

/// Generates the corpus (12 plays, one per hybrid class).
pub fn generate(config: &ShakespeareConfig) -> Corpus {
    let mut rng = DetRng::seed_from_u64(config.seed);
    let mut documents = Vec::with_capacity(ALLOWED.len());
    let mut structure_class = Vec::with_capacity(ALLOWED.len());
    let mut content_class = Vec::with_capacity(ALLOWED.len());
    let mut hybrid_class = Vec::with_capacity(ALLOWED.len());

    for (hybrid, &(variant, topic)) in ALLOWED.iter().enumerate() {
        documents.push(make_play(&mut rng, config, variant, topic));
        structure_class.push(match variant {
            StructureVariant::PGroup => 0,
            StructureVariant::PrologueEpilogue => 1,
            StructureVariant::Plain => 2,
        });
        content_class.push(topic as u32);
        hybrid_class.push(hybrid as u32);
    }

    Corpus {
        name: "shakespeare",
        documents,
        structure_class,
        content_class,
        hybrid_class,
        k_structure: 3,
        k_content: 5,
        k_hybrid: 12,
    }
}

fn make_play(
    rng: &mut DetRng,
    config: &ShakespeareConfig,
    variant: StructureVariant,
    topic: usize,
) -> String {
    let words = SHAKESPEARE_TOPICS[topic].1;
    let mut interner = Interner::new();
    let s = interner.intern(S_LABEL);

    let play = interner.intern("play");
    let mut tree = XmlTree::with_root(play);
    let root = tree.root();

    let title_tag = interner.intern("title");
    let t = tree.add_element(root, title_tag);
    tree.add_text(
        t,
        s,
        format!("The Tragedie of {}", textgen::title(rng, words)),
    );

    // Personae: one repeated group.
    let personae = tree.add_element(root, interner.intern("personae"));
    let pt = tree.add_element(personae, title_tag);
    tree.add_text(pt, s, "Dramatis Personae".to_string());
    let persona_tag = interner.intern("persona");
    let speakers: Vec<String> = (0..config.personae)
        .map(|_| rng.choose(SURNAMES).to_uppercase())
        .collect();
    for name in &speakers {
        let p = tree.add_element(personae, persona_tag);
        tree.add_text(
            p,
            s,
            format!("{name}, {}", textgen::sentence(rng, words, 3, 6, 0.6)),
        );
    }
    if variant == StructureVariant::PGroup {
        let pgroup = tree.add_element(personae, interner.intern("pgroup"));
        for _ in 0..2 {
            let p = tree.add_element(pgroup, persona_tag);
            tree.add_text(p, s, rng.choose(SURNAMES).to_uppercase());
        }
        let descr = tree.add_element(pgroup, interner.intern("grpdescr"));
        tree.add_text(descr, s, textgen::sentence(rng, words, 3, 6, 0.6));
    }

    // Acts: the other repeated group.
    let act_tag = interner.intern("act");
    let scene_tag = interner.intern("scene");
    let speech_tag = interner.intern("speech");
    let speaker_tag = interner.intern("speaker");
    let line_tag = interner.intern("line");
    for act_idx in 0..3 {
        let act = tree.add_element(root, act_tag);
        let at = tree.add_element(act, title_tag);
        tree.add_text(
            at,
            s,
            format!("Actus {}", ["Primus", "Secundus", "Tertius"][act_idx]),
        );
        if variant == StructureVariant::PrologueEpilogue && act_idx == 0 {
            let prologue = tree.add_element(act, interner.intern("prologue"));
            let pl = tree.add_element(prologue, line_tag);
            tree.add_text(pl, s, textgen::paragraph(rng, words, 2, 0.7));
        }
        for scene_idx in 0..2 {
            let scene = tree.add_element(act, scene_tag);
            let sct = tree.add_element(scene, title_tag);
            tree.add_text(sct, s, format!("Scoena {}", scene_idx + 1));
            for _ in 0..config.speeches_per_scene {
                let speech = tree.add_element(scene, speech_tag);
                let sp = tree.add_element(speech, speaker_tag);
                tree.add_text(sp, s, rng.choose(&speakers).clone());
                let line = tree.add_element(speech, line_tag);
                tree.add_text(line, s, textgen::paragraph(rng, words, 2, 0.7));
            }
        }
        if variant == StructureVariant::PrologueEpilogue && act_idx == 2 {
            let epilogue = tree.add_element(act, interner.intern("epilogue"));
            let el = tree.add_element(epilogue, line_tag);
            tree.add_text(el, s, textgen::paragraph(rng, words, 2, 0.7));
        }
    }

    to_xml_string(&tree, &interner, Layout::Compact)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_plays_twelve_hybrid_classes() {
        let corpus = generate(&ShakespeareConfig::default());
        assert_eq!(corpus.len(), 12);
        assert_eq!(corpus.k_structure, 3);
        assert_eq!(corpus.k_content, 5);
        assert_eq!(corpus.k_hybrid, 12);
        let mut hybrids = corpus.hybrid_class.clone();
        hybrids.sort_unstable();
        hybrids.dedup();
        assert_eq!(hybrids.len(), 12);
    }

    #[test]
    fn discriminatory_paths_track_structure_class() {
        let corpus = generate(&ShakespeareConfig::default());
        for (doc, &sc) in corpus.documents.iter().zip(&corpus.structure_class) {
            match sc {
                0 => {
                    assert!(doc.contains("<pgroup>"));
                    assert!(!doc.contains("<prologue>") && !doc.contains("<epilogue>"));
                }
                1 => {
                    assert!(doc.contains("<prologue>") && doc.contains("<epilogue>"));
                    assert!(!doc.contains("<pgroup>"));
                }
                _ => {
                    assert!(!doc.contains("<pgroup>"));
                    assert!(!doc.contains("<prologue>"));
                }
            }
        }
    }

    #[test]
    fn plays_are_long_documents_with_many_tuples() {
        let config = ShakespeareConfig::default();
        let corpus = generate(&config);
        let mut interner = Interner::new();
        for doc in &corpus.documents {
            let tree =
                cxk_xml::parse_document(doc, &mut interner, &cxk_xml::ParseOptions::default())
                    .unwrap();
            let tuples = cxk_xml::count_tree_tuples(&tree);
            // personae-choices × Σ_act Σ_scene speeches — long documents.
            assert!(tuples >= 100, "tuples = {tuples}");
            assert!(tuples <= 10_000, "tuples = {tuples}");
        }
    }

    #[test]
    fn speeches_scale_document_length() {
        let small = generate(&ShakespeareConfig {
            speeches_per_scene: 2,
            personae: 3,
            seed: 1,
        });
        let large = generate(&ShakespeareConfig {
            speeches_per_scene: 8,
            personae: 3,
            seed: 1,
        });
        let len_small: usize = small.documents.iter().map(String::len).sum();
        let len_large: usize = large.documents.iter().map(String::len).sum();
        assert!(len_large > 2 * len_small);
    }

    #[test]
    fn deterministic() {
        let a = generate(&ShakespeareConfig::default());
        let b = generate(&ShakespeareConfig::default());
        assert_eq!(a.documents, b.documents);
    }
}

//! Rule-based dependency parsing.
//!
//! Produces the head/label tree of the paper's Fig. 3 ("Tuberculosis
//! generally damages the lungs": *damages* is root, *Tuberculosis* its
//! `nsubj`, *lungs* its `obj` with *the* attached via `det`). THOR only
//! consumes the tree to enumerate noun phrases and subject/object roles,
//! so the parser is a deterministic head-finder over POS tags — the same
//! class of shallow parser classic IE systems used before statistical
//! parsing, and exact on the templated prose of the generated corpora.

use crate::pos::Pos;

/// Dependency relation labels (Universal Dependencies subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepLabel {
    /// Sentence root.
    Root,
    /// Nominal subject.
    Nsubj,
    /// Direct object.
    Obj,
    /// Determiner.
    Det,
    /// Adjectival modifier.
    Amod,
    /// Numeric modifier.
    Nummod,
    /// Noun compound modifier.
    Compound,
    /// Nominal modifier (incl. oblique/prepositional attachment).
    Nmod,
    /// Adposition marking a nominal.
    Case,
    /// Adverbial modifier.
    Advmod,
    /// Conjoined element.
    Conj,
    /// Coordinating conjunction.
    Cc,
    /// Punctuation.
    Punct,
    /// Unclassified dependency.
    Dep,
}

/// A dependency tree over one sentence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DepTree {
    /// `heads[i]` is the index of token `i`'s head; `None` for the root.
    pub heads: Vec<Option<usize>>,
    /// `labels[i]` is the relation between token `i` and its head.
    pub labels: Vec<DepLabel>,
}

impl DepTree {
    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// True for the empty sentence.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Index of the root token, if any.
    pub fn root(&self) -> Option<usize> {
        self.heads.iter().position(Option::is_none)
    }

    /// Direct dependents of token `head`.
    pub fn dependents(&self, head: usize) -> impl Iterator<Item = usize> + '_ {
        self.heads
            .iter()
            .enumerate()
            .filter_map(move |(i, h)| (*h == Some(head)).then_some(i))
    }

    /// True if following `heads` from every node reaches the root
    /// without cycles (structural well-formedness).
    pub fn is_forest_rooted(&self) -> bool {
        let n = self.len();
        if n == 0 {
            return true;
        }
        if self.root().is_none() {
            return false;
        }
        for start in 0..n {
            let mut seen = 0usize;
            let mut cur = start;
            while let Some(h) = self.heads[cur] {
                cur = h;
                seen += 1;
                if seen > n {
                    return false; // cycle
                }
            }
        }
        true
    }
}

/// Find the next index `>= from` whose tag is nominal, skipping only NP
/// material (DET/ADJ/NUM/nominal runs); returns the *head* of that NP,
/// i.e. the last token of the nominal run.
fn np_head_right(tags: &[Pos], from: usize) -> Option<usize> {
    let mut i = from;
    // Skip pre-modifiers.
    while i < tags.len() && matches!(tags[i], Pos::Det | Pos::Adj | Pos::Num | Pos::Adv) {
        i += 1;
    }
    if i >= tags.len() || !tags[i].is_nominal() {
        return None;
    }
    // Advance through the nominal run; head is its last element.
    let mut head = i;
    while head + 1 < tags.len() && tags[head + 1].is_nominal() && tags[head + 1] != Pos::Pron {
        head += 1;
    }
    Some(head)
}

/// Parse one tagged sentence into a [`DepTree`].
///
/// The grammar, in priority order:
/// * the **root** is the first VERB, else the first nominal, else token 0;
/// * DET/ADJ/NUM attach rightward to the head of the next noun run
///   (`det`/`amod`/`nummod`);
/// * inside a noun run every noun attaches to the run's last noun
///   (`compound`);
/// * an ADP attaches to the following NP head (`case`); that NP head
///   attaches to the nearest nominal or verb on the left (`nmod`);
/// * the NP head left of the root verb is its `nsubj`; the first NP head
///   right of it is `obj`; later NP heads chain to the previous NP via
///   `conj` (coordination) when a CONJ/comma intervenes, else `nmod`;
/// * ADV attaches to the nearest verb (`advmod`), CONJ to the following
///   NP (`cc`), punctuation and the rest to the root.
pub fn parse_dependencies(words: &[&str], tags: &[Pos]) -> DepTree {
    let mut tree = DepTree::default();
    parse_dependencies_into(words, tags, &mut tree, &mut Vec::new());
    tree
}

/// [`parse_dependencies`] into a reused `tree`, with `np_heads` the
/// reused buffer of the sentence's NP heads: what a
/// [`ChunkScratch`](crate::ChunkScratch) parses with.
pub(crate) fn parse_dependencies_into(
    words: &[&str],
    tags: &[Pos],
    tree: &mut DepTree,
    np_heads: &mut Vec<usize>,
) {
    assert_eq!(words.len(), tags.len(), "words/tags length mismatch");
    let n = words.len();
    tree.heads.clear();
    tree.heads.resize(n, None);
    tree.labels.clear();
    tree.labels.resize(n, DepLabel::Dep);
    if n == 0 {
        return;
    }
    let DepTree { heads, labels } = &mut *tree;

    // ---- root selection ----
    // Verbless sentences root at the *head* of the first nominal run
    // (not its first token — a mid-compound root would split the NP).
    let root = tags
        .iter()
        .position(|&t| t == Pos::Verb)
        .unwrap_or_else(|| match tags.iter().position(|&t| t.is_nominal()) {
            Some(first) => {
                let mut head = first;
                while head + 1 < n && tags[head + 1].is_nominal() && tags[head + 1] != Pos::Pron {
                    head += 1;
                }
                head
            }
            None => 0,
        });
    labels[root] = DepLabel::Root;

    // Identify NP heads: last token of each maximal nominal run (PRON is
    // always its own NP). They are found left to right, so the list is
    // sorted.
    np_heads.clear();
    {
        let mut i = 0;
        while i < n {
            if tags[i] == Pos::Pron {
                np_heads.push(i);
                i += 1;
            } else if tags[i].is_nominal() {
                let mut head = i;
                while head + 1 < n && tags[head + 1].is_nominal() && tags[head + 1] != Pos::Pron {
                    head += 1;
                }
                np_heads.push(head);
                i = head + 1;
            } else {
                i += 1;
            }
        }
    }

    // ---- attach everything ----
    let mut prev_np_after_verb: Option<usize> = None;
    for i in 0..n {
        if i == root {
            continue;
        }
        match tags[i] {
            Pos::Det | Pos::Adj | Pos::Num => {
                if let Some(h) = np_head_right(tags, i + 1).filter(|&h| h != i) {
                    heads[i] = Some(h);
                    labels[i] = match tags[i] {
                        Pos::Det => DepLabel::Det,
                        Pos::Adj => DepLabel::Amod,
                        _ => DepLabel::Nummod,
                    };
                } else {
                    heads[i] = Some(root);
                    labels[i] = DepLabel::Dep;
                }
            }
            Pos::Noun | Pos::Propn | Pos::Pron => {
                if np_heads.binary_search(&i).is_ok() {
                    // An NP head: find its governor.
                    let preceded_by_adp = {
                        // Look left past NP-internal material for an ADP.
                        let mut j = i;
                        let mut found = false;
                        while j > 0 {
                            j -= 1;
                            match tags[j] {
                                Pos::Det | Pos::Adj | Pos::Num | Pos::Noun | Pos::Propn => continue,
                                Pos::Adp => {
                                    found = true;
                                    break;
                                }
                                _ => break,
                            }
                        }
                        found
                    };
                    if preceded_by_adp {
                        // PP: attach to nearest nominal-or-verb to the left
                        // of the preposition.
                        let gov = (0..i)
                            .rev()
                            .find(|&j| {
                                tags[j] == Pos::Verb
                                    || (tags[j].is_nominal() && np_heads.binary_search(&j).is_ok())
                            })
                            .filter(|&j| j != i)
                            .unwrap_or(root);
                        heads[i] = Some(if gov == i { root } else { gov });
                        labels[i] = DepLabel::Nmod;
                    } else if i < root {
                        heads[i] = Some(root);
                        labels[i] = DepLabel::Nsubj;
                    } else {
                        // After the root verb.
                        match prev_np_after_verb {
                            None => {
                                heads[i] = Some(root);
                                labels[i] = DepLabel::Obj;
                            }
                            Some(prev) => {
                                heads[i] = Some(prev);
                                // coordination if a CONJ or comma lies between
                                let coordinated =
                                    (prev + 1..i).any(|j| tags[j] == Pos::Conj || words[j] == ",");
                                labels[i] = if coordinated {
                                    DepLabel::Conj
                                } else {
                                    DepLabel::Nmod
                                };
                            }
                        }
                    }
                    if i > root {
                        prev_np_after_verb = Some(i);
                    }
                } else {
                    // Inside a noun run: compound to the run head.
                    let mut h = i;
                    while h + 1 < n && tags[h + 1].is_nominal() && tags[h + 1] != Pos::Pron {
                        h += 1;
                    }
                    heads[i] = Some(h);
                    labels[i] = DepLabel::Compound;
                }
            }
            Pos::Adp => {
                if let Some(h) = np_head_right(tags, i + 1).filter(|&h| h != i) {
                    heads[i] = Some(h);
                    labels[i] = DepLabel::Case;
                } else {
                    heads[i] = Some(root);
                    labels[i] = DepLabel::Dep;
                }
            }
            Pos::Adv => {
                let verb = (0..n)
                    .filter(|&j| tags[j] == Pos::Verb && j != i)
                    .min_by_key(|&j| i.abs_diff(j));
                heads[i] = Some(verb.unwrap_or(root));
                labels[i] = DepLabel::Advmod;
                if heads[i] == Some(i) {
                    heads[i] = Some(root);
                }
            }
            Pos::Conj => {
                if let Some(h) = np_head_right(tags, i + 1).filter(|&h| h != i) {
                    heads[i] = Some(h);
                    labels[i] = DepLabel::Cc;
                } else {
                    heads[i] = Some(root);
                    labels[i] = DepLabel::Cc;
                }
            }
            Pos::Punct => {
                heads[i] = Some(root);
                labels[i] = DepLabel::Punct;
            }
            Pos::Verb | Pos::Part | Pos::X => {
                heads[i] = Some(root);
                labels[i] = DepLabel::Dep;
            }
        }
        // Safety: no self-loops.
        if heads[i] == Some(i) {
            heads[i] = Some(root);
        }
    }

    // Break any residual cycle conservatively by re-rooting offenders.
    if !tree.is_forest_rooted() {
        for i in 0..n {
            if i != root {
                let mut cur = i;
                let mut steps = 0;
                while let Some(h) = tree.heads[cur] {
                    cur = h;
                    steps += 1;
                    if steps > n {
                        tree.heads[i] = Some(root);
                        tree.labels[i] = DepLabel::Dep;
                        break;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tagger::{RuleTagger, Tagger};
    use proptest::prelude::*;

    fn parse(sentence: &str) -> (Vec<String>, Vec<Pos>, DepTree) {
        let words: Vec<String> = thor_text::tokenize(sentence)
            .into_iter()
            .map(|t| t.text)
            .collect();
        let refs: Vec<&str> = words.iter().map(String::as_str).collect();
        let tags = RuleTagger::default().tag(&refs);
        let tree = parse_dependencies(&refs, &tags);
        (words, tags, tree)
    }

    #[test]
    fn fig3_running_example() {
        // "Tuberculosis generally damages the lungs"
        let (words, _tags, tree) = parse("Tuberculosis generally damages the lungs");
        let idx = |w: &str| words.iter().position(|x| x == w).unwrap();
        let damages = idx("damages");
        assert_eq!(tree.root(), Some(damages));
        assert_eq!(tree.heads[idx("Tuberculosis")], Some(damages));
        assert_eq!(tree.labels[idx("Tuberculosis")], DepLabel::Nsubj);
        assert_eq!(tree.heads[idx("lungs")], Some(damages));
        assert_eq!(tree.labels[idx("lungs")], DepLabel::Obj);
        assert_eq!(tree.heads[idx("the")], Some(idx("lungs")));
        assert_eq!(tree.labels[idx("the")], DepLabel::Det);
        assert_eq!(tree.labels[idx("generally")], DepLabel::Advmod);
    }

    #[test]
    fn compound_noun_run() {
        let (words, _t, tree) = parse("the brain tumor grows");
        let idx = |w: &str| words.iter().position(|x| x == w).unwrap();
        assert_eq!(tree.heads[idx("brain")], Some(idx("tumor")));
        assert_eq!(tree.labels[idx("brain")], DepLabel::Compound);
        assert_eq!(tree.labels[idx("tumor")], DepLabel::Nsubj);
    }

    #[test]
    fn prepositional_attachment() {
        let (words, _t, tree) = parse("it causes damage in the lungs");
        let idx = |w: &str| words.iter().position(|x| x == w).unwrap();
        assert_eq!(tree.labels[idx("in")], DepLabel::Case);
        assert_eq!(tree.heads[idx("in")], Some(idx("lungs")));
        assert_eq!(tree.labels[idx("lungs")], DepLabel::Nmod);
    }

    #[test]
    fn coordination_chain() {
        let (words, _t, tree) = parse("it causes headaches , dizziness and nausea");
        let idx = |w: &str| words.iter().position(|x| x == w).unwrap();
        assert_eq!(tree.labels[idx("headaches")], DepLabel::Obj);
        assert_eq!(tree.labels[idx("dizziness")], DepLabel::Conj);
        assert_eq!(tree.labels[idx("nausea")], DepLabel::Conj);
    }

    #[test]
    fn no_verb_sentence_roots_at_nominal() {
        let (words, _t, tree) = parse("severe hearing loss");
        let idx = |w: &str| words.iter().position(|x| x == w).unwrap();
        // Root is the first nominal ("hearing" or the run); tree is rooted.
        assert!(tree.is_forest_rooted());
        assert!(tree.root().is_some());
        let _ = idx; // silence if unused
    }

    #[test]
    fn empty_sentence() {
        let tree = parse_dependencies(&[], &[]);
        assert!(tree.is_empty());
        assert!(tree.is_forest_rooted());
    }

    proptest! {
        /// Any random tag sequence must yield a rooted, acyclic tree.
        #[test]
        fn always_rooted_and_acyclic(tags_idx in prop::collection::vec(0usize..13, 1..12)) {
            let tags: Vec<Pos> = tags_idx.iter().map(|&i| Pos::ALL[i]).collect();
            let words: Vec<String> = (0..tags.len()).map(|i| format!("w{i}")).collect();
            let refs: Vec<&str> = words.iter().map(String::as_str).collect();
            let tree = parse_dependencies(&refs, &tags);
            prop_assert!(tree.is_forest_rooted(), "tags {tags:?} produced a malformed tree");
            prop_assert_eq!(tree.heads.iter().filter(|h| h.is_none()).count(), 1);
        }
    }
}

//! A from-scratch Aho–Corasick multi-pattern string matcher: the
//! substring-search engine of the paper's **Baseline** ("exact
//! syntactic matching (Aho–Corasick algorithm) … It uses structured
//! data as patterns to build a dictionary or lexicon, which is then
//! further used to match all sub-strings from the text"), and of the
//! LM-SD tagger's weak-label projection. THOR itself never runs it.
//!
//! The implementation follows Aho & Corasick (CACM 1975): a byte-level
//! trie with BFS-computed failure links and merged output sets,
//! reporting all (overlapping) occurrences in a single pass. Matching
//! is `O(text + matches)`.

use std::collections::VecDeque;

/// A single pattern occurrence in the haystack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Match {
    /// Index of the matched pattern (insertion order in the builder).
    pub pattern: usize,
    /// Byte offset of the first byte of the occurrence.
    pub start: usize,
    /// Byte offset one past the last byte of the occurrence.
    pub end: usize,
}

/// Builder: collect patterns, then [`AhoCorasickBuilder::build`].
#[derive(Debug, Default)]
pub struct AhoCorasickBuilder {
    patterns: Vec<Vec<u8>>,
    case_insensitive: bool,
}

impl AhoCorasickBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold ASCII case during both construction and matching.
    pub fn ascii_case_insensitive(mut self, yes: bool) -> Self {
        self.case_insensitive = yes;
        self
    }

    /// Add one pattern. Empty patterns are ignored (they would match at
    /// every position).
    pub fn add_pattern(&mut self, pattern: impl AsRef<[u8]>) -> &mut Self {
        let p = pattern.as_ref();
        if !p.is_empty() {
            self.patterns.push(p.to_vec());
        }
        self
    }

    /// Number of patterns collected so far.
    pub fn pattern_count(&self) -> usize {
        self.patterns.len()
    }

    /// Add many patterns.
    pub fn add_patterns<I, P>(&mut self, patterns: I) -> &mut Self
    where
        I: IntoIterator<Item = P>,
        P: AsRef<[u8]>,
    {
        for p in patterns {
            self.add_pattern(p);
        }
        self
    }

    /// Construct the automaton.
    pub fn build(&self) -> AhoCorasick {
        let fold = |b: u8| {
            if self.case_insensitive {
                b.to_ascii_lowercase()
            } else {
                b
            }
        };

        // ---- goto (trie) ----
        let mut nodes: Vec<Node> = vec![Node::default()];
        for (pid, pat) in self.patterns.iter().enumerate() {
            let mut state = 0usize;
            for &byte in pat {
                let b = fold(byte);
                state = match nodes[state].edge(b) {
                    Ok(s) => s,
                    Err(at) => {
                        let new = nodes.len();
                        nodes.push(Node::default());
                        nodes[state].next.insert(at, (b, new));
                        new
                    }
                };
            }
            nodes[state].outputs.push(pid);
        }

        // ---- failure links (BFS) ----
        let mut queue: VecDeque<usize> = nodes[0].next.iter().map(|&(_, s)| s).collect();
        while let Some(state) = queue.pop_front() {
            for i in 0..nodes[state].next.len() {
                let (b, child) = nodes[state].next[i];
                // Follow failures of `state` until a node with a `b`
                // transition (or the root).
                let mut f = nodes[state].fail;
                loop {
                    if let Ok(t) = nodes[f].edge(b) {
                        if t != child {
                            nodes[child].fail = t;
                            break;
                        }
                    }
                    if f == 0 {
                        nodes[child].fail =
                            nodes[0].edge(b).ok().filter(|&t| t != child).unwrap_or(0);
                        break;
                    }
                    f = nodes[f].fail;
                }
                // Merge outputs from the failure target.
                let fail = nodes[child].fail;
                if !nodes[fail].outputs.is_empty() {
                    let fail_outputs = nodes[fail].outputs.clone();
                    nodes[child].outputs.extend(fail_outputs);
                }
                queue.push_back(child);
            }
        }

        // ---- flatten to CSR ----
        // Node indices were assigned in pattern-insertion order and the
        // BFS above finalizes fail/outputs independently of sibling
        // visit order, so this flattening is deterministic: the same
        // pattern list always yields byte-identical arrays.
        assert!(nodes.len() < u32::MAX as usize, "automaton too large");
        let mut edge_start: Vec<u32> = Vec::with_capacity(nodes.len() + 1);
        let mut edge_bytes: Vec<u8> = Vec::new();
        let mut edge_target: Vec<u32> = Vec::new();
        let mut fail: Vec<u32> = Vec::with_capacity(nodes.len());
        let mut out_start: Vec<u32> = Vec::with_capacity(nodes.len() + 1);
        let mut out_pattern: Vec<u32> = Vec::new();
        edge_start.push(0);
        out_start.push(0);
        for node in &nodes {
            for &(b, target) in &node.next {
                edge_bytes.push(b);
                edge_target.push(target as u32);
            }
            edge_start.push(edge_bytes.len() as u32);
            fail.push(node.fail as u32);
            // Output order is load-bearing (own patterns first, then the
            // fail chain's): it fixes match order within an end position.
            out_pattern.extend(node.outputs.iter().map(|&p| p as u32));
            out_start.push(out_pattern.len() as u32);
        }

        AhoCorasick {
            edge_start,
            edge_bytes,
            edge_target,
            fail,
            out_start,
            out_pattern,
            pattern_lens: self.patterns.iter().map(|p| p.len() as u32).collect(),
            case_insensitive: self.case_insensitive,
        }
    }
}

#[derive(Debug, Default, Clone)]
struct Node {
    /// Goto edges `(byte, target)`, sorted by byte.
    next: Vec<(u8, usize)>,
    fail: usize,
    outputs: Vec<usize>,
}

impl Node {
    /// The target of the edge on `b`, or where to insert it.
    fn edge(&self, b: u8) -> Result<usize, usize> {
        self.next
            .binary_search_by_key(&b, |&(byte, _)| byte)
            .map(|i| self.next[i].1)
    }
}

/// The built automaton in structure-of-arrays (CSR) form: per-node
/// edge ranges over sorted byte/target arrays, failure links, and
/// per-node output-pattern ranges. Flat arrays make the automaton
/// cache-friendly to traverse.
#[derive(Debug, Clone)]
pub struct AhoCorasick {
    /// Node `i`'s edges live at `edge_start[i] .. edge_start[i + 1]`.
    edge_start: Vec<u32>,
    /// Edge labels, sorted ascending within each node's range.
    edge_bytes: Vec<u8>,
    /// Edge targets, parallel to `edge_bytes`.
    edge_target: Vec<u32>,
    /// Failure link per node (root's is 0).
    fail: Vec<u32>,
    /// Node `i`'s outputs live at `out_start[i] .. out_start[i + 1]`.
    out_start: Vec<u32>,
    /// Pattern ids emitted at a node (own patterns, then fail chain's).
    out_pattern: Vec<u32>,
    /// Byte length of each pattern.
    pattern_lens: Vec<u32>,
    case_insensitive: bool,
}

impl AhoCorasick {
    /// Number of patterns in the dictionary.
    pub fn pattern_count(&self) -> usize {
        self.pattern_lens.len()
    }

    /// One goto/fail transition from `state` on (already case-folded)
    /// byte `b`.
    fn step(&self, mut state: usize, b: u8) -> usize {
        loop {
            let lo = self.edge_start[state] as usize;
            let hi = self.edge_start[state + 1] as usize;
            if let Ok(k) = self.edge_bytes[lo..hi].binary_search(&b) {
                return self.edge_target[lo + k] as usize;
            }
            if state == 0 {
                return 0;
            }
            state = self.fail[state] as usize;
        }
    }

    /// Find **all** (overlapping) occurrences of every pattern, in
    /// order of their end position.
    pub fn find_all(&self, haystack: impl AsRef<[u8]>) -> Vec<Match> {
        let haystack = haystack.as_ref();
        let fold = |b: u8| {
            if self.case_insensitive {
                b.to_ascii_lowercase()
            } else {
                b
            }
        };
        let mut matches = Vec::new();
        let mut state = 0usize;
        for (i, &byte) in haystack.iter().enumerate() {
            state = self.step(state, fold(byte));
            let lo = self.out_start[state] as usize;
            let hi = self.out_start[state + 1] as usize;
            for &pid in &self.out_pattern[lo..hi] {
                let len = self.pattern_lens[pid as usize] as usize;
                matches.push(Match {
                    pattern: pid as usize,
                    start: i + 1 - len,
                    end: i + 1,
                });
            }
        }
        matches
    }

    /// Like [`AhoCorasick::find_all`], but keeps only matches aligned on
    /// word boundaries (the Baseline extractor matches whole entities,
    /// not arbitrary substrings of words).
    pub fn find_words(&self, haystack: &str) -> Vec<Match> {
        let bytes = haystack.as_bytes();
        let is_word = |i: usize| -> bool {
            i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_')
        };
        self.find_all(haystack)
            .into_iter()
            .filter(|m| {
                let left_ok = m.start == 0 || !is_word(m.start - 1) || !is_word(m.start);
                let right_ok = m.end == bytes.len() || !is_word(m.end) || !is_word(m.end - 1);
                left_ok && right_ok
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn build(patterns: &[&str]) -> AhoCorasick {
        let mut b = AhoCorasickBuilder::new();
        b.add_patterns(patterns);
        b.build()
    }

    /// Reference implementation: naive multi-pattern scan.
    fn naive(patterns: &[&str], haystack: &str) -> Vec<Match> {
        let hb = haystack.as_bytes();
        let mut out = Vec::new();
        for i in 0..hb.len() {
            for (pid, p) in patterns.iter().enumerate() {
                let pb = p.as_bytes();
                if pb.is_empty() {
                    continue;
                }
                if i + pb.len() <= hb.len() && &hb[i..i + pb.len()] == pb {
                    out.push(Match {
                        pattern: pid,
                        start: i,
                        end: i + pb.len(),
                    });
                }
            }
        }
        out
    }

    fn sorted(mut m: Vec<Match>) -> Vec<Match> {
        m.sort();
        m
    }

    #[test]
    fn classic_example() {
        // The canonical he/she/his/hers example from the 1975 paper.
        let ac = build(&["he", "she", "his", "hers"]);
        let m = ac.find_all("ushers");
        let found: Vec<(usize, usize, usize)> =
            m.iter().map(|m| (m.pattern, m.start, m.end)).collect();
        assert!(found.contains(&(1, 1, 4))); // she
        assert!(found.contains(&(0, 2, 4))); // he
        assert!(found.contains(&(3, 2, 6))); // hers
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn overlapping_matches_reported() {
        let ac = build(&["aa"]);
        let m = ac.find_all("aaaa");
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn no_patterns_no_matches() {
        let ac = AhoCorasickBuilder::new().build();
        assert!(ac.find_all("anything").is_empty());
        assert_eq!(ac.pattern_count(), 0);
    }

    #[test]
    fn empty_patterns_ignored() {
        let mut b = AhoCorasickBuilder::new();
        b.add_pattern("");
        b.add_pattern("x");
        let ac = b.build();
        assert_eq!(ac.pattern_count(), 1);
        assert_eq!(ac.find_all("xx").len(), 2);
    }

    #[test]
    fn case_insensitive() {
        let mut b = AhoCorasickBuilder::new().ascii_case_insensitive(true);
        b.add_pattern("Tuberculosis");
        let ac = b.build();
        assert_eq!(ac.find_all("TUBERCULOSIS and tuberculosis").len(), 2);
    }

    #[test]
    fn word_boundary_filter() {
        let mut b = AhoCorasickBuilder::new();
        b.add_pattern("ear");
        let ac = b.build();
        // "ear" inside "hearing" is not word-aligned.
        assert!(ac.find_words("hearing loss").is_empty());
        assert_eq!(ac.find_words("the ear hurts").len(), 1);
        assert_eq!(ac.find_words("ear").len(), 1);
    }

    #[test]
    fn multiword_patterns() {
        let ac = build(&["nervous system", "hearing loss"]);
        let m = ac.find_words("damage to the nervous system causes hearing loss");
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn pattern_is_prefix_of_another() {
        let ac = build(&["can", "cancer", "cancerous"]);
        let m = ac.find_all("cancerous");
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn unicode_haystack_byte_offsets() {
        let ac = build(&["nerf"]);
        let hay = "café nerf naïve";
        for m in ac.find_all(hay) {
            assert_eq!(&hay[m.start..m.end], "nerf");
        }
    }

    proptest! {
        #[test]
        fn agrees_with_naive_search(
            patterns in prop::collection::vec("[ab]{1,4}", 1..6),
            haystack in "[ab]{0,40}",
        ) {
            let refs: Vec<&str> = patterns.iter().map(String::as_str).collect();
            let ac = build(&refs);
            prop_assert_eq!(sorted(ac.find_all(&haystack)), sorted(naive(&refs, &haystack)));
        }

        #[test]
        fn agrees_with_naive_search_wider_alphabet(
            patterns in prop::collection::vec("[a-e ]{1,6}", 1..8),
            haystack in "[a-e ]{0,60}",
        ) {
            let refs: Vec<&str> = patterns.iter().map(String::as_str).collect();
            let ac = build(&refs);
            prop_assert_eq!(sorted(ac.find_all(&haystack)), sorted(naive(&refs, &haystack)));
        }

        #[test]
        fn match_spans_valid(
            patterns in prop::collection::vec("[a-c]{1,5}", 1..5),
            haystack in "[a-c]{0,30}",
        ) {
            let refs: Vec<&str> = patterns.iter().map(String::as_str).collect();
            let ac = build(&refs);
            for m in ac.find_all(&haystack) {
                prop_assert!(m.end <= haystack.len());
                prop_assert_eq!(&haystack[m.start..m.end], refs[m.pattern]);
            }
        }
    }
}

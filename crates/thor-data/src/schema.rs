//! Concept-oriented schemas.
//!
//! "We consider a concept-oriented *schema*, defined as a collection of
//! concepts 𝒞, among which one concept, termed the *subject concept*
//! C* ∈ 𝒞 plays the role of the primary key."

use std::fmt;

/// A concept — an idea, category, or class of things (`Disease`,
/// `Anatomy`, …). Concept names are compared case-insensitively but keep
/// their display form.
#[derive(Debug, Clone, Eq)]
pub struct Concept(String);

impl Concept {
    /// Create a concept with the given display name.
    pub fn new(name: impl Into<String>) -> Self {
        Concept(name.into())
    }

    /// Display name.
    pub fn name(&self) -> &str {
        &self.0
    }

    /// Canonical (lowercase) form used for comparisons.
    pub fn key(&self) -> String {
        self.0.to_lowercase()
    }

    /// Does `name` name this concept — `name.to_lowercase() ==
    /// self.key()` — without allocating when both are ASCII?
    pub fn matches(&self, name: &str) -> bool {
        if self.0.is_ascii() && name.is_ascii() {
            self.0.eq_ignore_ascii_case(name)
        } else {
            name.to_lowercase() == self.key()
        }
    }
}

impl PartialEq for Concept {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl std::hash::Hash for Concept {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

impl fmt::Display for Concept {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Concept {
    fn from(s: &str) -> Self {
        Concept::new(s)
    }
}

impl From<String> for Concept {
    fn from(s: String) -> Self {
        Concept::new(s)
    }
}

impl From<&String> for Concept {
    fn from(s: &String) -> Self {
        Concept::new(s.clone())
    }
}

/// A schema: an ordered collection of concepts with a designated subject.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    concepts: Vec<Concept>,
    subject: usize,
}

impl Schema {
    /// Build a schema. The subject concept must be a member of
    /// `concepts`.
    ///
    /// # Panics
    /// If `concepts` is empty, contains duplicates, or the subject is
    /// not among them.
    pub fn new<C: Into<Concept>>(concepts: impl IntoIterator<Item = C>, subject: &str) -> Self {
        let concepts: Vec<Concept> = concepts.into_iter().map(Into::into).collect();
        assert!(
            !concepts.is_empty(),
            "schema must have at least one concept"
        );
        let mut seen = std::collections::HashSet::new();
        for c in &concepts {
            assert!(seen.insert(c.key()), "duplicate concept `{c}`");
        }
        let subject_key = subject.to_lowercase();
        let subject = concepts
            .iter()
            .position(|c| c.key() == subject_key)
            .unwrap_or_else(|| panic!("subject concept `{subject}` not in schema"));
        Self { concepts, subject }
    }

    /// The concepts, in schema order.
    pub fn concepts(&self) -> &[Concept] {
        &self.concepts
    }

    /// Number of concepts.
    pub fn arity(&self) -> usize {
        self.concepts.len()
    }

    /// The subject concept `C*`.
    pub fn subject(&self) -> &Concept {
        &self.concepts[self.subject]
    }

    /// Index of the subject concept.
    pub fn subject_index(&self) -> usize {
        self.subject
    }

    /// Index of a concept by (case-insensitive) name.
    pub fn index_of(&self, concept: &str) -> Option<usize> {
        self.concepts.iter().position(|c| c.matches(concept))
    }

    /// Merge two schemas (union of concepts, preserving `self`'s order
    /// then appending new ones). Subjects must agree.
    ///
    /// # Panics
    /// If the subject concepts differ.
    pub fn union(&self, other: &Schema) -> Schema {
        assert_eq!(
            self.subject().key(),
            other.subject().key(),
            "cannot union schemas with different subject concepts"
        );
        let mut concepts = self.concepts.clone();
        for c in &other.concepts {
            if !concepts.iter().any(|x| x == c) {
                concepts.push(c.clone());
            }
        }
        let subject_name = self.subject().name().to_string();
        Schema::new(concepts, &subject_name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disease_schema() -> Schema {
        Schema::new(
            ["Disease", "Anatomy", "Complication", "Medicine"],
            "Disease",
        )
    }

    #[test]
    fn construction_and_accessors() {
        let s = disease_schema();
        assert_eq!(s.arity(), 4);
        assert_eq!(s.subject().name(), "Disease");
        assert_eq!(s.subject_index(), 0);
        assert_eq!(s.index_of("anatomy"), Some(1));
        assert_eq!(s.index_of("Anatomy"), Some(1));
        assert_eq!(s.index_of("nope"), None);
    }

    #[test]
    #[should_panic(expected = "not in schema")]
    fn subject_must_exist() {
        Schema::new(["A", "B"], "C");
    }

    #[test]
    #[should_panic(expected = "duplicate concept")]
    fn duplicates_rejected() {
        Schema::new(["A", "a"], "A");
    }

    #[test]
    fn union_of_schemas() {
        let a = Schema::new(["Disease", "Anatomy"], "Disease");
        let b = Schema::new(["Disease", "Medicine", "Anatomy"], "Disease");
        let u = a.union(&b);
        let names: Vec<&str> = u.concepts().iter().map(Concept::name).collect();
        assert_eq!(names, ["Disease", "Anatomy", "Medicine"]);
        assert_eq!(u.subject().name(), "Disease");
    }

    #[test]
    #[should_panic(expected = "different subject")]
    fn union_requires_same_subject() {
        let a = Schema::new(["Disease", "Anatomy"], "Disease");
        let b = Schema::new(["Name", "Skills"], "Name");
        a.union(&b);
    }

    #[test]
    fn concept_case_insensitive_eq() {
        assert_eq!(Concept::new("Anatomy"), Concept::new("anatomy"));
        assert_ne!(Concept::new("Anatomy"), Concept::new("Cause"));
    }
}

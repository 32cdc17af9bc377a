//! Strongly-typed identifiers for HyGraph elements.
//!
//! All identifiers are thin `u64` newtypes so they are `Copy`, hashable,
//! orderable and cheap to store in adjacency lists and indexes. The
//! distinct types prevent accidentally using a vertex id where an edge id
//! is expected — a class of bug that is otherwise easy to introduce in a
//! model with four parallel id spaces (V, E, S, TS).

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u64);

        impl $name {
            /// Creates an identifier from a raw index.
            #[inline]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw numeric value.
            #[inline]
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// Returns the identifier as a `usize` index (for dense arrays).
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u64> for $name {
            #[inline]
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }

        impl From<usize> for $name {
            #[inline]
            fn from(raw: usize) -> Self {
                Self(raw as u64)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifier of a vertex (property-graph or time-series vertex).
    VertexId,
    "v"
);
id_type!(
    /// Identifier of an edge (property-graph or time-series edge).
    EdgeId,
    "e"
);
id_type!(
    /// Identifier of a logical subgraph (the set S of the model).
    SubgraphId,
    "s"
);
id_type!(
    /// Identifier of a (multivariate) time series (the set TS of the model).
    SeriesId,
    "ts"
);

/// A label attached to vertices, edges or subgraphs (the function λ).
///
/// Labels are interned-ish small strings; equality and hashing are on the
/// string content. `Label` is deliberately a distinct type from
/// [`PropertyKey`] so that APIs cannot confuse the two namespaces.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(pub String);

impl Label {
    /// Creates a label from anything string-like.
    pub fn new(s: impl Into<String>) -> Self {
        Self(s.into())
    }

    /// The label text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// Labels compare, order and hash exactly as their text does, so maps
/// keyed by `Label` can be probed with a `&str`.
impl std::borrow::Borrow<str> for Label {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Label {
    fn from(s: &str) -> Self {
        Self(s.to_owned())
    }
}

impl From<String> for Label {
    fn from(s: String) -> Self {
        Self(s)
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, ":{}", self.0)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A property key (the set K of the model).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PropertyKey(pub String);

impl PropertyKey {
    /// Creates a property key from anything string-like.
    pub fn new(s: impl Into<String>) -> Self {
        Self(s.into())
    }

    /// The key text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// Keys compare, order and hash exactly as their text does, so maps
/// keyed by `PropertyKey` can be probed with a `&str`.
impl std::borrow::Borrow<str> for PropertyKey {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for PropertyKey {
    fn from(s: &str) -> Self {
        Self(s.to_owned())
    }
}

impl From<String> for PropertyKey {
    fn from(s: String) -> Self {
        Self(s)
    }
}

impl fmt::Debug for PropertyKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, ".{}", self.0)
    }
}

impl fmt::Display for PropertyKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn id_roundtrip() {
        let v = VertexId::new(42);
        assert_eq!(v.raw(), 42);
        assert_eq!(v.index(), 42);
        assert_eq!(VertexId::from(42u64), v);
        assert_eq!(VertexId::from(42usize), v);
    }

    #[test]
    fn id_ordering_and_hash() {
        let mut set = HashSet::new();
        set.insert(EdgeId::new(1));
        set.insert(EdgeId::new(1));
        set.insert(EdgeId::new(2));
        assert_eq!(set.len(), 2);
        assert!(EdgeId::new(1) < EdgeId::new(2));
    }

    #[test]
    fn id_display_prefixes() {
        assert_eq!(VertexId::new(7).to_string(), "v7");
        assert_eq!(EdgeId::new(7).to_string(), "e7");
        assert_eq!(SubgraphId::new(7).to_string(), "s7");
        assert_eq!(SeriesId::new(7).to_string(), "ts7");
    }

    #[test]
    fn label_and_key_are_distinct_types() {
        let l = Label::new("User");
        let k = PropertyKey::new("name");
        assert_eq!(l.as_str(), "User");
        assert_eq!(k.as_str(), "name");
        assert_eq!(format!("{l:?}"), ":User");
        assert_eq!(format!("{k:?}"), ".name");
    }

    #[test]
    fn label_from_string_variants() {
        assert_eq!(Label::from("A"), Label::new(String::from("A")));
        assert_eq!(PropertyKey::from("k"), PropertyKey::new("k"));
    }
}

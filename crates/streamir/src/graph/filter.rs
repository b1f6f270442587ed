//! User-defined filters.

use crate::ir::WorkFunction;

/// A named filter: the leaf of hierarchical stream composition.
///
/// User filters have at most one input and one output port; fan-out and
/// fan-in are expressed with split-join constructs, whose splitter/joiner
/// nodes are generated during flattening (they are the only multi-port
/// nodes in a [`super::FlatGraph`]).
///
/// # Examples
///
/// ```
/// use streamir::graph::FilterSpec;
/// use streamir::ir::{identity, ElemTy};
///
/// let f = FilterSpec::new("pass", identity(ElemTy::F32));
/// assert_eq!(f.name(), "pass");
/// assert_eq!(f.work().pop_rate(0), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FilterSpec {
    name: String,
    work: WorkFunction,
}

impl FilterSpec {
    /// Creates a filter from a name and a validated work function.
    #[must_use]
    pub fn new(name: impl Into<String>, work: WorkFunction) -> FilterSpec {
        FilterSpec {
            name: name.into(),
            work,
        }
    }

    /// The filter's diagnostic name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The filter's work function.
    #[must_use]
    pub fn work(&self) -> &WorkFunction {
        &self.work
    }
}

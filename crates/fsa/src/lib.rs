//! Finite-state automaton toolkit (the paper's OpenFST substitute).
//!
//! Provides exactly the operations Alg. 1 and Alg. 2 of *Specialization
//! Slicing* need, over an interned `u32` symbol alphabet shared with the
//! pushdown-system layer:
//!
//! * [`Nfa`] with ε-transitions; [`Dfa`] (partial, sparse);
//! * `reverse`, `determinize` (subset construction), `minimize` (sparse
//!   Hopcroft), ε-removal;
//! * product `intersect`, `difference` (`A ∩ ¬B` without materializing the
//!   complement — needed because SDG alphabets are large), language
//!   [`ops::equivalent`], emptiness;
//! * the [`mod@mrd`] pipeline: *minimal reverse-deterministic* automaton
//!   construction (`reverse ∘ minimize ∘ determinize ∘ reverse` plus
//!   ε-removal), which is the heart of the specialization-slicing algorithm;
//! * [`Transposed`]: an automaton in masked CSR form, whose member views
//!   (trimmed without copying) feed the MRD pipeline directly.
//!
//! # Example
//!
//! ```
//! use specslice_fsa::{Nfa, Symbol};
//!
//! // L = a(bb)* : the paper's "(C3 C3)* C1"-style context language shape.
//! let a = Symbol(0);
//! let b = Symbol(1);
//! let mut n = Nfa::new();
//! let s0 = n.initial();
//! let s1 = n.add_state();
//! let s2 = n.add_state();
//! n.add_transition(s0, Some(a), s1);
//! n.add_transition(s1, Some(b), s2);
//! n.add_transition(s2, Some(b), s1);
//! n.set_final(s1);
//! assert!(n.accepts(&[a]));
//! assert!(n.accepts(&[a, b, b]));
//! assert!(!n.accepts(&[a, b]));
//! ```

pub mod dfa;
pub mod hash;
pub mod hopcroft;
pub mod mrd;
pub mod nfa;
pub mod ops;
pub mod transposed;

pub use dfa::Dfa;
pub use hash::{FxHashMap, FxHashSet};
pub use mrd::{canonicalize_mrd, is_reverse_deterministic, mrd, mrd_transposed};
pub use nfa::{Nfa, StateId};
pub use transposed::{Transposed, TransposedView};

use std::fmt;

/// An interned alphabet symbol.
///
/// The slicing pipeline uses one symbol per SDG vertex and one per call site;
/// the mapping lives in `specslice::encode`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The raw id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "y{}", self.0)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "y{}", self.0)
    }
}

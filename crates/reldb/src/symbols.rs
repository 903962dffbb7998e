//! Value interning: dense `u32` symbols for the tuple executor.
//!
//! The hash-join executor used to carry heap `Value`s (and hash freshly
//! allocated `key_repr` strings) through every probe. Interning maps each
//! distinct [`Value`] appearing in a skeleton to a dense [`Sym`] once at
//! load; from then on the whole join pipeline — index keys, register
//! tuples, semi-join membership tests — moves 4-byte symbols around and
//! compares them with a single integer comparison.
//!
//! Symbol equality coincides exactly with [`Value`] equality: the interner
//! deduplicates through `Value`'s own `Eq`/`Hash`, so two values receive
//! the same symbol iff they compare equal (including the cross-type
//! `Int(2) == Float(2.0)` coercion). Resolution returns the first-interned
//! representative of the equivalence class.

use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A dense interned symbol standing for one distinct [`Value`].
///
/// Symbols are only meaningful relative to the [`SymbolTable`] that issued
/// them; they are never reused or remapped while the table lives (the table
/// is append-only), so a symbol obtained once stays valid for the lifetime
/// of its skeleton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Sym(u32);

impl Sym {
    /// A sentinel symbol used for register slots that have not been written
    /// yet. Never issued by a [`SymbolTable`].
    pub const UNBOUND: Sym = Sym(u32::MAX);

    /// The dense index of this symbol (its position in the issuing table).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The symbol with dense index `index`: the inverse of
    /// [`Sym::index`], for callers that store symbols as plain integers.
    /// Only meaningful for an index the table actually issued.
    pub fn from_index(index: usize) -> Sym {
        Sym(u32::try_from(index).expect("symbol index fits u32"))
    }
}

/// An append-only intern table mapping distinct [`Value`]s to dense
/// [`Sym`]s and back.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SymbolTable {
    values: Vec<Value>,
    lookup: HashMap<Value, Sym>,
}

impl SymbolTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `value`, returning its symbol (allocating one on first sight).
    pub fn intern(&mut self, value: &Value) -> Sym {
        if let Some(&sym) = self.lookup.get(value) {
            return sym;
        }
        let index = u32::try_from(self.values.len()).expect("more than u32::MAX distinct values");
        // Sym::UNBOUND (u32::MAX) is reserved as the executor's
        // unwritten-register sentinel and must never be issued.
        assert!(index < u32::MAX, "symbol space exhausted");
        let sym = Sym(index);
        self.values.push(value.clone());
        self.lookup.insert(value.clone(), sym);
        sym
    }

    /// The symbol of `value`, if it has been interned.
    pub fn get(&self, value: &Value) -> Option<Sym> {
        self.lookup.get(value).copied()
    }

    /// Resolve a symbol back to (the first-interned representative of) its
    /// value.
    ///
    /// # Panics
    /// Panics if `sym` was not issued by this table (including
    /// [`Sym::UNBOUND`]).
    pub fn value(&self, sym: Sym) -> &Value {
        &self.values[sym.index()]
    }

    /// Number of distinct interned values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// A fast, deterministic hasher for symbol-derived keys (FxHash-style
/// multiply-rotate). Symbols are small dense integers, so the default
/// SipHash's DoS resistance buys nothing here while costing a large share
/// of every index probe; this hasher is a handful of ALU ops.
///
/// Only used for probe-only maps (buckets, memo tables, admit sets) whose
/// iteration order is never observed, so the weaker distribution cannot
/// leak nondeterminism into results.
#[derive(Debug, Default, Clone, Copy)]
pub struct SymHasher(u64);

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl std::hash::Hasher for SymHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(5) ^ u64::from(b)).wrapping_mul(SEED);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(n)).wrapping_mul(SEED);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(SEED);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u32(u32::from(n));
    }
}

/// Build-hasher for [`SymHasher`]-keyed maps and sets.
pub type SymBuildHasher = std::hash::BuildHasherDefault<SymHasher>;

/// A `HashMap` keyed by symbols (or small symbol tuples) with the fast
/// deterministic hasher.
pub type SymMap<K, V> = std::collections::HashMap<K, V, SymBuildHasher>;

/// A `HashSet` of symbols (or small symbol tuples) with the fast
/// deterministic hasher.
pub type SymSet<K> = std::collections::HashSet<K, SymBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut t = SymbolTable::new();
        let a = t.intern(&Value::from("Bob"));
        let b = t.intern(&Value::from("Eva"));
        let a2 = t.intern(&Value::from("Bob"));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(t.value(a), &Value::from("Bob"));
        assert_eq!(t.get(&Value::from("Eva")), Some(b));
        assert_eq!(t.get(&Value::from("Ghost")), None);
    }

    #[test]
    fn symbol_equality_matches_value_equality() {
        // Int(2) == Float(2.0) per Value::eq, so they share a symbol and
        // resolve to the first-interned representative.
        let mut t = SymbolTable::new();
        let i = t.intern(&Value::Int(2));
        let f = t.intern(&Value::Float(2.0));
        assert_eq!(i, f);
        assert_eq!(t.value(f), &Value::Int(2));
        // Distinct floats (bitwise) get distinct symbols.
        let nan1 = t.intern(&Value::Float(f64::NAN));
        let nan2 = t.intern(&Value::Float(f64::NAN));
        assert_eq!(nan1, nan2, "identical bit patterns intern identically");
    }

    #[test]
    fn unbound_sentinel_is_never_issued() {
        let mut t = SymbolTable::new();
        let s = t.intern(&Value::Null);
        assert_ne!(s, Sym::UNBOUND);
    }
}

//! Attribute storage addressed by skeleton row or interned symbols.
//!
//! An [`crate::Instance`] stores each attribute function as one column,
//! the copy-on-write unit of an epoch:
//!
//! * an attribute of an **entity** class is a column aligned to the class's
//!   rows ([`Skeleton::entity_syms`], the key symbols in row order): one
//!   attribute `Value` per row plus a presence bitmap. Entity rows are
//!   append-only, so a row's cell never moves;
//! * an attribute of a **relationship** is a map from its tuple's interned
//!   symbols to the value (tuple rows shift on deletion, symbols do not).
//!
//! Neither form keys anything on heap `Value`s, and keys are read back
//! from the skeleton's interner. The one exception is
//! *orphan* cells: [`crate::Instance::set_attribute`] accepts a key that is
//! not (yet) a unit of the subject class, and such a cell stays readable by
//! key from an ordered side map until its unit is added to the skeleton, at
//! which point it moves into the column. A unit therefore never has an
//! orphan cell, so reads of units never consult the side map.

use crate::skeleton::{Skeleton, UnitKey};
use crate::symbols::{Sym, SymMap, SymbolTable};
use crate::value::{fnv1a, Value, FNV_OFFSET};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// The fingerprint hash of one key component: FNV-1a over its canonical
/// bytes (see [`Value::fold_key_bytes`]).
pub(crate) fn component_hash(value: &Value) -> u64 {
    let mut h = FNV_OFFSET;
    value.fold_key_bytes(&mut |bytes| fnv1a(&mut h, bytes));
    h
}

/// The fingerprint hash of a unit key, from its components' hashes: the
/// state every fingerprint entry of a cell with this key starts from (see
/// [`crate::Instance::fingerprint`]).
pub(crate) fn key_hash(components: impl IntoIterator<Item = u64>) -> u64 {
    components.into_iter().fold(FNV_OFFSET, |h, c| {
        (h ^ c).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The side-map key of an orphan cell keyed `key`: each component's
/// [`Value::fold_eq_bytes`] rendering, length-prefixed. `Value`-equal keys
/// give equal bytes, so a lookup finds the bucket holding every cell that
/// may equal `key`; the bucket is then searched with `Value` equality.
fn orphan_key<'v>(key: impl IntoIterator<Item = &'v Value>) -> Box<[u8]> {
    let mut bytes = Vec::new();
    for value in key {
        let start = bytes.len();
        bytes.extend_from_slice(&[0; 4]);
        value.fold_eq_bytes(&mut |b| bytes.extend_from_slice(b));
        let len = u32::try_from(bytes.len() - start - 4).expect("key component below 4 GiB");
        bytes[start..start + 4].copy_from_slice(&len.to_le_bytes());
    }
    bytes.into()
}

/// Cells whose keys are not units, grouped by [`orphan_key`]. A bucket
/// holds more than one cell only for distinct keys with equal renderings
/// (integers beyond 2^53 that round to the same float).
type Orphans = BTreeMap<Box<[u8]>, Vec<(UnitKey, Value)>>;

/// Where one cell of an [`AttrColumn`] lives.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CellAddr {
    /// Row of the subject entity class.
    Row(usize),
    /// Interned tuple of the subject relationship.
    Tuple(Box<[Sym]>),
    /// A key that is not a unit of the subject class.
    Orphan,
}

/// The stored cells of one attribute function.
#[derive(Debug, Clone, Default)]
pub(crate) struct AttrColumn {
    /// The predicate the attribute attaches to.
    subject: String,
    /// Whether `subject` is an entity class (else a relationship).
    entity_subject: bool,
    /// Entity subject: the value of each class row (`Value::Null` where no
    /// cell is stored), grown on demand to the highest row written.
    values: Vec<Value>,
    /// Entity subject: presence bits aligned with `values`.
    present: Vec<u64>,
    /// Relationship subject: cells keyed by the tuple's interned symbols.
    tuples: SymMap<Box<[Sym]>, Value>,
    /// Cells whose key is not a unit of the subject class. Empty on every
    /// generated dataset.
    orphans: Orphans,
}

impl AttrColumn {
    /// An empty column of an attribute of `subject`, an entity class when
    /// `entity_subject` holds, else a relationship.
    pub(crate) fn new(subject: &str, entity_subject: bool) -> Self {
        Self {
            subject: subject.to_string(),
            entity_subject,
            ..Self::default()
        }
    }

    /// The predicate the attribute attaches to.
    pub(crate) fn subject(&self) -> &str {
        &self.subject
    }

    /// The subject entity class, or `None` for a relationship subject.
    pub(crate) fn entity(&self) -> Option<&str> {
        self.entity_subject.then_some(self.subject.as_str())
    }

    /// Where the cell of `key` lives (or would live) in this column.
    pub(crate) fn locate(&self, skeleton: &Skeleton, key: &[Value]) -> CellAddr {
        let rel = self.subject.as_str();
        match self.entity() {
            Some(class) => match key {
                [k] => skeleton
                    .entity_row(class, k)
                    .map_or(CellAddr::Orphan, CellAddr::Row),
                _ => CellAddr::Orphan,
            },
            None => {
                let interner = skeleton.interner();
                let syms: Option<Box<[Sym]>> = key.iter().map(|v| interner.get(v)).collect();
                match syms {
                    // A tuple that was deleted keeps its cell under its
                    // symbols, so such a key still addresses that cell.
                    Some(syms)
                        if self.tuples.contains_key(&syms)
                            || skeleton.has_relationship_syms(rel, &syms) =>
                    {
                        CellAddr::Tuple(syms)
                    }
                    _ => CellAddr::Orphan,
                }
            }
        }
    }

    fn is_present(&self, row: usize) -> bool {
        self.present
            .get(row / 64)
            .is_some_and(|w| w & (1u64 << (row % 64)) != 0)
    }

    /// The cell at `addr`; `key` is only consulted for orphans.
    pub(crate) fn get(&self, addr: &CellAddr, key: &[Value]) -> Option<&Value> {
        match addr {
            CellAddr::Row(row) => self.at_row(*row),
            CellAddr::Tuple(syms) => self.tuples.get(syms),
            CellAddr::Orphan => self.orphan(key),
        }
    }

    /// The cell of entity row `row`.
    pub(crate) fn at_row(&self, row: usize) -> Option<&Value> {
        self.is_present(row).then(|| &self.values[row])
    }

    /// The orphan cell keyed `key`.
    fn orphan(&self, key: &[Value]) -> Option<&Value> {
        self.orphan_in(&orphan_key(key), |k| k == key)
    }

    /// The orphan cell in bucket `bucket` whose key `matches`.
    fn orphan_in(&self, bucket: &[u8], matches: impl Fn(&[Value]) -> bool) -> Option<&Value> {
        self.orphans
            .get(bucket)?
            .iter()
            .find(|(k, _)| matches(k))
            .map(|(_, v)| v)
    }

    /// Store `value` at `addr` (for `key`), returning the previous value.
    pub(crate) fn set(&mut self, addr: CellAddr, key: &[Value], value: Value) -> Option<Value> {
        match addr {
            CellAddr::Row(row) => {
                if row >= self.values.len() {
                    self.values.resize(row + 1, Value::Null);
                    self.present.resize(self.values.len().div_ceil(64), 0);
                }
                let old = std::mem::replace(&mut self.values[row], value);
                let word = &mut self.present[row / 64];
                let bit = 1u64 << (row % 64);
                let was = *word & bit != 0;
                *word |= bit;
                was.then_some(old)
            }
            CellAddr::Tuple(syms) => self.tuples.insert(syms, value),
            CellAddr::Orphan => {
                let bucket = self.orphans.entry(orphan_key(key)).or_default();
                match bucket.iter_mut().find(|(k, _)| k == key) {
                    Some((_, v)) => Some(std::mem::replace(v, value)),
                    None => {
                        bucket.push((key.to_vec(), value));
                        None
                    }
                }
            }
        }
    }

    /// Remove the cell at `addr`, returning its value.
    pub(crate) fn remove(&mut self, addr: &CellAddr, key: &[Value]) -> Option<Value> {
        match addr {
            CellAddr::Row(row) => {
                if !self.is_present(*row) {
                    return None;
                }
                self.present[row / 64] &= !(1u64 << (row % 64));
                Some(std::mem::replace(&mut self.values[*row], Value::Null))
            }
            CellAddr::Tuple(syms) => self.tuples.remove(syms),
            CellAddr::Orphan => self.take_orphan(key).map(|(_, v)| v),
        }
    }

    /// Remove the orphan cell keyed `key`, returning its stored key and
    /// value.
    fn take_orphan(&mut self, key: &[Value]) -> Option<(UnitKey, Value)> {
        let bucket_key = orphan_key(key);
        let bucket = self.orphans.get_mut(&bucket_key)?;
        let i = bucket.iter().position(|(k, _)| k == key)?;
        let cell = bucket.swap_remove(i);
        if bucket.is_empty() {
            self.orphans.remove(&bucket_key);
        }
        Some(cell)
    }

    /// Whether any orphan cell is waiting for its unit.
    pub(crate) fn has_orphans(&self) -> bool {
        !self.orphans.is_empty()
    }

    /// Move the orphan cell keyed `key`, if any, to `addr` (its unit was
    /// just added to the skeleton).
    pub(crate) fn adopt(&mut self, key: &[Value], addr: CellAddr) {
        if let Some((key, value)) = self.take_orphan(key) {
            self.set(addr, &key, value);
        }
    }

    /// Number of stored cells.
    pub(crate) fn len(&self) -> usize {
        let rows: usize = self.present.iter().map(|w| w.count_ones() as usize).sum();
        rows + self.tuples.len() + self.orphans.values().map(Vec::len).sum::<usize>()
    }

    /// Every stored cell with its key: entity rows in row order (keys
    /// borrowed from the skeleton), then relationship cells, then orphans
    /// in side-map order.
    pub(crate) fn cells<'a>(
        &'a self,
        skeleton: &'a Skeleton,
    ) -> impl Iterator<Item = (Cow<'a, [Value]>, &'a Value)> + 'a {
        let keys = self
            .entity()
            .map_or(&[][..], |class| skeleton.entity_syms(class));
        let interner = skeleton.interner();
        let rows = (0..self.values.len())
            .filter(|&row| self.is_present(row))
            .map(move |row| {
                (
                    Cow::Borrowed(std::slice::from_ref(interner.value(keys[row]))),
                    &self.values[row],
                )
            });
        let tuples = self.tuples.iter().map(move |(syms, v)| {
            let key: UnitKey = syms.iter().map(|&s| interner.value(s).clone()).collect();
            (Cow::Owned(key), v)
        });
        let orphans = self
            .orphans
            .values()
            .flatten()
            .map(|(k, v)| (Cow::Borrowed(k.as_slice()), v));
        rows.chain(tuples).chain(orphans)
    }

    /// Feed every stored cell to `f` as `(key_hash of its key, value)`.
    /// `sym_hashes` holds the component hash of every skeleton symbol and
    /// `row_hashes` the key hashes of the subject class's rows, so a scan
    /// hashes each key component once, not once per cell.
    pub(crate) fn fold_cells(
        &self,
        sym_hashes: &[u64],
        row_hashes: &[u64],
        mut f: impl FnMut(u64, &Value),
    ) {
        for (row, value) in self.values.iter().enumerate() {
            if self.is_present(row) {
                f(row_hashes[row], value);
            }
        }
        for (syms, value) in &self.tuples {
            f(key_hash(syms.iter().map(|s| sym_hashes[s.index()])), value);
        }
        for (key, value) in self.orphans.values().flatten() {
            f(key_hash(key.iter().map(component_hash)), value);
        }
    }
}

/// A read-only view of one attribute's cells, resolved once so that
/// per-unit reads by skeleton row or interned symbols do no name lookup
/// and no `Value` hashing (see [`crate::Instance::attribute_reader`]).
#[derive(Debug, Clone, Copy)]
pub struct AttrReader<'a> {
    column: Option<&'a AttrColumn>,
    /// The subject class's key symbol → row index (entity subjects).
    rows: Option<&'a SymMap<Sym, u32>>,
    interner: &'a SymbolTable,
}

impl<'a> AttrReader<'a> {
    pub(crate) fn new(column: Option<&'a AttrColumn>, skeleton: &'a Skeleton) -> Self {
        let rows = column
            .and_then(AttrColumn::entity)
            .and_then(|class| skeleton.entity_rows(class));
        Self {
            column,
            rows,
            interner: skeleton.interner(),
        }
    }

    /// The attribute's subject entity class (`None` for a relationship
    /// subject, or when no cell of the attribute was ever stored).
    pub fn entity(&self) -> Option<&'a str> {
        self.column.and_then(AttrColumn::entity)
    }

    /// The cell of row `row` of the subject entity class. Relationship
    /// attributes have no rows and read `None`.
    pub fn at_row(&self, row: usize) -> Option<&'a Value> {
        self.column?.at_row(row)
    }

    /// The cell of the unit whose key is the interned symbol tuple `syms`
    /// (one symbol for an entity unit). Agrees with
    /// [`crate::Instance::attribute`] on the key the symbols stand for.
    ///
    /// A row of the subject class reads its column cell only: a unit never
    /// has an orphan cell. Other keys probe the orphan side map, which
    /// costs `O(log n)` and only happens when the column has orphans.
    pub fn at_syms(&self, syms: &[Sym]) -> Option<&'a Value> {
        let column = self.column?;
        let stored = match (self.rows, syms) {
            (Some(rows), [sym]) => match rows.get(sym) {
                Some(&row) => return column.at_row(row as usize),
                None => None,
            },
            (Some(_), _) => None,
            (None, _) => column.tuples.get(syms),
        };
        stored.or_else(|| {
            if !column.has_orphans() {
                return None;
            }
            let values = syms.iter().map(|&s| self.interner.value(s));
            column.orphan_in(&orphan_key(values.clone()), |k| {
                k.len() == syms.len() && k.iter().zip(values.clone()).all(|(v, w)| v == w)
            })
        })
    }

    /// [`AttrReader::at_syms`] for a single-symbol (entity) key.
    pub fn at_sym(&self, sym: Sym) -> Option<&'a Value> {
        self.at_syms(std::slice::from_ref(&sym))
    }
}

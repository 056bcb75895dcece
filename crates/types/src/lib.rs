//! # hpm-types — the Type Information (TI) table
//!
//! The paper (§3.1): "The TI contains type information of every memory
//! block in a process including type-specific functions to transform data
//! of each type between machine-specific and machine-independent formats."
//!
//! This crate provides:
//!
//! * [`TypeTable`] — the TI table itself: an interned registry of C types
//!   (scalars, pointers, arrays, structs, named types), supporting
//!   recursive types through forward struct declarations
//!   (`struct node { struct node *link; }`).
//! * [`layout`] — per-[`Architecture`](hpm_arch::Architecture) size,
//!   alignment, and field-offset computation, so the same type lays out
//!   differently on the DEC 5000 and the SPARC 20.
//! * [`elements`] — the *element* order: every memory block is a sequence
//!   of scalar leaves; a machine-independent pointer offset is "the
//!   ordering number of the data element inside the memory block" (§3.2).
//! * [`plan`] — compiled save/restore plans, the analogue of the paper's
//!   generated "memory block saving and restoring functions": scalar runs
//!   are described once and bulk-converted; pointer slots are singled out
//!   for `Save_pointer` treatment. A plan's leaf tables answer every
//!   element query, offset → ordinal and ordinal → offset.

#![forbid(unsafe_code)]

pub mod elements;
pub mod layout;
pub mod plan;

use hpm_arch::CScalar;

/// Identifier of a type in a [`TypeTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(pub u32);

impl TypeId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Structural definition of one type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeDef {
    /// A C scalar leaf.
    Scalar(CScalar),
    /// A pointer to `pointee`. Pointers to incomplete (declared but not
    /// yet defined) structs are legal, as in C.
    Pointer(TypeId),
    /// A fixed-size array `elem[count]`.
    Array {
        /// Element type.
        elem: TypeId,
        /// Element count.
        count: u64,
    },
    /// A struct with named fields, or an incomplete forward declaration
    /// when `fields` is `None`.
    Struct {
        /// Struct tag (e.g. `"node"`).
        name: String,
        /// Ordered fields; `None` until `define_struct` is called.
        fields: Option<Vec<Field>>,
    },
}

/// One struct field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: TypeId,
}

impl Field {
    /// Convenience constructor.
    pub fn new(name: &str, ty: TypeId) -> Self {
        Field {
            name: name.to_string(),
            ty,
        }
    }
}

/// Errors from type construction or layout queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeError {
    /// Layout/size was requested for a struct that was declared but never
    /// defined.
    IncompleteType(String),
    /// `define_struct` was called twice for the same tag.
    Redefinition(String),
    /// A struct was defined with no fields (unsupported, as in C89).
    EmptyStruct(String),
    /// A type id did not belong to this table.
    UnknownType(TypeId),
}

impl std::fmt::Display for TypeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TypeError::IncompleteType(n) => write!(f, "struct {n} is incomplete"),
            TypeError::Redefinition(n) => write!(f, "struct {n} redefined"),
            TypeError::EmptyStruct(n) => write!(f, "struct {n} has no fields"),
            TypeError::UnknownType(id) => write!(f, "unknown type id {id:?}"),
        }
    }
}

impl std::error::Error for TypeError {}

/// The TI table: an interned registry of types shared by a whole program.
///
/// Scalars, pointers, and arrays are interned (structurally deduplicated)
/// so `TypeId` equality is type equality for them; structs are nominal.
#[derive(Debug, Default, Clone)]
pub struct TypeTable {
    defs: Vec<TypeDef>,
    scalar_ids: std::collections::HashMap<CScalar, TypeId>,
    pointer_ids: std::collections::HashMap<TypeId, TypeId>,
    array_ids: std::collections::HashMap<(TypeId, u64), TypeId>,
    struct_ids: std::collections::HashMap<String, TypeId>,
}

impl TypeTable {
    /// New table with all scalar types pre-interned.
    pub fn new() -> Self {
        let mut t = TypeTable::default();
        for s in CScalar::ALL {
            if s != CScalar::Ptr {
                t.scalar(s);
            }
        }
        t
    }

    fn push(&mut self, def: TypeDef) -> TypeId {
        let id = TypeId(self.defs.len() as u32);
        self.defs.push(def);
        id
    }

    /// Number of registered types.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Whether the table is empty (it never is after [`TypeTable::new`]).
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// The definition of `id`.
    ///
    /// # Panics
    /// Panics if `id` is not from this table.
    pub fn def(&self, id: TypeId) -> &TypeDef {
        &self.defs[id.index()]
    }

    /// Intern the scalar type `s`.
    ///
    /// # Panics
    /// Panics on [`CScalar::Ptr`]; use [`TypeTable::pointer_to`] with a
    /// pointee type instead.
    pub fn scalar(&mut self, s: CScalar) -> TypeId {
        assert!(s != CScalar::Ptr, "use pointer_to for pointer types");
        if let Some(&id) = self.scalar_ids.get(&s) {
            return id;
        }
        let id = self.push(TypeDef::Scalar(s));
        self.scalar_ids.insert(s, id);
        id
    }

    /// Shorthand for `scalar(CScalar::Int)`.
    pub fn int(&mut self) -> TypeId {
        self.scalar(CScalar::Int)
    }

    /// Shorthand for `scalar(CScalar::Double)`.
    pub fn double(&mut self) -> TypeId {
        self.scalar(CScalar::Double)
    }

    /// Shorthand for `scalar(CScalar::Float)`.
    pub fn float(&mut self) -> TypeId {
        self.scalar(CScalar::Float)
    }

    /// Shorthand for `scalar(CScalar::Char)`.
    pub fn char_(&mut self) -> TypeId {
        self.scalar(CScalar::Char)
    }

    /// Intern `pointee *`.
    pub fn pointer_to(&mut self, pointee: TypeId) -> TypeId {
        if let Some(&id) = self.pointer_ids.get(&pointee) {
            return id;
        }
        let id = self.push(TypeDef::Pointer(pointee));
        self.pointer_ids.insert(pointee, id);
        id
    }

    /// Intern `elem[count]`.
    pub fn array_of(&mut self, elem: TypeId, count: u64) -> TypeId {
        if let Some(&id) = self.array_ids.get(&(elem, count)) {
            return id;
        }
        let id = self.push(TypeDef::Array { elem, count });
        self.array_ids.insert((elem, count), id);
        id
    }

    /// Forward-declare `struct name` (idempotent), returning its id.
    ///
    /// Pointers to the declared struct may be formed immediately; size or
    /// element queries fail until [`TypeTable::define_struct`].
    pub fn declare_struct(&mut self, name: &str) -> TypeId {
        if let Some(&id) = self.struct_ids.get(name) {
            return id;
        }
        let id = self.push(TypeDef::Struct {
            name: name.to_string(),
            fields: None,
        });
        self.struct_ids.insert(name.to_string(), id);
        id
    }

    /// Complete a struct declaration with its fields.
    pub fn define_struct(&mut self, id: TypeId, fields: Vec<Field>) -> Result<(), TypeError> {
        if fields.is_empty() {
            if let TypeDef::Struct { name, .. } = self.def(id) {
                return Err(TypeError::EmptyStruct(name.clone()));
            }
        }
        match &mut self.defs[id.index()] {
            TypeDef::Struct { name, fields: slot } => {
                if slot.is_some() {
                    return Err(TypeError::Redefinition(name.clone()));
                }
                *slot = Some(fields);
                Ok(())
            }
            _ => Err(TypeError::UnknownType(id)),
        }
    }

    /// Declare-and-define in one call, for non-recursive structs.
    pub fn struct_type(&mut self, name: &str, fields: Vec<Field>) -> Result<TypeId, TypeError> {
        let id = self.declare_struct(name);
        self.define_struct(id, fields)?;
        Ok(id)
    }

    /// Look up a struct by tag.
    pub fn struct_by_name(&self, name: &str) -> Option<TypeId> {
        self.struct_ids.get(name).copied()
    }

    /// Whether the type is (or contains only) complete definitions, i.e.
    /// its size can be computed.
    pub fn is_complete(&self, id: TypeId) -> bool {
        match self.def(id) {
            TypeDef::Scalar(_) | TypeDef::Pointer(_) => true,
            TypeDef::Array { elem, .. } => self.is_complete(*elem),
            TypeDef::Struct { fields, .. } => match fields {
                None => false,
                Some(fs) => fs.iter().all(|f| self.is_complete(f.ty)),
            },
        }
    }

    /// C-like rendering of the type, for diagnostics and DOT labels.
    pub fn display(&self, id: TypeId) -> String {
        match self.def(id) {
            TypeDef::Scalar(s) => s.c_name().to_string(),
            TypeDef::Pointer(p) => format!("{} *", self.display(*p)),
            TypeDef::Array { elem, count } => format!("{}[{count}]", self.display(*elem)),
            TypeDef::Struct { name, .. } => format!("struct {name}"),
        }
    }

    /// Whether any leaf of this type is a pointer. Blocks whose type has
    /// no pointers can be saved purely with XDR bulk conversion (the
    /// paper: "For a memory block that does not contain any pointers, we
    /// can apply XDR techniques").
    pub fn contains_pointer(&self, id: TypeId) -> bool {
        match self.def(id) {
            TypeDef::Scalar(_) => false,
            TypeDef::Pointer(_) => true,
            TypeDef::Array { elem, .. } => self.contains_pointer(*elem),
            TypeDef::Struct { fields, .. } => fields
                .as_ref()
                .map(|fs| fs.iter().any(|f| self.contains_pointer(f.ty)))
                .unwrap_or(false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_are_interned() {
        let mut t = TypeTable::new();
        assert_eq!(t.scalar(CScalar::Int), t.scalar(CScalar::Int));
        assert_ne!(t.scalar(CScalar::Int), t.scalar(CScalar::UInt));
    }

    #[test]
    fn pointers_and_arrays_are_interned() {
        let mut t = TypeTable::new();
        let i = t.int();
        assert_eq!(t.pointer_to(i), t.pointer_to(i));
        assert_eq!(t.array_of(i, 10), t.array_of(i, 10));
        assert_ne!(t.array_of(i, 10), t.array_of(i, 11));
    }

    #[test]
    fn recursive_struct_node() {
        // struct node { float data; struct node *link; };  (paper Fig. 1)
        let mut t = TypeTable::new();
        let node = t.declare_struct("node");
        let link = t.pointer_to(node);
        let f = t.float();
        t.define_struct(node, vec![Field::new("data", f), Field::new("link", link)])
            .unwrap();
        assert!(t.is_complete(node));
        assert!(t.contains_pointer(node));
        assert_eq!(t.display(node), "struct node");
        assert_eq!(t.display(link), "struct node *");
    }

    #[test]
    fn incomplete_struct_detected() {
        let mut t = TypeTable::new();
        let s = t.declare_struct("opaque");
        assert!(!t.is_complete(s));
        let p = t.pointer_to(s);
        assert!(t.is_complete(p)); // pointer to incomplete is complete
    }

    #[test]
    fn redefinition_rejected() {
        let mut t = TypeTable::new();
        let i = t.int();
        let s = t.struct_type("s", vec![Field::new("x", i)]).unwrap();
        assert_eq!(
            t.define_struct(s, vec![Field::new("y", i)]),
            Err(TypeError::Redefinition("s".into()))
        );
    }

    #[test]
    fn empty_struct_rejected() {
        let mut t = TypeTable::new();
        assert!(matches!(
            t.struct_type("e", vec![]),
            Err(TypeError::EmptyStruct(_))
        ));
    }

    #[test]
    fn declare_struct_idempotent() {
        let mut t = TypeTable::new();
        assert_eq!(t.declare_struct("n"), t.declare_struct("n"));
        assert_eq!(t.struct_by_name("n"), Some(t.declare_struct("n")));
        assert_eq!(t.struct_by_name("missing"), None);
    }

    #[test]
    fn contains_pointer_transitivity() {
        let mut t = TypeTable::new();
        let i = t.int();
        let pi = t.pointer_to(i);
        let arr = t.array_of(pi, 10); // array of int*
        assert!(t.contains_pointer(arr));
        let plain = t.array_of(i, 10);
        assert!(!t.contains_pointer(plain));
    }

    #[test]
    fn display_nested() {
        let mut t = TypeTable::new();
        let i = t.int();
        let pi = t.pointer_to(i);
        let appi = t.array_of(pi, 10);
        let p_appi = t.pointer_to(appi);
        assert_eq!(t.display(p_appi), "int *[10] *");
    }
}

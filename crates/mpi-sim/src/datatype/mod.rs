//! MPI derived-datatype engine.
//!
//! This module implements the subset of the MPI datatype system the paper
//! builds on (Section 2): named types, `MPI_Type_contiguous`,
//! `MPI_Type_vector`, `MPI_Type_create_hvector`,
//! `MPI_Type_create_subarray` — plus `indexed`, `hindexed`, `struct`,
//! `resized` and `dup` so the engine is complete enough for TEMPI's
//! fallback paths and for adversarial tests.
//!
//! The engine provides the two faces the paper's library consumes:
//!
//! * the **introspection face** (`get_envelope` / `get_contents` /
//!   `get_extent` / `size`), which TEMPI's translation phase walks to build
//!   its IR, exactly as the real interposer must since it only sees opaque
//!   handles; and
//! * the **semantics face** ([`typemap::for_each_block`]), the ground-truth
//!   walk of `(offset, length)` contiguous byte ranges in typemap order,
//!   which defines pack/unpack meaning ([`typemap::segments`] collects it
//!   as the oracle's list) and hands the baseline vendor implementations
//!   the blocks they copy one by one.

pub mod named;
pub mod pack_cpu;
pub mod registry;
pub mod tree;
pub mod typemap;
pub mod walk;

use std::fmt;

pub use named::Named;
pub use registry::{consts, TypeRegistry};
pub use tree::TypeTree;
pub use typemap::Segment;

/// An opaque MPI datatype handle: a [`TypeRegistry`] slot in the low
/// [`Datatype::SLOT_BITS`] bits and the slot's generation in the high
/// 32. Freeing a type bumps its slot's generation before the slot is
/// reused, so a handle kept past its free never names the slot's next
/// occupant; with 2^32 generations a slot is reused for the life of any
/// create/free loop. A slot's first occupant has generation 0, so its
/// handle is the slot index itself; the named types have fixed well-known
/// handles (see [`registry::consts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Datatype(pub u64);

impl Datatype {
    /// Bits of a handle that index its registry slot.
    pub const SLOT_BITS: u32 = 32;

    /// The handle of `slot`'s occupant of generation `generation`, or
    /// [`MpiError::HandlesExhausted`](crate::MpiError::HandlesExhausted)
    /// when `slot` does not fit in [`Datatype::SLOT_BITS`].
    pub(crate) fn new(slot: usize, generation: u32) -> crate::MpiResult<Datatype> {
        match u32::try_from(slot) {
            Ok(s) => Ok(Datatype(s as u64 | (generation as u64) << Self::SLOT_BITS)),
            Err(_) => Err(crate::MpiError::HandlesExhausted),
        }
    }

    /// The registry slot this handle names.
    pub fn slot(self) -> usize {
        (self.0 & ((1 << Self::SLOT_BITS) - 1)) as usize
    }

    /// Which occupant of its slot this handle names.
    pub fn generation(self) -> u32 {
        (self.0 >> Self::SLOT_BITS) as u32
    }

    /// Position in [`Named::ALL`] if this is one of the predefined handles
    /// ([`registry::consts`]), as a library compares a handle to `MPI_BYTE`.
    /// `MPI_Type_free` refuses exactly these, so each names the same type
    /// for the life of the process.
    pub fn named_index(self) -> Option<usize> {
        let i = self.0 as usize;
        (i < Named::ALL.len()).then_some(i)
    }
}

/// Array storage order for `MPI_Type_create_subarray`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Order {
    /// Row-major (`MPI_ORDER_C`): dimension 0 varies slowest.
    C,
    /// Column-major (`MPI_ORDER_FORTRAN`): dimension 0 varies fastest.
    Fortran,
}

impl Order {
    /// A subarray's `dims` from the fastest-varying to the slowest; the
    /// element stride of each is the running product of the sizes before
    /// it.
    pub(crate) fn fastest_first(
        self,
        dims: &[Dim],
    ) -> impl DoubleEndedIterator<Item = &Dim> + Clone {
        let n = dims.len();
        (0..n).map(move |i| match self {
            Order::C => &dims[n - 1 - i],
            Order::Fortran => &dims[i],
        })
    }
}

/// One dimension of a subarray, in elements of its `oldtype`: what
/// `MPI_Type_create_subarray` lists at one index of its `sizes`,
/// `subsizes` and `starts`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Dim {
    /// Full array extent.
    pub size: i32,
    /// Subarray extent.
    pub subsize: i32,
    /// Subarray origin.
    pub start: i32,
}

impl Dim {
    /// The field each of MPI's three lists holds: `sizes`, `subsizes`,
    /// `starts`.
    pub(crate) const COLUMNS: [fn(&Dim) -> i32; 3] = [|d| d.size, |d| d.subsize, |d| d.start];

    /// The dimensions MPI's three parallel lists describe, stored in
    /// `order`; lists of different lengths describe none, and the error
    /// says so.
    pub fn from_lists(
        sizes: &[i32],
        subsizes: &[i32],
        starts: &[i32],
        order: Order,
    ) -> Result<Dims, String> {
        let lens = [sizes.len(), subsizes.len(), starts.len()];
        if lens != [lens[0]; 3] {
            return Err(format!(
                "subarray argument lists differ in length: {lens:?}"
            ));
        }
        Ok(Dims::from_fn(lens[0], order, |i| Dim {
            size: sizes[i],
            subsize: subsizes[i],
            start: starts[i],
        }))
    }
}

/// A subarray's dimensions and their storage order: up to four
/// dimensions in place, so creating or copying the common subarray
/// allocates nothing, and more on the heap. Reads as a `&[Dim]`.
#[derive(Clone, PartialEq)]
pub struct Dims(DimStore);

/// Made only by [`Dims::from_fn`], which zeroes the unused places: equal
/// dimensions are equal values. The order sits in the store's padding, so
/// a [`TypeDef::Subarray`] is no larger than its dimensions and handle.
#[derive(Clone, PartialEq)]
enum DimStore {
    Inline(Order, u8, [Dim; 4]),
    Spilled(Order, Box<[Dim]>),
}

impl Dims {
    /// The `n` dimensions `dim(0)`, `dim(1)`, …, stored in `order`.
    fn from_fn(n: usize, order: Order, dim: impl Fn(usize) -> Dim) -> Dims {
        Dims(match n {
            0..=4 => DimStore::Inline(
                order,
                n as u8,
                std::array::from_fn(|i| match i < n {
                    true => dim(i),
                    false => Dim::default(),
                }),
            ),
            _ => DimStore::Spilled(order, (0..n).map(dim).collect()),
        })
    }

    /// The storage order of the array.
    pub fn order(&self) -> Order {
        match self.0 {
            DimStore::Inline(order, ..) | DimStore::Spilled(order, _) => order,
        }
    }
}

impl std::ops::Deref for Dims {
    type Target = [Dim];

    fn deref(&self) -> &[Dim] {
        match &self.0 {
            DimStore::Inline(_, n, dims) => &dims[..*n as usize],
            DimStore::Spilled(_, dims) => dims,
        }
    }
}

impl fmt::Debug for Dims {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?} ", self.order())?;
        (**self).fmt(f)
    }
}

/// The construction of a datatype — the persistent record of *how* it was
/// built, which is what `MPI_Type_get_contents` reports back. The registry
/// stores it over child handles; over child constructions it is a
/// [`TypeTree`].
#[derive(Debug, Clone, PartialEq)]
pub enum TypeDef<C = Datatype> {
    /// A predefined type.
    Named(Named),
    /// `MPI_Type_dup`.
    Dup {
        /// The duplicated type.
        oldtype: C,
    },
    /// `MPI_Type_contiguous`: `count` repetitions at `extent(oldtype)`.
    Contiguous {
        /// Number of repetitions.
        count: i32,
        /// Element type.
        oldtype: C,
    },
    /// `MPI_Type_vector`: `count` blocks of `blocklength` elements, block
    /// starts `stride` *elements* apart.
    Vector {
        /// Number of blocks.
        count: i32,
        /// Elements per block.
        blocklength: i32,
        /// Stride between block starts, in elements.
        stride: i32,
        /// Element type.
        oldtype: C,
    },
    /// `MPI_Type_create_hvector`: like `Vector` but `stride` is in bytes.
    Hvector {
        /// Number of blocks.
        count: i32,
        /// Elements per block.
        blocklength: i32,
        /// Stride between block starts, in bytes.
        stride_bytes: i64,
        /// Element type.
        oldtype: C,
    },
    /// `MPI_Type_indexed`: blocks of varying length at varying
    /// element-granularity displacements.
    Indexed {
        /// Elements in each block.
        blocklengths: Vec<i32>,
        /// Displacement of each block, in elements.
        displacements: Vec<i32>,
        /// Element type.
        oldtype: C,
    },
    /// `MPI_Type_create_indexed_block`: equal-length blocks at
    /// element-granularity displacements.
    IndexedBlock {
        /// Elements per block.
        blocklength: i32,
        /// Displacement of each block, in elements.
        displacements: Vec<i32>,
        /// Element type.
        oldtype: C,
    },
    /// `MPI_Type_create_hindexed`: like `Indexed` but displacements are in
    /// bytes.
    Hindexed {
        /// Elements in each block.
        blocklengths: Vec<i32>,
        /// Displacement of each block, in bytes.
        displacements_bytes: Vec<i64>,
        /// Element type.
        oldtype: C,
    },
    /// `MPI_Type_create_subarray`: an n-dimensional subarray of an
    /// n-dimensional array.
    Subarray {
        /// Array and subarray per dimension, in MPI's argument order, and
        /// the storage order.
        dims: Dims,
        /// Element type.
        oldtype: C,
    },
    /// `MPI_Type_create_struct`: heterogeneous blocks at byte displacements.
    Struct {
        /// Elements in each block.
        blocklengths: Vec<i32>,
        /// Displacement of each block, in bytes.
        displacements_bytes: Vec<i64>,
        /// Per-block element type.
        types: Vec<C>,
    },
    /// `MPI_Type_create_resized`: override lower bound and extent.
    Resized {
        /// New lower bound, bytes.
        lb: i64,
        /// New extent, bytes.
        extent: i64,
        /// Underlying type.
        oldtype: C,
    },
}

impl<C> TypeDef<C> {
    /// The combiner tag of this construction.
    pub fn combiner(&self) -> Combiner {
        match self {
            TypeDef::Named(_) => Combiner::Named,
            TypeDef::Dup { .. } => Combiner::Dup,
            TypeDef::Contiguous { .. } => Combiner::Contiguous,
            TypeDef::Vector { .. } => Combiner::Vector,
            TypeDef::Hvector { .. } => Combiner::Hvector,
            TypeDef::Indexed { .. } => Combiner::Indexed,
            TypeDef::IndexedBlock { .. } => Combiner::IndexedBlock,
            TypeDef::Hindexed { .. } => Combiner::Hindexed,
            TypeDef::Subarray { .. } => Combiner::Subarray,
            TypeDef::Struct { .. } => Combiner::Struct,
            TypeDef::Resized { .. } => Combiner::Resized,
        }
    }

    /// The types this construction is built over, in argument order: none
    /// for a named type, every member of a struct, else the one `oldtype`.
    pub fn children(&self) -> &[C] {
        match self {
            TypeDef::Named(_) => &[],
            TypeDef::Struct { types, .. } => types,
            TypeDef::Dup { oldtype }
            | TypeDef::Contiguous { oldtype, .. }
            | TypeDef::Vector { oldtype, .. }
            | TypeDef::Hvector { oldtype, .. }
            | TypeDef::Indexed { oldtype, .. }
            | TypeDef::IndexedBlock { oldtype, .. }
            | TypeDef::Hindexed { oldtype, .. }
            | TypeDef::Subarray { oldtype, .. }
            | TypeDef::Resized { oldtype, .. } => std::slice::from_ref(oldtype),
        }
    }
}

/// The combiner tag reported by `MPI_Type_get_envelope`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Combiner {
    Named,
    Dup,
    Contiguous,
    Vector,
    Hvector,
    Indexed,
    IndexedBlock,
    Hindexed,
    Subarray,
    Struct,
    Resized,
}

/// The result of `MPI_Type_get_envelope`: how many items of each kind
/// `get_contents` will return, and the combiner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope {
    /// Number of integers in the contents.
    pub num_integers: usize,
    /// Number of addresses (byte displacements) in the contents.
    pub num_addresses: usize,
    /// Number of datatype handles in the contents.
    pub num_datatypes: usize,
    /// How the type was constructed.
    pub combiner: Combiner,
}

/// The result of `MPI_Type_get_contents`: the constructor arguments.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Contents {
    /// Integer arguments (counts, blocklengths, sizes, order flag, ...).
    pub integers: Vec<i64>,
    /// Address (byte) arguments (hvector stride, hindexed displacements, ...).
    pub addresses: Vec<i64>,
    /// Datatype handle arguments.
    pub datatypes: Vec<Datatype>,
}

/// Cached layout attributes of a datatype, computed at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TypeAttrs {
    /// Total bytes of data (`MPI_Type_size`).
    pub size: u64,
    /// Lower bound in bytes (`MPI_Type_get_extent`).
    pub lb: i64,
    /// Upper bound in bytes; extent is `ub - lb`.
    pub ub: i64,
    /// Lowest byte actually occupied by data (`MPI_Type_get_true_extent`).
    pub true_lb: i64,
    /// One past the highest byte actually occupied by data.
    pub true_ub: i64,
}

impl TypeAttrs {
    /// Extent in bytes (`ub - lb`).
    #[inline]
    pub fn extent(&self) -> i64 {
        self.ub - self.lb
    }

    /// True extent in bytes (`true_ub - true_lb`).
    #[inline]
    pub fn true_extent(&self) -> i64 {
        self.true_ub - self.true_lb
    }

    /// Does the data occupy exactly `[lb, ub)`, with no holes? (Says
    /// nothing of the order the typemap visits it in: see
    /// [`TypeInfo::ascending`].)
    pub(crate) fn is_dense(&self) -> bool {
        self.extent() >= 0
            && self.size == self.extent() as u64
            && self.lb == self.true_lb
            && self.ub == self.true_ub
    }

    /// Attributes of an empty type (count-zero constructions).
    pub const EMPTY: TypeAttrs = TypeAttrs {
        size: 0,
        lb: 0,
        ub: 0,
        true_lb: 0,
        true_ub: 0,
    };
}

/// What the registry answers for a live handle: its definition's shared
/// record, read in place, and the handle's own committed bit.
#[derive(Debug, Clone, Copy)]
pub struct TypeInfo<'a> {
    /// How the type was constructed.
    pub def: &'a TypeDef,
    /// Cached layout attributes.
    pub attrs: TypeAttrs,
    /// Has `MPI_Type_commit` been called on this handle?
    pub committed: bool,
    /// Is the typemap known to visit its bytes in ascending address order?
    /// Only then is a dense type one segment: a struct whose displacements
    /// run backwards covers `[lb, ub)` too, and packs in member order.
    /// Conservative — `false` for every indexed or struct construction.
    pub ascending: bool,
}

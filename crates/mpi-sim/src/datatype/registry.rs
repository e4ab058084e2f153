//! Datatype registry: construction, attributes, and introspection.
//!
//! One [`TypeRegistry`] is shared by all ranks of a simulated world (MPI
//! datatypes are per-process, but the constructions in all experiments are
//! identical across ranks; sharing keeps handles comparable in tests).
//! The named types occupy fixed handles (see [`consts`]); a freed slot is
//! reused under the next generation (see [`Datatype`]).

use super::named::Named;
use super::{Contents, Datatype, Dim, Envelope, Order, TypeAttrs, TypeDef, TypeInfo};
use crate::error::{MpiError, MpiResult};
use crate::pool::{bins, Pool};

/// Well-known handles for the named types, in [`Named::ALL`] order.
pub mod consts {
    use super::Datatype;

    /// `MPI_BYTE`
    pub const MPI_BYTE: Datatype = Datatype(0);
    /// `MPI_CHAR`
    pub const MPI_CHAR: Datatype = Datatype(1);
    /// `MPI_UNSIGNED_CHAR`
    pub const MPI_UNSIGNED_CHAR: Datatype = Datatype(2);
    /// `MPI_SHORT`
    pub const MPI_SHORT: Datatype = Datatype(3);
    /// `MPI_UNSIGNED_SHORT`
    pub const MPI_UNSIGNED_SHORT: Datatype = Datatype(4);
    /// `MPI_INT`
    pub const MPI_INT: Datatype = Datatype(5);
    /// `MPI_UNSIGNED`
    pub const MPI_UNSIGNED: Datatype = Datatype(6);
    /// `MPI_LONG`
    pub const MPI_LONG: Datatype = Datatype(7);
    /// `MPI_UNSIGNED_LONG`
    pub const MPI_UNSIGNED_LONG: Datatype = Datatype(8);
    /// `MPI_LONG_LONG`
    pub const MPI_LONG_LONG: Datatype = Datatype(9);
    /// `MPI_FLOAT`
    pub const MPI_FLOAT: Datatype = Datatype(10);
    /// `MPI_DOUBLE`
    pub const MPI_DOUBLE: Datatype = Datatype(11);
}

/// One registry slot, with the generation of the handle that names, or
/// will next name, its occupant: 128 bytes, a [`TypeInfo`] and its
/// generation.
#[derive(Debug)]
enum Slot {
    /// A live type.
    Live(u32, TypeInfo),
    /// A freed slot on the free list; the link is the slot freed before
    /// it. The list lives in the vacant slots, so it allocates nothing.
    Free(u32, Option<u32>),
    /// Freed at generation `u32::MAX`: never reused, so no handle wraps
    /// around to name a later occupant. A create/free loop retires a slot
    /// only after 2^32 frees of it, so the table stays the size of the
    /// most types ever live at once.
    Retired,
}

/// Most bytes of capacity the registry keeps of freed types' lists, per
/// element type: a warm create → free cycle of any list-carrying
/// constructor takes back what its last free left, and a world holds at
/// most three times this much for it.
const LIST_POOL_BYTES: usize = 16 << 10;

/// The argument lists of freed types ([`TypeRegistry::free`]), by element
/// type, which the constructors that carry lists copy theirs into
/// (`RankCtx::type_indexed` and its kin).
#[derive(Debug, Default)]
pub(crate) struct Lists {
    /// Block lengths and element displacements.
    pub(crate) ints: Pool<i32, LIST_POOL_BYTES, { bins::<i32>(LIST_POOL_BYTES) }>,
    /// Byte displacements.
    pub(crate) addrs: Pool<i64, LIST_POOL_BYTES, { bins::<i64>(LIST_POOL_BYTES) }>,
    /// A struct's member types.
    pub(crate) types: Pool<Datatype, LIST_POOL_BYTES, { bins::<Datatype>(LIST_POOL_BYTES) }>,
}

impl Lists {
    /// Keep the lists of `def`, a freed type's construction.
    fn keep(&mut self, def: TypeDef) {
        match def {
            TypeDef::Indexed {
                blocklengths,
                displacements,
                ..
            } => {
                self.ints.put(blocklengths);
                self.ints.put(displacements);
            }
            TypeDef::IndexedBlock { displacements, .. } => self.ints.put(displacements),
            TypeDef::Hindexed {
                blocklengths,
                displacements_bytes,
                ..
            } => {
                self.ints.put(blocklengths);
                self.addrs.put(displacements_bytes);
            }
            TypeDef::Struct {
                blocklengths,
                displacements_bytes,
                types,
            } => {
                self.ints.put(blocklengths);
                self.addrs.put(displacements_bytes);
                self.types.put(types);
            }
            _ => {}
        }
    }
}

/// The registry of live datatypes.
#[derive(Debug)]
pub struct TypeRegistry {
    slots: Vec<Slot>,
    /// The slot freed last: the head of the free list, which `create`
    /// pops before it grows `slots`. Last in, first out, so a seeded run
    /// hands out the same handles every time.
    free: Option<u32>,
    /// What freed types' lists are kept in.
    pub(crate) lists: Lists,
}

impl Default for TypeRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl TypeRegistry {
    /// A registry with the named types preregistered at their well-known
    /// handles.
    pub fn new() -> Self {
        let slots = Named::ALL
            .iter()
            .map(|&n| {
                let size = n.size() as i64;
                TypeInfo {
                    def: TypeDef::Named(n),
                    attrs: TypeAttrs {
                        size: n.size() as u64,
                        lb: 0,
                        ub: size,
                        true_lb: 0,
                        true_ub: size,
                    },
                    committed: true, // named types are always committed
                    ascending: true,
                }
            })
            .map(|info| Slot::Live(0, info))
            .collect();
        TypeRegistry {
            slots,
            free: None,
            lists: Lists::default(),
        }
    }

    /// The live type `dt` names: its slot's occupant, if the generations
    /// agree.
    fn get(&self, dt: Datatype) -> MpiResult<&TypeInfo> {
        match self.slots.get(dt.slot()) {
            Some(Slot::Live(g, info)) if *g == dt.generation() => Ok(info),
            _ => Err(MpiError::InvalidDatatype),
        }
    }

    /// The full record for a handle.
    pub fn info(&self, dt: Datatype) -> MpiResult<&TypeInfo> {
        self.get(dt)
    }

    /// `MPI_Type_size`.
    pub fn size(&self, dt: Datatype) -> MpiResult<u64> {
        Ok(self.get(dt)?.attrs.size)
    }

    /// `MPI_Type_get_extent`: returns `(lb, extent)`.
    pub fn extent(&self, dt: Datatype) -> MpiResult<(i64, i64)> {
        let a = &self.get(dt)?.attrs;
        Ok((a.lb, a.extent()))
    }

    /// `MPI_Type_get_true_extent`: returns `(true_lb, true_extent)`.
    pub fn true_extent(&self, dt: Datatype) -> MpiResult<(i64, i64)> {
        let a = &self.get(dt)?.attrs;
        Ok((a.true_lb, a.true_extent()))
    }

    /// Cached attributes for a handle.
    pub fn attrs(&self, dt: Datatype) -> MpiResult<TypeAttrs> {
        Ok(self.get(dt)?.attrs)
    }

    /// `MPI_Type_commit`. Idempotent, as in MPI.
    pub fn commit(&mut self, dt: Datatype) -> MpiResult<()> {
        match self.slots.get_mut(dt.slot()) {
            Some(Slot::Live(g, info)) if *g == dt.generation() => {
                info.committed = true;
                Ok(())
            }
            _ => Err(MpiError::InvalidDatatype),
        }
    }

    /// Is the type committed?
    pub fn is_committed(&self, dt: Datatype) -> MpiResult<bool> {
        Ok(self.get(dt)?.committed)
    }

    /// `MPI_Type_free`. Named types cannot be freed. Unlike MPI, freeing
    /// *does* invalidate the types derived from this one: a derived type
    /// keeps its attributes but refers to its children by handle, so after
    /// `free(row)` both `typemap::segments(plane)` and a TEMPI commit of
    /// `plane` return `InvalidDatatype`. [`TypeTree::build`](super::TypeTree::build)
    /// therefore leaves every intermediate type live.
    ///
    /// The slot goes on the free list under the next generation, so `dt`
    /// and every other copy of it stay dead — `InvalidDatatype` everywhere,
    /// a second free included — after `create` reuses the slot, for the
    /// slot's 2^32 generations. A slot freed at generation `u32::MAX` is
    /// retired instead: never reused, so no handle wraps around. The type's
    /// argument lists, if it has any, are kept for the next constructions
    /// that carry lists, up to `LIST_POOL_BYTES` per element type.
    pub fn free(&mut self, dt: Datatype) -> MpiResult<()> {
        if dt.named_index().is_some() {
            return Err(MpiError::InvalidArg(
                "cannot free a named datatype".to_string(),
            ));
        }
        self.get(dt)?;
        let slot = dt.slot();
        let vacant = match dt.generation().checked_add(1) {
            Some(next) => Slot::Free(next, self.free.replace(slot as u32)),
            None => Slot::Retired,
        };
        if let Slot::Live(_, info) = std::mem::replace(&mut self.slots[slot], vacant) {
            self.lists.keep(info.def);
        }
        Ok(())
    }

    /// Number of live handles (named + derived).
    pub fn live(&self) -> usize {
        (self.slots.iter())
            .filter(|s| matches!(s, Slot::Live(..)))
            .count()
    }

    /// Number of slots, live, free or retired: what the registry holds.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    // ---- construction --------------------------------------------------

    /// Create (not commit) the type `def` describes over live children:
    /// the one place a construction is checked and its attributes
    /// computed. Each constructor's arm decides three things together —
    /// the arguments MPI rejects, the [`TypeAttrs`], and
    /// [`TypeInfo::ascending`]. A bad argument, a dead child, or a size or
    /// bound that does not fit in 64 bits is [`MpiError::InvalidArg`] or
    /// [`MpiError::InvalidDatatype`], and inserts nothing.
    ///
    /// The bounds are one checked fold over `(element attrs, blocklength,
    /// byte displacement)` blocks: the indexed family and struct pass every
    /// block; contiguous, vector and hvector only their first and last, so
    /// they stay O(1); subarray (whose extent spans the full array) and
    /// resized keep their own formulas, checked too. `ascending` is
    /// conservative: elements that ascend and tile, repeated at strides
    /// that do not step back over each other. The indexed family and struct
    /// answer `false` without looking at their displacements; for one that
    /// does ascend that costs host time only — `typemap::for_each_block`
    /// walks it piece by piece and merges the touching runs into the one
    /// block the fast path would have found.
    ///
    /// The list-carrying constructors copy their argument lists into lists
    /// freed types left behind ([`TypeRegistry::free`]), so a warm create
    /// allocates nothing.
    ///
    /// Ranks create types on their fiber stacks, so each arm is a function
    /// of its own: a debug build gives every temporary of a function its
    /// own stack slot, so one function holding every arm would cost each
    /// type a rank builds the frames of all of them.
    pub fn create(&mut self, def: TypeDef) -> MpiResult<Datatype> {
        let (attrs, ascending) = self.derive(&def)?;
        // every reader of a type takes `ub - lb` and `true_ub - true_lb`
        (attrs.ub.checked_sub(attrs.lb))
            .and(attrs.true_ub.checked_sub(attrs.true_lb))
            .ok_or_else(bounds_overflow)?;
        self.insert(TypeInfo {
            def,
            attrs,
            committed: false,
            ascending,
        })
    }

    /// Store `info` in the free list's head, else in a new slot.
    fn insert(&mut self, info: TypeInfo) -> MpiResult<Datatype> {
        let head = self.free.map(|s| s as usize);
        let (slot, generation, next) = match head.map(|s| (s, &self.slots[s])) {
            Some((s, &Slot::Free(g, next))) => (s, g, next),
            _ => (self.slots.len(), 0, None),
        };
        let handle = Datatype::new(slot, generation)?;
        if slot < self.slots.len() {
            (self.slots[slot], self.free) = (Slot::Live(generation, info), next);
        } else {
            self.slots.push(Slot::Live(generation, info));
        }
        Ok(handle)
    }

    /// [`TypeRegistry::create`]'s arms: the checked attributes of `def`
    /// and whether its typemap ascends.
    fn derive(&self, def: &TypeDef) -> MpiResult<(TypeAttrs, bool)> {
        match *def {
            TypeDef::Named(_) => Err(MpiError::InvalidArg("named types are predefined".into())),
            TypeDef::Dup { oldtype } => self.get(oldtype).map(|old| (old.attrs, old.ascending)),
            TypeDef::Contiguous { count, oldtype } => self.contiguous(count, oldtype),
            TypeDef::Vector {
                count,
                blocklength,
                stride,
                oldtype,
            } => self.vector(count, blocklength, stride, oldtype),
            TypeDef::Hvector {
                count,
                blocklength,
                stride_bytes,
                oldtype,
            } => self.hvector(count, blocklength, stride_bytes, oldtype),
            TypeDef::Indexed {
                ref blocklengths,
                ref displacements,
                oldtype,
            } => self.indexed(blocklengths, displacements, oldtype),
            TypeDef::IndexedBlock {
                blocklength,
                ref displacements,
                oldtype,
            } => self.indexed_block(blocklength, displacements, oldtype),
            TypeDef::Hindexed {
                ref blocklengths,
                ref displacements_bytes,
                oldtype,
            } => self.hindexed(blocklengths, displacements_bytes, oldtype),
            TypeDef::Subarray { ref dims, oldtype } => self.subarray(dims, dims.order(), oldtype),
            TypeDef::Struct {
                ref blocklengths,
                ref displacements_bytes,
                ref types,
            } => self.struct_of(blocklengths, displacements_bytes, types),
            TypeDef::Resized {
                lb,
                extent,
                oldtype,
            } => {
                let old = self.get(oldtype)?;
                let mut attrs = old.attrs;
                (attrs.lb, attrs.ub) = (lb, add(lb, extent)?);
                Ok((attrs, old.ascending))
            }
        }
    }

    fn contiguous(&self, count: i32, oldtype: Datatype) -> MpiResult<(TypeAttrs, bool)> {
        check_args(&[], &[count])?;
        let old = self.get(oldtype)?;
        // one block of `count` elements
        Ok((strided(old.attrs, 1, count, || Ok(0))?, tiles(old)))
    }

    fn vector(
        &self,
        count: i32,
        blocklength: i32,
        stride: i32,
        oldtype: Datatype,
    ) -> MpiResult<(TypeAttrs, bool)> {
        check_args(&[], &[count, blocklength])?;
        let old = self.get(oldtype)?;
        // two `i32`s multiply without overflow in an `i64`
        let last = || mul((count - 1) as i64 * stride as i64, old.attrs.extent());
        let attrs = strided(old.attrs, count, blocklength, last)?;
        Ok((attrs, tiles(old) && (count <= 1 || stride >= blocklength)))
    }

    fn hvector(
        &self,
        count: i32,
        blocklength: i32,
        stride_bytes: i64,
        oldtype: Datatype,
    ) -> MpiResult<(TypeAttrs, bool)> {
        check_args(&[], &[count, blocklength])?;
        let old = self.get(oldtype)?;
        let last = || mul((count - 1) as i64, stride_bytes);
        let attrs = strided(old.attrs, count, blocklength, last)?;
        let block = (blocklength as i64).saturating_mul(old.attrs.extent());
        Ok((attrs, tiles(old) && (count <= 1 || stride_bytes >= block)))
    }

    fn indexed(
        &self,
        blocklengths: &[i32],
        displacements: &[i32],
        oldtype: Datatype,
    ) -> MpiResult<(TypeAttrs, bool)> {
        check_args(&[blocklengths.len(), displacements.len()], blocklengths)?;
        let old = self.get(oldtype)?.attrs;
        let blocks = (blocklengths.iter().zip(displacements))
            .map(|(&n, &d)| Ok((old, n as i64, mul(d as i64, old.extent())?)));
        Ok((span(blocks)?, false))
    }

    fn indexed_block(
        &self,
        blocklength: i32,
        displacements: &[i32],
        oldtype: Datatype,
    ) -> MpiResult<(TypeAttrs, bool)> {
        check_args(&[], &[blocklength])?;
        let old = self.get(oldtype)?.attrs;
        let blocks = (displacements.iter())
            .map(|&d| Ok((old, blocklength as i64, mul(d as i64, old.extent())?)));
        Ok((span(blocks)?, false))
    }

    fn hindexed(
        &self,
        blocklengths: &[i32],
        displacements_bytes: &[i64],
        oldtype: Datatype,
    ) -> MpiResult<(TypeAttrs, bool)> {
        let lens = [blocklengths.len(), displacements_bytes.len()];
        check_args(&lens, blocklengths)?;
        let old = self.get(oldtype)?.attrs;
        let blocks = blocklengths.iter().zip(displacements_bytes);
        Ok((span(blocks.map(|(&n, &d)| Ok((old, n as i64, d))))?, false))
    }

    fn subarray(
        &self,
        dims: &[Dim],
        order: Order,
        oldtype: Datatype,
    ) -> MpiResult<(TypeAttrs, bool)> {
        check_dims(dims)?;
        let old = self.get(oldtype)?;
        let ex = old.attrs.extent();
        // elements in the full array: when it fits, so does every
        // stride and every offset inside it
        let full = dims.iter().try_fold(1, |n, d| mul(n, d.size as i64))?;
        // an element's offset: each index times its dimension's
        // stride, the running product of the faster sizes
        let at = |pick: fn(&Dim) -> i32| -> i64 {
            let step = |(at, stride): (i64, i64), d: &Dim| {
                (at + pick(d) as i64 * stride, stride * d.size as i64)
            };
            order.fastest_first(dims).fold((0, 1), step).0
        };
        let first = at(|d| d.start);
        let last = at(|d| d.start + d.subsize - 1);
        let nsub: u64 = dims.iter().map(|d| d.subsize as u64).product();
        let attrs = TypeAttrs {
            size: mul_size(nsub, old.attrs.size)?,
            // per MPI, a subarray's extent spans the *full* array
            lb: 0,
            ub: mul(full, ex)?,
            true_lb: add(mul(first, ex)?, old.attrs.true_lb)?,
            true_ub: add(mul(last, ex)?, old.attrs.true_ub)?,
        };
        Ok((attrs, tiles(old)))
    }

    fn struct_of(
        &self,
        blocklengths: &[i32],
        displacements_bytes: &[i64],
        types: &[Datatype],
    ) -> MpiResult<(TypeAttrs, bool)> {
        let lens = [blocklengths.len(), displacements_bytes.len(), types.len()];
        check_args(&lens, blocklengths)?;
        let blocks = (blocklengths.iter().zip(displacements_bytes).zip(types))
            .map(|((&n, &d), &t)| Ok((self.get(t)?.attrs, n as i64, d)));
        Ok((span(blocks)?, false))
    }

    // ---- introspection -------------------------------------------------

    /// `MPI_Type_get_envelope`.
    pub fn get_envelope(&self, dt: Datatype) -> MpiResult<Envelope> {
        let info = self.get(dt)?;
        let (ni, na, nd) = match &info.def {
            TypeDef::Named(_) => (0, 0, 0),
            TypeDef::Dup { .. } => (0, 0, 1),
            TypeDef::Contiguous { .. } => (1, 0, 1),
            TypeDef::Vector { .. } => (3, 0, 1),
            TypeDef::Hvector { .. } => (2, 1, 1),
            TypeDef::Indexed { blocklengths, .. } => (2 * blocklengths.len() + 1, 0, 1),
            TypeDef::IndexedBlock { displacements, .. } => (displacements.len() + 2, 0, 1),
            TypeDef::Hindexed { blocklengths, .. } => {
                (blocklengths.len() + 1, blocklengths.len(), 1)
            }
            TypeDef::Subarray { dims, .. } => (3 * dims.len() + 2, 0, 1),
            TypeDef::Struct { types, .. } => (types.len() + 1, types.len(), types.len()),
            TypeDef::Resized { .. } => (0, 2, 1),
        };
        Ok(Envelope {
            num_integers: ni,
            num_addresses: na,
            num_datatypes: nd,
            combiner: info.def.combiner(),
        })
    }

    /// `MPI_Type_get_contents` in the C API's form: the constructor
    /// arguments, encoded in the standard's layout, written to the front of
    /// the caller's three arrays, which the caller sized from the envelope.
    /// An array shorter than the envelope says is an
    /// [`MpiError::InvalidArg`]; nothing is allocated.
    pub fn get_contents(
        &self,
        dt: Datatype,
        integers: &mut [i64],
        addresses: &mut [i64],
        datatypes: &mut [Datatype],
    ) -> MpiResult<()> {
        let env = self.get_envelope(dt)?;
        let info = self.get(dt)?;
        let lens = (integers.len(), addresses.len(), datatypes.len());
        if lens.0 < env.num_integers || lens.1 < env.num_addresses || lens.2 < env.num_datatypes {
            return Err(MpiError::InvalidArg(format!(
                "MPI_Type_get_contents: arrays of {lens:?} elements are smaller than the envelope"
            )));
        }
        let (mut ints, mut addrs) = (Fill::new(integers), Fill::new(addresses));
        let mut dts = Fill::new(datatypes);
        match &info.def {
            TypeDef::Named(_) => {
                return Err(MpiError::InvalidArg(
                    "MPI_Type_get_contents is invalid on a named type".to_string(),
                ))
            }
            TypeDef::Dup { oldtype } => dts.push(*oldtype),
            TypeDef::Contiguous { count, oldtype } => {
                ints.push(*count as i64);
                dts.push(*oldtype);
            }
            TypeDef::Vector {
                count,
                blocklength,
                stride,
                oldtype,
            } => {
                ints.extend([*count as i64, *blocklength as i64, *stride as i64]);
                dts.push(*oldtype);
            }
            TypeDef::Hvector {
                count,
                blocklength,
                stride_bytes,
                oldtype,
            } => {
                ints.extend([*count as i64, *blocklength as i64]);
                addrs.push(*stride_bytes);
                dts.push(*oldtype);
            }
            TypeDef::Indexed {
                blocklengths,
                displacements,
                oldtype,
            } => {
                ints.push(blocklengths.len() as i64);
                ints.extend(blocklengths.iter().map(|&b| b as i64));
                ints.extend(displacements.iter().map(|&d| d as i64));
                dts.push(*oldtype);
            }
            TypeDef::IndexedBlock {
                blocklength,
                displacements,
                oldtype,
            } => {
                ints.push(displacements.len() as i64);
                ints.push(*blocklength as i64);
                ints.extend(displacements.iter().map(|&d| d as i64));
                dts.push(*oldtype);
            }
            TypeDef::Hindexed {
                blocklengths,
                displacements_bytes,
                oldtype,
            } => {
                ints.push(blocklengths.len() as i64);
                ints.extend(blocklengths.iter().map(|&b| b as i64));
                addrs.extend(displacements_bytes.iter().copied());
                dts.push(*oldtype);
            }
            TypeDef::Subarray { dims, oldtype } => {
                ints.push(dims.len() as i64);
                for pick in Dim::COLUMNS {
                    ints.extend(dims.iter().map(|d| pick(d) as i64));
                }
                ints.push(match dims.order() {
                    Order::C => 0,
                    Order::Fortran => 1,
                });
                dts.push(*oldtype);
            }
            TypeDef::Struct {
                blocklengths,
                displacements_bytes,
                types,
            } => {
                ints.push(blocklengths.len() as i64);
                ints.extend(blocklengths.iter().map(|&b| b as i64));
                addrs.extend(displacements_bytes.iter().copied());
                dts.extend(types.iter().copied());
            }
            TypeDef::Resized {
                lb,
                extent,
                oldtype,
            } => {
                addrs.extend([*lb, *extent]);
                dts.push(*oldtype);
            }
        }
        debug_assert_eq!(
            (ints.len, addrs.len, dts.len),
            (env.num_integers, env.num_addresses, env.num_datatypes),
            "contents disagree with the envelope"
        );
        Ok(())
    }

    /// [`TypeRegistry::get_contents`] into three arrays of the envelope's
    /// sizes, allocated here: the owned form, for tools and tests.
    pub fn contents(&self, dt: Datatype) -> MpiResult<Contents> {
        let env = self.get_envelope(dt)?;
        let mut c = Contents {
            integers: vec![0; env.num_integers],
            addresses: vec![0; env.num_addresses],
            datatypes: vec![Datatype(0); env.num_datatypes],
        };
        self.get_contents(dt, &mut c.integers, &mut c.addresses, &mut c.datatypes)?;
        Ok(c)
    }
}

/// One of `MPI_Type_get_contents`' caller-owned arrays, written from the
/// front; the envelope has been checked to fit it.
struct Fill<'a, T> {
    out: &'a mut [T],
    len: usize,
}

impl<'a, T> Fill<'a, T> {
    fn new(out: &'a mut [T]) -> Self {
        Fill { out, len: 0 }
    }

    fn push(&mut self, v: T) {
        self.out[self.len] = v;
        self.len += 1;
    }

    fn extend(&mut self, vs: impl IntoIterator<Item = T>) {
        vs.into_iter().for_each(|v| self.push(v));
    }
}

/// `(old, n, disp)`: `n` elements of a type with attributes `old`,
/// `extent(old)` apart, the first at byte `disp`.
type Block = (TypeAttrs, i64, i64);

/// The attributes of a typemap made of `blocks`, in any order. A
/// zero-length block adds nothing, and a block of elements without data
/// nothing to the true bounds, which cover data only: a type of no data
/// has true bounds `(0, 0)`, a type of no blocks is empty. A block its
/// caller could not place is passed on as its error.
///
/// Generic over each caller's iterator, so it is only the loop: the fold
/// is [`Span`]'s, compiled once.
fn span(blocks: impl IntoIterator<Item = MpiResult<Block>>) -> MpiResult<TypeAttrs> {
    let mut span = Span::default();
    for block in blocks {
        span.add(block?)?;
    }
    Ok(span.attrs())
}

/// [`span`]'s running fold: bytes of data, the hull of the blocks' bounds
/// and the hull of their data's true bounds.
#[derive(Default)]
struct Span {
    size: u64,
    bounds: Option<(i64, i64)>,
    data: Option<(i64, i64)>,
}

impl Span {
    fn add(&mut self, (old, n, disp): Block) -> MpiResult<()> {
        if n == 0 {
            return Ok(());
        }
        self.fold(old, n, disp).ok_or_else(bounds_overflow)
    }

    /// [`Span::add`] of a block of `n > 0` elements; `None` when a size or
    /// bound overflows.
    fn fold(&mut self, old: TypeAttrs, n: i64, disp: i64) -> Option<()> {
        // where the last element starts, relative to the first
        let last = (n - 1).checked_mul(old.extent())?;
        let (lo, hi) = (
            disp.checked_add(last.min(0))?,
            disp.checked_add(last.max(0))?,
        );
        let bytes = (n as u64).checked_mul(old.size)?;
        self.size = bytes.checked_add(self.size)?;
        let bounds = (lo.checked_add(old.lb)?, hi.checked_add(old.ub)?);
        self.bounds = hull(self.bounds, bounds);
        if bytes > 0 {
            let data = (lo.checked_add(old.true_lb)?, hi.checked_add(old.true_ub)?);
            self.data = hull(self.data, data);
        }
        Some(())
    }

    fn attrs(self) -> TypeAttrs {
        let ((lb, ub), (true_lb, true_ub)) =
            (self.bounds.unwrap_or((0, 0)), self.data.unwrap_or((0, 0)));
        TypeAttrs {
            size: self.size,
            lb,
            ub,
            true_lb,
            true_ub,
        }
    }
}

/// The smallest interval holding `a` (if any) and `lo..hi`.
fn hull(a: Option<(i64, i64)>, (lo, hi): (i64, i64)) -> Option<(i64, i64)> {
    Some(a.map_or((lo, hi), |(l, h)| (l.min(lo), h.max(hi))))
}

/// [`span`] of `count` blocks of `blocklength` elements of `old`, the first
/// at byte 0 and the last at byte `last()`: the blocks between reach no
/// bound of their own, so only the two ends are folded, and the size is
/// counted for all `count`.
fn strided(
    old: TypeAttrs,
    count: i32,
    blocklength: i32,
    last: impl FnOnce() -> MpiResult<i64>,
) -> MpiResult<TypeAttrs> {
    let end = (count > 1 && blocklength > 0).then(last);
    let ends = [0, end.transpose()?.unwrap_or(0)];
    let blocks = ends[..count.min(2) as usize].iter();
    let size = mul_size(count as u64 * blocklength as u64, old.size)?;
    Ok(TypeAttrs {
        size,
        ..span(blocks.map(|&at| Ok((old, blocklength as i64, at))))?
    })
}

/// An element type whose own typemap ascends and fills its extent.
fn tiles(old: &TypeInfo) -> bool {
    old.ascending && old.attrs.is_dense()
}

/// What a subarray's dimensions must satisfy: at least one, each with
/// `1 <= subsize <= size` and `0 <= start <= size - subsize`.
fn check_dims(dims: &[Dim]) -> MpiResult<()> {
    if dims.is_empty() {
        return Err(MpiError::InvalidArg("subarray needs ndims >= 1".into()));
    }
    for (i, d) in dims.iter().enumerate() {
        let (size, sub, start) = (d.size, d.subsize, d.start);
        if size < 1 || sub < 1 || sub > size || start < 0 || start > size - sub {
            return Err(MpiError::InvalidArg(format!(
                "dimension {i}: size {size}, subsize {sub}, start {start} \
                 (need 1 <= subsize <= size, 0 <= start <= size - subsize)"
            )));
        }
    }
    Ok(())
}

/// What every constructor's integer arguments must satisfy: its lists
/// equally long, its counts and blocklengths not negative.
fn check_args(lens: &[usize], counts: &[i32]) -> MpiResult<()> {
    let bad = if lens.windows(2).any(|w| w[0] != w[1]) {
        format!("argument lists differ in length: {lens:?}")
    } else if let Some(c) = counts.iter().find(|&&c| c < 0) {
        format!("negative count or blocklength {c}")
    } else {
        return Ok(());
    };
    Err(MpiError::InvalidArg(bad))
}

/// What a constructor returns when a size or bound of the new type does
/// not fit: MPI has no such type, and arithmetic that wrapped would hand
/// every later pack a wrong extent.
fn bounds_overflow() -> MpiError {
    MpiError::InvalidArg("datatype size or bounds overflow".to_string())
}

fn add(a: i64, b: i64) -> MpiResult<i64> {
    a.checked_add(b).ok_or_else(bounds_overflow)
}

fn mul(a: i64, b: i64) -> MpiResult<i64> {
    a.checked_mul(b).ok_or_else(bounds_overflow)
}

fn mul_size(a: u64, b: u64) -> MpiResult<u64> {
    a.checked_mul(b).ok_or_else(bounds_overflow)
}

#[cfg(test)]
mod tests {
    use super::consts::*;
    use super::*;
    use crate::datatype::{Combiner, TypeTree};
    use crate::{RankCtx, WorldConfig};

    /// A rank to build types through: its constructors are the only way
    /// into a registry besides [`TypeRegistry::create`].
    fn rank() -> RankCtx {
        RankCtx::standalone(&WorldConfig::summit(1))
    }

    #[test]
    fn named_types_preregistered() {
        let r = TypeRegistry::new();
        assert_eq!(r.size(MPI_FLOAT).unwrap(), 4);
        assert_eq!(r.extent(MPI_DOUBLE).unwrap(), (0, 8));
        assert!(r.is_committed(MPI_BYTE).unwrap());
        assert_eq!(r.live(), 12);
    }

    #[test]
    fn contiguous_attrs() {
        let mut ctx = rank();
        let t = ctx.type_contiguous(100, MPI_FLOAT).unwrap();
        let mut r = ctx.registry().write();
        assert_eq!(r.size(t).unwrap(), 400);
        assert_eq!(r.extent(t).unwrap(), (0, 400));
        assert!(!r.is_committed(t).unwrap());
        r.commit(t).unwrap();
        assert!(r.is_committed(t).unwrap());
    }

    #[test]
    fn contiguous_zero_count_is_empty() {
        let mut ctx = rank();
        let t = ctx.type_contiguous(0, MPI_INT).unwrap();
        let r = ctx.registry().read();
        assert_eq!(r.size(t).unwrap(), 0);
        assert_eq!(r.extent(t).unwrap(), (0, 0));
    }

    #[test]
    fn vector_extent_spans_first_to_last_byte() {
        let mut ctx = rank();
        // 13 blocks of 100 floats, stride 128 elements
        let t = ctx.type_vector(13, 100, 128, MPI_FLOAT).unwrap();
        let r = ctx.registry().read();
        assert_eq!(r.size(t).unwrap(), 13 * 100 * 4);
        // extent: (12*128 + 100) * 4 = 6544
        assert_eq!(r.extent(t).unwrap(), (0, (12 * 128 + 100) * 4));
    }

    #[test]
    fn vector_negative_stride_bounds() {
        let mut ctx = rank();
        let t = ctx.type_vector(3, 2, -4, MPI_INT).unwrap();
        // blocks at element offsets 0, -4, -8; elements at {0,1} within
        let (lb, extent) = ctx.registry().read().extent(t).unwrap();
        assert_eq!(lb, -8 * 4);
        assert_eq!(extent, (-8 * 4..2 * 4).len() as i64);
    }

    #[test]
    fn hvector_stride_is_bytes() {
        let mut ctx = rank();
        let t = ctx.type_create_hvector(13, 1, 256, MPI_BYTE).unwrap();
        let r = ctx.registry().read();
        assert_eq!(r.size(t).unwrap(), 13);
        assert_eq!(r.extent(t).unwrap(), (0, 12 * 256 + 1));
    }

    #[test]
    fn subarray_extent_is_full_array() {
        let mut ctx = rank();
        let t = ctx
            .type_create_subarray(&[256, 512], &[13, 100], &[0, 0], Order::C, MPI_BYTE)
            .unwrap();
        let r = ctx.registry().read();
        assert_eq!(r.size(t).unwrap(), 13 * 100);
        // Per MPI: lb = 0, extent = full array
        assert_eq!(r.extent(t).unwrap(), (0, 256 * 512));
        // true extent covers first..last actual byte
        let (tlb, text) = r.true_extent(t).unwrap();
        assert_eq!(tlb, 0);
        assert_eq!(text, 12 * 512 + 100);
    }

    #[test]
    fn subarray_with_starts_offsets_true_lb() {
        let mut ctx = rank();
        let t = ctx
            .type_create_subarray(&[8, 16], &[2, 4], &[3, 5], Order::C, MPI_FLOAT)
            .unwrap();
        let r = ctx.registry().read();
        let (tlb, _) = r.true_extent(t).unwrap();
        assert_eq!(tlb, (3 * 16 + 5) * 4);
        assert_eq!(r.extent(t).unwrap(), (0, 8 * 16 * 4));
    }

    #[test]
    fn subarray_fortran_order_reverses_strides() {
        // a 4 x 6 x 8 array steps (48, 8, 1) elements per index in C
        // order, (1, 4, 24) in Fortran: its 2 x 2 x 2 block at (1, 1, 1)
        // starts and ends there
        let mut ctx = rank();
        for (order, at) in [(Order::C, 48 + 8 + 1), (Order::Fortran, 1 + 4 + 24)] {
            let t = ctx.type_create_subarray(&[4, 6, 8], &[2; 3], &[1; 3], order, MPI_BYTE);
            assert_eq!(
                ctx.registry().read().true_extent(t.unwrap()).unwrap(),
                (at, at + 1),
                "{order:?}"
            );
        }
    }

    #[test]
    fn subarray_validation() {
        let mut ctx = rank();
        assert!(ctx
            .type_create_subarray(&[], &[], &[], Order::C, MPI_BYTE)
            .is_err());
        assert!(ctx
            .type_create_subarray(&[4], &[5], &[0], Order::C, MPI_BYTE)
            .is_err());
        assert!(ctx
            .type_create_subarray(&[4], &[2], &[3], Order::C, MPI_BYTE)
            .is_err());
        assert!(ctx
            .type_create_subarray(&[4], &[0], &[0], Order::C, MPI_BYTE)
            .is_err());
        // lists of different lengths describe no dimensions
        let live = ctx.registry().read().live();
        for (sizes, subsizes, starts) in [
            (&[4, 4][..], &[2][..], &[0][..]),
            (&[4][..], &[2][..], &[0, 0][..]),
        ] {
            let res = ctx.type_create_subarray(sizes, subsizes, starts, Order::C, MPI_BYTE);
            assert!(matches!(res, Err(MpiError::InvalidArg(m)) if m.contains("differ in length")));
        }
        let live_after = ctx.registry().read().live();
        assert_eq!(live_after, live, "a rejected constructor inserted a handle");
    }

    #[test]
    fn indexed_attrs_and_size() {
        let mut ctx = rank();
        let t = ctx.type_indexed(&[2, 0, 3], &[10, 99, 0], MPI_INT).unwrap();
        let r = ctx.registry().read();
        assert_eq!(r.size(t).unwrap(), 5 * 4);
        // blocks: [40..48), [0..12); zero-length block ignored
        assert_eq!(r.extent(t).unwrap(), (0, 48));
    }

    #[test]
    fn indexed_block_attrs_and_introspection() {
        let mut ctx = rank();
        let t = ctx
            .type_create_indexed_block(2, &[8, 0, 4], MPI_INT)
            .unwrap();
        let r = ctx.registry().read();
        assert_eq!(r.size(t).unwrap(), 3 * 2 * 4);
        // blocks at elements 8, 0, 4 of 2 ints each: bytes [0, 40)
        assert_eq!(r.extent(t).unwrap(), (0, 40));
        let e = r.get_envelope(t).unwrap();
        assert_eq!(e.combiner, Combiner::IndexedBlock);
        assert_eq!(e.num_integers, 5); // count + blocklength + 3 displs
        assert_eq!(e.num_datatypes, 1);
        let c = r.contents(t).unwrap();
        assert_eq!(c.integers, vec![3, 2, 8, 0, 4]);
        assert_eq!(c.datatypes, vec![MPI_INT]);
        let tree = TypeTree::of(&r, t).unwrap();
        assert_eq!(tree.to_string(), "indexed_block(2, [8, 0, 4], int)");
        drop(r);
        assert!(ctx.type_create_indexed_block(-1, &[0], MPI_INT).is_err());
    }

    #[test]
    fn indexed_block_matches_equivalent_indexed() {
        let mut ctx = rank();
        let ib = ctx
            .type_create_indexed_block(2, &[6, 0], MPI_FLOAT)
            .unwrap();
        let ix = ctx.type_indexed(&[2, 2], &[6, 0], MPI_FLOAT).unwrap();
        let r = ctx.registry().read();
        assert_eq!(r.attrs(ib).unwrap(), r.attrs(ix).unwrap());
        assert_eq!(
            super::super::typemap::segments(&r, ib).unwrap(),
            super::super::typemap::segments(&r, ix).unwrap()
        );
    }

    #[test]
    fn hindexed_displacements_are_bytes() {
        let mut ctx = rank();
        let t = ctx
            .type_create_hindexed(&[1, 1], &[100, 0], MPI_DOUBLE)
            .unwrap();
        assert_eq!(ctx.registry().read().extent(t).unwrap(), (0, 108));
    }

    #[test]
    fn struct_mixed_types() {
        let mut ctx = rank();
        let t = ctx
            .type_create_struct(&[2, 1], &[0, 16], &[MPI_INT, MPI_DOUBLE])
            .unwrap();
        let r = ctx.registry().read();
        assert_eq!(r.size(t).unwrap(), 16);
        assert_eq!(r.extent(t).unwrap(), (0, 24));
    }

    #[test]
    fn resized_overrides_bounds() {
        let mut ctx = rank();
        let v = ctx.type_vector(2, 1, 4, MPI_FLOAT).unwrap();
        let t = ctx.type_create_resized(v, -4, 64).unwrap();
        let r = ctx.registry().read();
        assert_eq!(r.extent(t).unwrap(), (-4, 64));
        // true extent unchanged
        assert_eq!(r.true_extent(t).unwrap(), (0, 20));
        assert_eq!(r.size(t).unwrap(), 8);
    }

    #[test]
    fn dup_copies_attrs() {
        let mut ctx = rank();
        let v = ctx.type_vector(3, 2, 5, MPI_INT).unwrap();
        let d = ctx.type_dup(v).unwrap();
        let r = ctx.registry().read();
        assert_eq!(r.attrs(d).unwrap(), r.attrs(v).unwrap());
    }

    #[test]
    fn nested_type_attrs_compose() {
        let mut ctx = rank();
        // Fig. 2 middle construction: row = vector(100,1,1,BYTE);
        // plane = hvector(13,1,256,row); cuboid = hvector(47,1,131072,plane)
        let row = ctx.type_vector(100, 1, 1, MPI_BYTE).unwrap();
        let plane = ctx.type_create_hvector(13, 1, 256, row).unwrap();
        let cuboid = ctx.type_create_hvector(47, 1, 256 * 512, plane).unwrap();
        let r = ctx.registry().read();
        assert_eq!(r.extent(row).unwrap(), (0, 100));
        assert_eq!(r.size(plane).unwrap(), 1300);
        assert_eq!(r.extent(plane).unwrap(), (0, 12 * 256 + 100));
        assert_eq!(r.size(cuboid).unwrap(), 47 * 13 * 100);
        assert_eq!(
            r.extent(cuboid).unwrap(),
            (0, 46 * 256 * 512 + 12 * 256 + 100)
        );
    }

    #[test]
    fn free_and_use_after_free() {
        let mut ctx = rank();
        let t = ctx.type_contiguous(4, MPI_INT).unwrap();
        let mut r = ctx.registry().write();
        r.free(t).unwrap();
        assert_eq!(r.size(t), Err(MpiError::InvalidDatatype));
        assert_eq!(r.free(t), Err(MpiError::InvalidDatatype));
        assert!(r.free(MPI_INT).is_err());
    }

    #[test]
    fn a_freed_handle_stays_dead_after_its_slot_is_reused() {
        use super::super::typemap::segments;
        let mut ctx = rank();
        let row = ctx.type_contiguous(4, MPI_INT).unwrap();
        let plane = ctx.type_vector(3, 1, 2, row).unwrap();
        // a slot's first occupant is named by the slot index itself
        assert_eq!((row, plane), (Datatype(12), Datatype(13)));
        ctx.type_free(row).unwrap();
        // an unrelated type takes the child's slot, one generation on
        let other = ctx.type_create_hvector(2, 1, 64, MPI_DOUBLE).unwrap();
        assert_eq!((other.slot(), other.generation()), (row.slot(), 1));
        let mut r = ctx.registry().write();
        assert_eq!(r.slot_count(), 14, "the freed slot was reused");
        let dead = MpiError::InvalidDatatype;
        assert_eq!(segments(&r, plane).unwrap_err(), dead);
        assert_eq!(r.size(row).unwrap_err(), dead);
        assert_eq!(r.extent(row).unwrap_err(), dead);
        assert_eq!(r.commit(row).unwrap_err(), dead);
        assert_eq!(r.get_envelope(row).unwrap_err(), dead);
        assert_eq!(r.free(row).unwrap_err(), dead, "a double free is an error");
        // none of which touched the slot's new occupant
        assert_eq!(r.size(other), Ok(16));
        assert!(!r.is_committed(other).unwrap());
        assert_eq!(r.live(), 14);
    }

    #[test]
    fn freed_slots_are_reused_last_in_first_out() {
        let mut ctx = rank();
        let ts: Vec<_> = (0..3).map(|_| ctx.type_dup(MPI_INT).unwrap()).collect();
        for &t in &ts {
            ctx.type_free(t).unwrap();
        }
        let again: Vec<_> = (0..4)
            .map(|_| ctx.type_dup(MPI_INT).unwrap().slot())
            .collect();
        assert_eq!(again, [ts[2].slot(), ts[1].slot(), ts[0].slot(), 15]);
    }

    #[test]
    fn a_slot_is_reused_past_every_small_generation() {
        let mut ctx = rank();
        let first = ctx.type_contiguous(2, MPI_BYTE).unwrap();
        let mut t = first;
        let mut dead = Vec::new();
        for g in 0..300 {
            assert_eq!((t.slot(), t.generation()), (first.slot(), g));
            ctx.type_free(t).unwrap();
            dead.push(t);
            t = ctx.type_contiguous(2, MPI_BYTE).unwrap();
        }
        // past the 256 generations an 8-bit field would count, the slot
        // is still reused, and the table has not grown
        assert_eq!((t.slot(), t.generation()), (first.slot(), 300));
        let mut r = ctx.registry().write();
        assert_eq!((r.live(), r.slot_count()), (13, 13));
        // and no earlier handle names its occupant
        let invalid = Err(MpiError::InvalidDatatype);
        for &d in &dead {
            assert!(r.info(d).is_err(), "{d:?}");
            assert_eq!(r.commit(d), invalid, "{d:?}");
            assert_eq!(r.free(d), invalid, "{d:?}");
        }
        assert!(!r.is_committed(t).unwrap());
    }

    /// Put the free list's head, `dt`'s slot, at generation `generation`:
    /// how a test reaches a slot's last generation without 2^32 frees.
    fn start_generation_at(r: &mut TypeRegistry, dt: Datatype, generation: u32) {
        match &mut r.slots[dt.slot()] {
            Slot::Free(g, _) if r.free == Some(dt.slot() as u32) => *g = generation,
            other => panic!("{dt:?} is not the free list's head: {other:?}"),
        }
    }

    #[test]
    fn a_slot_freed_at_its_last_generation_retires() {
        let mut ctx = rank();
        let first = ctx.type_contiguous(2, MPI_BYTE).unwrap();
        ctx.type_free(first).unwrap();
        start_generation_at(&mut ctx.registry().write(), first, u32::MAX);
        let last = ctx.type_contiguous(2, MPI_BYTE).unwrap();
        assert_eq!((last.slot(), last.generation()), (first.slot(), u32::MAX));
        ctx.type_free(last).unwrap();
        // freed at generation u32::MAX, the slot is retired: no handle
        // wraps around to generation 0, and the next type takes a new slot
        let t = ctx.type_contiguous(2, MPI_BYTE).unwrap();
        assert_eq!((t.slot(), t.generation()), (first.slot() + 1, 0));
        {
            let r = ctx.registry().read();
            for d in [first, last] {
                assert_eq!(r.size(d), Err(MpiError::InvalidDatatype));
            }
            assert_eq!((r.live(), r.slot_count()), (13, 14));
        }
        ctx.type_free(t).unwrap();
        assert_eq!(ctx.type_dup(MPI_BYTE).unwrap().slot(), t.slot());
    }

    #[test]
    fn a_slot_is_a_type_record_and_its_generation() {
        assert_eq!(size_of::<Slot>(), 128);
    }

    #[test]
    fn a_slot_past_the_handle_bits_is_an_error_not_a_wrapped_handle() {
        let last = (1 << Datatype::SLOT_BITS) - 1;
        let h = Datatype::new(last, u32::MAX).unwrap();
        assert_eq!((h.slot(), h.generation()), (last, u32::MAX));
        assert_eq!(h, Datatype(u64::MAX));
        for slot in [last + 1, usize::MAX] {
            assert_eq!(Datatype::new(slot, 0), Err(MpiError::HandlesExhausted));
        }
        // named handles are generation 0 of their slots
        assert_eq!((MPI_DOUBLE.slot(), MPI_DOUBLE.generation()), (11, 0));
        assert_eq!(Datatype::new(5, 1).unwrap().named_index(), None);
    }

    #[test]
    fn envelope_shapes() {
        let mut ctx = rank();
        let v = ctx.type_vector(2, 3, 4, MPI_INT).unwrap();
        let s = ctx
            .type_create_subarray(&[4, 4], &[2, 2], &[0, 0], Order::C, MPI_INT)
            .unwrap();
        let r = ctx.registry().read();
        let e = r.get_envelope(v).unwrap();
        assert_eq!(
            e,
            Envelope {
                num_integers: 3,
                num_addresses: 0,
                num_datatypes: 1,
                combiner: Combiner::Vector
            }
        );
        let e = r.get_envelope(s).unwrap();
        assert_eq!(e.num_integers, 8);
        assert_eq!(e.combiner, Combiner::Subarray);
        assert_eq!(r.get_envelope(MPI_INT).unwrap().combiner, Combiner::Named);
    }

    #[test]
    fn contents_roundtrip_vector() {
        let mut ctx = rank();
        let v = ctx.type_vector(13, 100, 128, MPI_FLOAT).unwrap();
        let c = ctx.registry().read().contents(v).unwrap();
        assert_eq!(c.integers, vec![13, 100, 128]);
        assert_eq!(c.datatypes, vec![MPI_FLOAT]);
        assert!(c.addresses.is_empty());
    }

    #[test]
    fn contents_roundtrip_subarray() {
        let mut ctx = rank();
        let s = ctx
            .type_create_subarray(&[256, 512], &[13, 100], &[1, 2], Order::C, MPI_BYTE)
            .unwrap();
        let c = ctx.registry().read().contents(s).unwrap();
        assert_eq!(c.integers, vec![2, 256, 512, 13, 100, 1, 2, 0]);
        assert_eq!(c.datatypes, vec![MPI_BYTE]);
    }

    #[test]
    fn contents_on_named_is_an_error() {
        let r = TypeRegistry::new();
        assert!(r.contents(MPI_INT).is_err());
    }

    #[test]
    fn describe_renders_nested() {
        let mut ctx = rank();
        let row = ctx.type_contiguous(4, MPI_FLOAT).unwrap();
        let v = ctx.type_vector(2, 1, 3, row).unwrap();
        assert_eq!(ctx.describe(v), "vector(2, 1, 3, contiguous(4, float))");
        ctx.type_free(v).unwrap();
        assert_eq!(ctx.describe(v), format!("<dead #{}>", v.0));
    }

    #[test]
    fn validation_rejects_negatives() {
        let mut ctx = rank();
        assert!(ctx.type_contiguous(-1, MPI_INT).is_err());
        assert!(ctx.type_vector(-1, 1, 1, MPI_INT).is_err());
        assert!(ctx.type_vector(1, -1, 1, MPI_INT).is_err());
        assert!(ctx.type_indexed(&[1], &[0, 1], MPI_INT).is_err());
        assert!(ctx.type_indexed(&[-1], &[0], MPI_INT).is_err());
        // the named types are predefined, never created
        let named = ctx.registry().write().create(TypeDef::Named(Named::Int));
        assert!(named.is_err());
    }

    /// Bounds that do not fit are an argument error in debug and release
    /// alike — never a panic, never a wrapped extent — and leave no handle
    /// behind.
    #[test]
    fn overflowing_bounds_are_invalid_arguments_and_insert_nothing() {
        let mut ctx = rank();
        let a = ctx.type_contiguous(i32::MAX, MPI_BYTE).unwrap();
        let b = ctx.type_contiguous(i32::MAX, a).unwrap();
        assert_eq!(
            ctx.registry().read().size(b).unwrap(),
            (i32::MAX as u64).pow(2)
        );
        let half = ctx.type_create_resized(MPI_BYTE, 0, i64::MAX / 2).unwrap();
        let live = ctx.registry().read().live();
        let rejected = |res: MpiResult<Datatype>| matches!(res, Err(MpiError::InvalidArg(_)));
        // contiguous nested three deep: size and upper bound pass 2^64
        assert!(rejected(ctx.type_contiguous(i32::MAX, b)));
        // one block whose last element reaches past i64::MAX
        assert!(rejected(ctx.type_vector(1, i32::MAX, 1, b)));
        // (count - 1) * stride * extent
        assert!(rejected(ctx.type_vector(i32::MAX, 1, i32::MAX, b)));
        assert!(rejected(ctx.type_vector(3, 1, i32::MIN, b)));
        // the second block starts at i64::MAX: its upper bound is one past
        assert!(rejected(ctx.type_create_hvector(2, 1, i64::MAX, MPI_BYTE)));
        assert!(rejected(ctx.type_create_hvector(3, 1, i64::MAX, MPI_BYTE)));
        assert!(rejected(ctx.type_create_hvector(3, 1, i64::MIN, MPI_INT)));
        // blocks * blocklength * size
        assert!(rejected(ctx.type_create_hvector(4, i32::MAX, 0, b)));
        // a block's last byte past i64::MAX, in bytes and in elements
        assert!(rejected(ctx.type_create_hindexed(
            &[2],
            &[i64::MAX],
            MPI_INT
        )));
        assert!(rejected(ctx.type_create_struct(
            &[2],
            &[i64::MAX],
            &[MPI_INT]
        )));
        assert!(rejected(ctx.type_indexed(&[1], &[4], half)));
        assert!(rejected(ctx.type_create_indexed_block(1, &[4], half)));
        // the full array's extent, and an upper bound one past
        let huge = [i32::MAX; 3];
        let sub = ctx.type_create_subarray(&huge, &[1; 3], &[0; 3], Order::C, MPI_BYTE);
        assert!(rejected(sub));
        assert!(rejected(ctx.type_create_resized(MPI_BYTE, i64::MAX, 1)));
        // members of (2^31 - 1)^3 bytes each
        assert!(rejected(ctx.type_create_struct(
            &[i32::MAX; 2],
            &[0, 0],
            &[b, b]
        )));
        // bounds that each fit, with an extent between them that does not
        let ends = [i64::MIN, i64::MAX - 1];
        assert!(rejected(ctx.type_create_hindexed(&[1, 1], &ends, MPI_BYTE)));
        let live_after = ctx.registry().read().live();
        assert_eq!(live_after, live, "a rejected constructor inserted a handle");
        // the largest bounds that do fit are still accepted
        let edge = ctx
            .type_create_hvector(2, 1, i64::MAX - 1, MPI_BYTE)
            .unwrap();
        assert_eq!(ctx.registry().read().extent(edge).unwrap(), (0, i64::MAX));
    }

    #[test]
    fn invalid_handle_rejected() {
        let r = TypeRegistry::new();
        assert_eq!(r.size(Datatype(9999)), Err(MpiError::InvalidDatatype));
    }
}

//! Datatype registry: construction, attributes, and introspection.
//!
//! One [`TypeRegistry`] is shared by all ranks of a simulated world (MPI
//! datatypes are per-process, but the constructions in all experiments are
//! identical across ranks; sharing keeps handles comparable in tests).
//! The named types occupy fixed handles (see [`consts`]).

use super::named::Named;
use super::{Contents, Datatype, Envelope, Order, TypeAttrs, TypeDef, TypeInfo};
use crate::error::{MpiError, MpiResult};

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

/// The registry of live datatypes.
#[derive(Debug)]
pub struct TypeRegistry {
    slots: Vec<Option<TypeInfo>>,
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
                Some(TypeInfo {
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
                })
            })
            .collect();
        TypeRegistry { slots }
    }

    fn get(&self, dt: Datatype) -> MpiResult<&TypeInfo> {
        self.slots
            .get(dt.0 as usize)
            .and_then(|s| s.as_ref())
            .ok_or(MpiError::InvalidDatatype)
    }

    fn insert(&mut self, def: TypeDef, attrs: TypeAttrs) -> Datatype {
        let handle = Datatype(self.slots.len() as u32);
        let ascending = self.ascends(&def);
        self.slots.push(Some(TypeInfo {
            def,
            attrs,
            committed: false,
            ascending,
        }));
        handle
    }

    /// [`TypeInfo::ascending`] of a construction over live children:
    /// elements that ascend and tile, repeated at strides that do not step
    /// back over each other. The indexed family and struct answer `false`
    /// without looking at their displacements; for one that does ascend
    /// that costs host time only — `typemap::segments` walks it block by
    /// block and `push_seg` merges the touching runs into the same single
    /// segment the fast path would have emitted.
    fn ascends(&self, def: &TypeDef) -> bool {
        // the element type, if its own typemap ascends and fills its extent
        let tiling = |oldtype: &Datatype| {
            self.get(*oldtype)
                .ok()
                .filter(|old| old.ascending && old.attrs.is_dense())
        };
        match def {
            TypeDef::Named(_) => true,
            TypeDef::Dup { oldtype } | TypeDef::Resized { oldtype, .. } => {
                self.get(*oldtype).is_ok_and(|old| old.ascending)
            }
            TypeDef::Contiguous { oldtype, .. } | TypeDef::Subarray { oldtype, .. } => {
                tiling(oldtype).is_some()
            }
            TypeDef::Vector {
                count,
                blocklength,
                stride,
                oldtype,
            } => tiling(oldtype).is_some() && (*count <= 1 || stride >= blocklength),
            TypeDef::Hvector {
                count,
                blocklength,
                stride_bytes,
                oldtype,
            } => tiling(oldtype).is_some_and(|old| {
                *count <= 1 || *stride_bytes >= *blocklength as i64 * old.attrs.extent()
            }),
            TypeDef::Indexed { .. }
            | TypeDef::IndexedBlock { .. }
            | TypeDef::Hindexed { .. }
            | TypeDef::Struct { .. } => false,
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
        let slot = self
            .slots
            .get_mut(dt.0 as usize)
            .and_then(|s| s.as_mut())
            .ok_or(MpiError::InvalidDatatype)?;
        slot.committed = true;
        Ok(())
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
    pub fn free(&mut self, dt: Datatype) -> MpiResult<()> {
        if dt.named_index().is_some() {
            return Err(MpiError::InvalidArg(
                "cannot free a named datatype".to_string(),
            ));
        }
        let slot = self
            .slots
            .get_mut(dt.0 as usize)
            .ok_or(MpiError::InvalidDatatype)?;
        if slot.take().is_none() {
            return Err(MpiError::InvalidDatatype);
        }
        Ok(())
    }

    /// Number of live handles (named + derived).
    pub fn live(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    // ---- constructors -------------------------------------------------

    /// `MPI_Type_dup`.
    pub fn type_dup(&mut self, oldtype: Datatype) -> MpiResult<Datatype> {
        let attrs = self.get(oldtype)?.attrs;
        Ok(self.insert(TypeDef::Dup { oldtype }, attrs))
    }

    /// `MPI_Type_contiguous`.
    pub fn type_contiguous(&mut self, count: i32, oldtype: Datatype) -> MpiResult<Datatype> {
        if count < 0 {
            return Err(MpiError::InvalidArg(format!("negative count {count}")));
        }
        let old = self.get(oldtype)?.attrs;
        let attrs = if count == 0 {
            TypeAttrs::EMPTY
        } else {
            // where the last element starts, relative to the first
            let last = mul(count as i64 - 1, old.extent())?;
            let size = (count as u64).checked_mul(old.size);
            TypeAttrs {
                size: size.ok_or_else(bounds_overflow)?,
                lb: add(old.lb, last.min(0))?,
                ub: add(old.ub, last.max(0))?,
                true_lb: add(old.true_lb, last.min(0))?,
                true_ub: add(old.true_ub, last.max(0))?,
            }
        };
        Ok(self.insert(TypeDef::Contiguous { count, oldtype }, attrs))
    }

    /// Shared bound math for vector-like constructions: blocks start at the
    /// byte displacements in `block_disps`; within a block, elements are
    /// `extent(old)` apart, `blocklength` per block.
    fn block_attrs(
        old: TypeAttrs,
        block_disps: impl Iterator<Item = i64>,
        blocklength: i64,
        total_blocks: u64,
    ) -> MpiResult<TypeAttrs> {
        let last = mul(blocklength - 1, old.extent())?;
        let mut lb = i64::MAX;
        let mut ub = i64::MIN;
        let mut tlb = i64::MAX;
        let mut tub = i64::MIN;
        let mut any = false;
        for d in block_disps {
            any = true;
            let (lo, hi) = if last >= 0 {
                (d, add(d, last)?)
            } else {
                (add(d, last)?, d)
            };
            lb = lb.min(add(lo, old.lb)?);
            ub = ub.max(add(hi, old.ub)?);
            tlb = tlb.min(add(lo, old.true_lb)?);
            tub = tub.max(add(hi, old.true_ub)?);
        }
        if !any || blocklength == 0 {
            return Ok(TypeAttrs::EMPTY);
        }
        let size = total_blocks
            .checked_mul(blocklength as u64)
            .and_then(|n| n.checked_mul(old.size));
        Ok(TypeAttrs {
            size: size.ok_or_else(bounds_overflow)?,
            lb,
            ub,
            true_lb: tlb,
            true_ub: tub,
        })
    }

    /// `MPI_Type_vector` (stride in elements).
    pub fn type_vector(
        &mut self,
        count: i32,
        blocklength: i32,
        stride: i32,
        oldtype: Datatype,
    ) -> MpiResult<Datatype> {
        if count < 0 || blocklength < 0 {
            return Err(MpiError::InvalidArg(format!(
                "negative count/blocklength ({count}, {blocklength})"
            )));
        }
        let old = self.get(oldtype)?.attrs;
        let attrs = if count == 0 || blocklength == 0 {
            TypeAttrs::EMPTY
        } else {
            // two `i32`s multiply without overflow in an `i64`
            let last_block = mul((count - 1) as i64 * stride as i64, old.extent())?;
            Self::block_attrs(
                old,
                [0, last_block].into_iter(),
                blocklength as i64,
                count as u64,
            )?
        };
        Ok(self.insert(
            TypeDef::Vector {
                count,
                blocklength,
                stride,
                oldtype,
            },
            attrs,
        ))
    }

    /// `MPI_Type_create_hvector` (stride in bytes).
    pub fn type_create_hvector(
        &mut self,
        count: i32,
        blocklength: i32,
        stride_bytes: i64,
        oldtype: Datatype,
    ) -> MpiResult<Datatype> {
        if count < 0 || blocklength < 0 {
            return Err(MpiError::InvalidArg(format!(
                "negative count/blocklength ({count}, {blocklength})"
            )));
        }
        let old = self.get(oldtype)?.attrs;
        let attrs = if count == 0 || blocklength == 0 {
            TypeAttrs::EMPTY
        } else {
            Self::block_attrs(
                old,
                [0, mul((count - 1) as i64, stride_bytes)?].into_iter(),
                blocklength as i64,
                count as u64,
            )?
        };
        Ok(self.insert(
            TypeDef::Hvector {
                count,
                blocklength,
                stride_bytes,
                oldtype,
            },
            attrs,
        ))
    }

    /// `MPI_Type_indexed` (displacements in elements).
    pub fn type_indexed(
        &mut self,
        blocklengths: &[i32],
        displacements: &[i32],
        oldtype: Datatype,
    ) -> MpiResult<Datatype> {
        if blocklengths.len() != displacements.len() {
            return Err(MpiError::InvalidArg(
                "blocklengths and displacements differ in length".to_string(),
            ));
        }
        if blocklengths.iter().any(|&b| b < 0) {
            return Err(MpiError::InvalidArg("negative blocklength".to_string()));
        }
        let old = self.get(oldtype)?.attrs;
        let ex = old.extent();
        let attrs = Self::indexed_attrs(
            old,
            blocklengths
                .iter()
                .zip(displacements)
                .map(|(&b, &d)| (b as i64, d as i64 * ex)),
        );
        Ok(self.insert(
            TypeDef::Indexed {
                blocklengths: blocklengths.to_vec(),
                displacements: displacements.to_vec(),
                oldtype,
            },
            attrs,
        ))
    }

    /// `MPI_Type_create_indexed_block` (equal blocks, displacements in
    /// elements).
    pub fn type_create_indexed_block(
        &mut self,
        blocklength: i32,
        displacements: &[i32],
        oldtype: Datatype,
    ) -> MpiResult<Datatype> {
        if blocklength < 0 {
            return Err(MpiError::InvalidArg("negative blocklength".to_string()));
        }
        let old = self.get(oldtype)?.attrs;
        let ex = old.extent();
        let attrs = Self::indexed_attrs(
            old,
            displacements
                .iter()
                .map(|&d| (blocklength as i64, d as i64 * ex)),
        );
        Ok(self.insert(
            TypeDef::IndexedBlock {
                blocklength,
                displacements: displacements.to_vec(),
                oldtype,
            },
            attrs,
        ))
    }

    /// `MPI_Type_create_hindexed` (displacements in bytes).
    pub fn type_create_hindexed(
        &mut self,
        blocklengths: &[i32],
        displacements_bytes: &[i64],
        oldtype: Datatype,
    ) -> MpiResult<Datatype> {
        if blocklengths.len() != displacements_bytes.len() {
            return Err(MpiError::InvalidArg(
                "blocklengths and displacements differ in length".to_string(),
            ));
        }
        if blocklengths.iter().any(|&b| b < 0) {
            return Err(MpiError::InvalidArg("negative blocklength".to_string()));
        }
        let old = self.get(oldtype)?.attrs;
        let attrs = Self::indexed_attrs(
            old,
            blocklengths
                .iter()
                .zip(displacements_bytes)
                .map(|(&b, &d)| (b as i64, d)),
        );
        Ok(self.insert(
            TypeDef::Hindexed {
                blocklengths: blocklengths.to_vec(),
                displacements_bytes: displacements_bytes.to_vec(),
                oldtype,
            },
            attrs,
        ))
    }

    /// Bound math for indexed-like constructions with per-block
    /// `(blocklength, byte displacement)` pairs.
    fn indexed_attrs(old: TypeAttrs, blocks: impl Iterator<Item = (i64, i64)>) -> TypeAttrs {
        let ex = old.extent();
        let mut lb = i64::MAX;
        let mut ub = i64::MIN;
        let mut tlb = i64::MAX;
        let mut tub = i64::MIN;
        let mut size = 0u64;
        let mut any = false;
        for (bl, d) in blocks {
            if bl == 0 {
                continue;
            }
            any = true;
            size += bl as u64 * old.size;
            let last = (bl - 1) * ex;
            let (lo, hi) = if last >= 0 {
                (d, d + last)
            } else {
                (d + last, d)
            };
            lb = lb.min(lo + old.lb);
            ub = ub.max(hi + old.ub);
            tlb = tlb.min(lo + old.true_lb);
            tub = tub.max(hi + old.true_ub);
        }
        if !any {
            return TypeAttrs::EMPTY;
        }
        TypeAttrs {
            size,
            lb,
            ub,
            true_lb: tlb,
            true_ub: tub,
        }
    }

    /// `MPI_Type_create_subarray`.
    pub fn type_create_subarray(
        &mut self,
        sizes: &[i32],
        subsizes: &[i32],
        starts: &[i32],
        order: Order,
        oldtype: Datatype,
    ) -> MpiResult<Datatype> {
        let ndims = sizes.len();
        if ndims == 0 {
            return Err(MpiError::InvalidArg(
                "subarray needs ndims >= 1".to_string(),
            ));
        }
        if subsizes.len() != ndims || starts.len() != ndims {
            return Err(MpiError::InvalidArg(
                "sizes/subsizes/starts differ in length".to_string(),
            ));
        }
        for i in 0..ndims {
            if sizes[i] < 1 {
                return Err(MpiError::InvalidArg(format!("sizes[{i}] < 1")));
            }
            if subsizes[i] < 1 || subsizes[i] > sizes[i] {
                return Err(MpiError::InvalidArg(format!(
                    "subsizes[{i}] = {} out of range [1, {}]",
                    subsizes[i], sizes[i]
                )));
            }
            if starts[i] < 0 || starts[i] > sizes[i] - subsizes[i] {
                return Err(MpiError::InvalidArg(format!(
                    "starts[{i}] = {} out of range [0, {}]",
                    starts[i],
                    sizes[i] - subsizes[i]
                )));
            }
        }
        let old = self.get(oldtype)?.attrs;
        let ex = old.extent();
        // Element strides per dimension, in elements of oldtype.
        let strides = subarray_elem_strides(sizes, order);
        let full: i64 = sizes.iter().map(|&s| s as i64).product();
        let nsub: u64 = subsizes.iter().map(|&s| s as u64).product();
        let first: i64 = (0..ndims).map(|i| starts[i] as i64 * strides[i]).sum();
        let last: i64 = (0..ndims)
            .map(|i| (starts[i] + subsizes[i] - 1) as i64 * strides[i])
            .sum();
        let attrs = TypeAttrs {
            size: nsub * old.size,
            // Per MPI, a subarray's extent spans the *full* array.
            lb: 0,
            ub: full * ex,
            true_lb: first * ex + old.true_lb,
            true_ub: last * ex + old.true_ub,
        };
        Ok(self.insert(
            TypeDef::Subarray {
                sizes: sizes.to_vec(),
                subsizes: subsizes.to_vec(),
                starts: starts.to_vec(),
                order,
                oldtype,
            },
            attrs,
        ))
    }

    /// `MPI_Type_create_struct`.
    pub fn type_create_struct(
        &mut self,
        blocklengths: &[i32],
        displacements_bytes: &[i64],
        types: &[Datatype],
    ) -> MpiResult<Datatype> {
        if blocklengths.len() != displacements_bytes.len() || blocklengths.len() != types.len() {
            return Err(MpiError::InvalidArg(
                "struct argument arrays differ in length".to_string(),
            ));
        }
        if blocklengths.iter().any(|&b| b < 0) {
            return Err(MpiError::InvalidArg("negative blocklength".to_string()));
        }
        let mut lb = i64::MAX;
        let mut ub = i64::MIN;
        let mut tlb = i64::MAX;
        let mut tub = i64::MIN;
        let mut size = 0u64;
        let mut any = false;
        for i in 0..types.len() {
            let old = self.get(types[i])?.attrs;
            let bl = blocklengths[i] as i64;
            if bl == 0 || old.size == 0 && old.extent() == 0 {
                // zero-length block contributes nothing
                if bl == 0 {
                    continue;
                }
            }
            any = true;
            size += bl as u64 * old.size;
            let d = displacements_bytes[i];
            let last = (bl - 1) * old.extent();
            let (lo, hi) = if last >= 0 {
                (d, d + last)
            } else {
                (d + last, d)
            };
            lb = lb.min(lo + old.lb);
            ub = ub.max(hi + old.ub);
            tlb = tlb.min(lo + old.true_lb);
            tub = tub.max(hi + old.true_ub);
        }
        let attrs = if any {
            TypeAttrs {
                size,
                lb,
                ub,
                true_lb: tlb,
                true_ub: tub,
            }
        } else {
            TypeAttrs::EMPTY
        };
        Ok(self.insert(
            TypeDef::Struct {
                blocklengths: blocklengths.to_vec(),
                displacements_bytes: displacements_bytes.to_vec(),
                types: types.to_vec(),
            },
            attrs,
        ))
    }

    /// `MPI_Type_create_resized`.
    pub fn type_create_resized(
        &mut self,
        oldtype: Datatype,
        lb: i64,
        extent: i64,
    ) -> MpiResult<Datatype> {
        let old = self.get(oldtype)?.attrs;
        let attrs = TypeAttrs {
            size: old.size,
            lb,
            ub: lb + extent,
            true_lb: old.true_lb,
            true_ub: old.true_ub,
        };
        Ok(self.insert(
            TypeDef::Resized {
                lb,
                extent,
                oldtype,
            },
            attrs,
        ))
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
            TypeDef::Subarray { sizes, .. } => (3 * sizes.len() + 2, 0, 1),
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

    /// `MPI_Type_get_contents`: the constructor arguments, encoded in the
    /// standard's layout. As in the C API, where the caller sizes the three
    /// arrays from the envelope, each is allocated once at its final length.
    pub fn get_contents(&self, dt: Datatype) -> MpiResult<Contents> {
        let env = self.get_envelope(dt)?;
        let info = self.get(dt)?;
        let mut c = Contents {
            integers: Vec::with_capacity(env.num_integers),
            addresses: Vec::with_capacity(env.num_addresses),
            datatypes: Vec::with_capacity(env.num_datatypes),
        };
        match &info.def {
            TypeDef::Named(_) => {
                return Err(MpiError::InvalidArg(
                    "MPI_Type_get_contents is invalid on a named type".to_string(),
                ))
            }
            TypeDef::Dup { oldtype } => c.datatypes.push(*oldtype),
            TypeDef::Contiguous { count, oldtype } => {
                c.integers.push(*count as i64);
                c.datatypes.push(*oldtype);
            }
            TypeDef::Vector {
                count,
                blocklength,
                stride,
                oldtype,
            } => {
                c.integers
                    .extend([*count as i64, *blocklength as i64, *stride as i64]);
                c.datatypes.push(*oldtype);
            }
            TypeDef::Hvector {
                count,
                blocklength,
                stride_bytes,
                oldtype,
            } => {
                c.integers.extend([*count as i64, *blocklength as i64]);
                c.addresses.push(*stride_bytes);
                c.datatypes.push(*oldtype);
            }
            TypeDef::Indexed {
                blocklengths,
                displacements,
                oldtype,
            } => {
                c.integers.push(blocklengths.len() as i64);
                c.integers.extend(blocklengths.iter().map(|&b| b as i64));
                c.integers.extend(displacements.iter().map(|&d| d as i64));
                c.datatypes.push(*oldtype);
            }
            TypeDef::IndexedBlock {
                blocklength,
                displacements,
                oldtype,
            } => {
                c.integers.push(displacements.len() as i64);
                c.integers.push(*blocklength as i64);
                c.integers.extend(displacements.iter().map(|&d| d as i64));
                c.datatypes.push(*oldtype);
            }
            TypeDef::Hindexed {
                blocklengths,
                displacements_bytes,
                oldtype,
            } => {
                c.integers.push(blocklengths.len() as i64);
                c.integers.extend(blocklengths.iter().map(|&b| b as i64));
                c.addresses.extend(displacements_bytes.iter().copied());
                c.datatypes.push(*oldtype);
            }
            TypeDef::Subarray {
                sizes,
                subsizes,
                starts,
                order,
                oldtype,
            } => {
                c.integers.push(sizes.len() as i64);
                c.integers.extend(sizes.iter().map(|&v| v as i64));
                c.integers.extend(subsizes.iter().map(|&v| v as i64));
                c.integers.extend(starts.iter().map(|&v| v as i64));
                c.integers.push(match order {
                    Order::C => 0,
                    Order::Fortran => 1,
                });
                c.datatypes.push(*oldtype);
            }
            TypeDef::Struct {
                blocklengths,
                displacements_bytes,
                types,
            } => {
                c.integers.push(blocklengths.len() as i64);
                c.integers.extend(blocklengths.iter().map(|&b| b as i64));
                c.addresses.extend(displacements_bytes.iter().copied());
                c.datatypes.extend(types.iter().copied());
            }
            TypeDef::Resized {
                lb,
                extent,
                oldtype,
            } => {
                c.addresses.extend([*lb, *extent]);
                c.datatypes.push(*oldtype);
            }
        }
        debug_assert_eq!(
            (c.integers.len(), c.addresses.len(), c.datatypes.len()),
            (env.num_integers, env.num_addresses, env.num_datatypes),
            "contents disagree with the envelope"
        );
        Ok(c)
    }

    /// A compact human-readable rendering of a type construction, for
    /// diagnostics and figure labels.
    pub fn describe(&self, dt: Datatype) -> String {
        match self.get(dt) {
            Err(_) => format!("<dead #{}>", dt.0),
            Ok(info) => match &info.def {
                TypeDef::Named(n) => n.mpi_name().to_string(),
                TypeDef::Dup { oldtype } => format!("dup({})", self.describe(*oldtype)),
                TypeDef::Contiguous { count, oldtype } => {
                    format!("contiguous({count}, {})", self.describe(*oldtype))
                }
                TypeDef::Vector {
                    count,
                    blocklength,
                    stride,
                    oldtype,
                } => format!(
                    "vector({count}, {blocklength}, {stride}, {})",
                    self.describe(*oldtype)
                ),
                TypeDef::Hvector {
                    count,
                    blocklength,
                    stride_bytes,
                    oldtype,
                } => format!(
                    "hvector({count}, {blocklength}, {stride_bytes}B, {})",
                    self.describe(*oldtype)
                ),
                TypeDef::Indexed { blocklengths, .. } => {
                    format!("indexed({} blocks)", blocklengths.len())
                }
                TypeDef::IndexedBlock {
                    blocklength,
                    displacements,
                    ..
                } => format!(
                    "indexed_block({} x {blocklength} elems)",
                    displacements.len()
                ),
                TypeDef::Hindexed { blocklengths, .. } => {
                    format!("hindexed({} blocks)", blocklengths.len())
                }
                TypeDef::Subarray {
                    sizes,
                    subsizes,
                    starts,
                    oldtype,
                    ..
                } => format!(
                    "subarray(sizes={sizes:?}, subsizes={subsizes:?}, starts={starts:?}, {})",
                    self.describe(*oldtype)
                ),
                TypeDef::Struct { types, .. } => format!("struct({} blocks)", types.len()),
                TypeDef::Resized {
                    lb,
                    extent,
                    oldtype,
                } => format!(
                    "resized(lb={lb}, extent={extent}, {})",
                    self.describe(*oldtype)
                ),
            },
        }
    }
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

/// Element strides (in elements of `oldtype`) per subarray dimension.
pub(crate) fn subarray_elem_strides(sizes: &[i32], order: Order) -> Vec<i64> {
    let n = sizes.len();
    let mut strides = vec![1i64; n];
    match order {
        Order::C => {
            // dimension 0 slowest: stride[i] = prod(sizes[i+1..])
            for i in (0..n.saturating_sub(1)).rev() {
                strides[i] = strides[i + 1] * sizes[i + 1] as i64;
            }
        }
        Order::Fortran => {
            // dimension 0 fastest: stride[i] = prod(sizes[..i])
            for i in 1..n {
                strides[i] = strides[i - 1] * sizes[i - 1] as i64;
            }
        }
    }
    strides
}

#[cfg(test)]
mod tests {
    use super::consts::*;
    use super::*;
    use crate::datatype::Combiner;

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
        let mut r = TypeRegistry::new();
        let t = r.type_contiguous(100, MPI_FLOAT).unwrap();
        assert_eq!(r.size(t).unwrap(), 400);
        assert_eq!(r.extent(t).unwrap(), (0, 400));
        assert!(!r.is_committed(t).unwrap());
        r.commit(t).unwrap();
        assert!(r.is_committed(t).unwrap());
    }

    #[test]
    fn contiguous_zero_count_is_empty() {
        let mut r = TypeRegistry::new();
        let t = r.type_contiguous(0, MPI_INT).unwrap();
        assert_eq!(r.size(t).unwrap(), 0);
        assert_eq!(r.extent(t).unwrap(), (0, 0));
    }

    #[test]
    fn vector_extent_spans_first_to_last_byte() {
        let mut r = TypeRegistry::new();
        // 13 blocks of 100 floats, stride 128 elements
        let t = r.type_vector(13, 100, 128, MPI_FLOAT).unwrap();
        assert_eq!(r.size(t).unwrap(), 13 * 100 * 4);
        // extent: (12*128 + 100) * 4 = 6544
        assert_eq!(r.extent(t).unwrap(), (0, (12 * 128 + 100) * 4));
    }

    #[test]
    fn vector_negative_stride_bounds() {
        let mut r = TypeRegistry::new();
        let t = r.type_vector(3, 2, -4, MPI_INT).unwrap();
        // blocks at element offsets 0, -4, -8; elements at {0,1} within
        let (lb, extent) = r.extent(t).unwrap();
        assert_eq!(lb, -8 * 4);
        assert_eq!(extent, (-8 * 4..2 * 4).len() as i64);
    }

    #[test]
    fn hvector_stride_is_bytes() {
        let mut r = TypeRegistry::new();
        let t = r.type_create_hvector(13, 1, 256, MPI_BYTE).unwrap();
        assert_eq!(r.size(t).unwrap(), 13);
        assert_eq!(r.extent(t).unwrap(), (0, 12 * 256 + 1));
    }

    #[test]
    fn subarray_extent_is_full_array() {
        let mut r = TypeRegistry::new();
        let t = r
            .type_create_subarray(&[256, 512], &[13, 100], &[0, 0], Order::C, MPI_BYTE)
            .unwrap();
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
        let mut r = TypeRegistry::new();
        let t = r
            .type_create_subarray(&[8, 16], &[2, 4], &[3, 5], Order::C, MPI_FLOAT)
            .unwrap();
        let (tlb, _) = r.true_extent(t).unwrap();
        assert_eq!(tlb, (3 * 16 + 5) * 4);
        assert_eq!(r.extent(t).unwrap(), (0, 8 * 16 * 4));
    }

    #[test]
    fn subarray_fortran_order_reverses_strides() {
        let strides_c = subarray_elem_strides(&[4, 6, 8], Order::C);
        assert_eq!(strides_c, vec![48, 8, 1]);
        let strides_f = subarray_elem_strides(&[4, 6, 8], Order::Fortran);
        assert_eq!(strides_f, vec![1, 4, 24]);
    }

    #[test]
    fn subarray_validation() {
        let mut r = TypeRegistry::new();
        assert!(r
            .type_create_subarray(&[], &[], &[], Order::C, MPI_BYTE)
            .is_err());
        assert!(r
            .type_create_subarray(&[4], &[5], &[0], Order::C, MPI_BYTE)
            .is_err());
        assert!(r
            .type_create_subarray(&[4], &[2], &[3], Order::C, MPI_BYTE)
            .is_err());
        assert!(r
            .type_create_subarray(&[4], &[0], &[0], Order::C, MPI_BYTE)
            .is_err());
        assert!(r
            .type_create_subarray(&[4, 4], &[2], &[0], Order::C, MPI_BYTE)
            .is_err());
    }

    #[test]
    fn indexed_attrs_and_size() {
        let mut r = TypeRegistry::new();
        let t = r.type_indexed(&[2, 0, 3], &[10, 99, 0], MPI_INT).unwrap();
        assert_eq!(r.size(t).unwrap(), 5 * 4);
        // blocks: [40..48), [0..12); zero-length block ignored
        assert_eq!(r.extent(t).unwrap(), (0, 48));
    }

    #[test]
    fn indexed_block_attrs_and_introspection() {
        let mut r = TypeRegistry::new();
        let t = r.type_create_indexed_block(2, &[8, 0, 4], MPI_INT).unwrap();
        assert_eq!(r.size(t).unwrap(), 3 * 2 * 4);
        // blocks at elements 8, 0, 4 of 2 ints each: bytes [0, 40)
        assert_eq!(r.extent(t).unwrap(), (0, 40));
        let e = r.get_envelope(t).unwrap();
        assert_eq!(e.combiner, Combiner::IndexedBlock);
        assert_eq!(e.num_integers, 5); // count + blocklength + 3 displs
        assert_eq!(e.num_datatypes, 1);
        let c = r.get_contents(t).unwrap();
        assert_eq!(c.integers, vec![3, 2, 8, 0, 4]);
        assert_eq!(c.datatypes, vec![MPI_INT]);
        assert!(r.describe(t).contains("indexed_block"));
        assert!(r.type_create_indexed_block(-1, &[0], MPI_INT).is_err());
    }

    #[test]
    fn indexed_block_matches_equivalent_indexed() {
        let mut r = TypeRegistry::new();
        let ib = r.type_create_indexed_block(2, &[6, 0], MPI_FLOAT).unwrap();
        let ix = r.type_indexed(&[2, 2], &[6, 0], MPI_FLOAT).unwrap();
        assert_eq!(r.attrs(ib).unwrap(), r.attrs(ix).unwrap());
        assert_eq!(
            super::super::typemap::segments(&r, ib).unwrap(),
            super::super::typemap::segments(&r, ix).unwrap()
        );
    }

    #[test]
    fn hindexed_displacements_are_bytes() {
        let mut r = TypeRegistry::new();
        let t = r
            .type_create_hindexed(&[1, 1], &[100, 0], MPI_DOUBLE)
            .unwrap();
        assert_eq!(r.extent(t).unwrap(), (0, 108));
    }

    #[test]
    fn struct_mixed_types() {
        let mut r = TypeRegistry::new();
        let t = r
            .type_create_struct(&[2, 1], &[0, 16], &[MPI_INT, MPI_DOUBLE])
            .unwrap();
        assert_eq!(r.size(t).unwrap(), 16);
        assert_eq!(r.extent(t).unwrap(), (0, 24));
    }

    #[test]
    fn resized_overrides_bounds() {
        let mut r = TypeRegistry::new();
        let v = r.type_vector(2, 1, 4, MPI_FLOAT).unwrap();
        let t = r.type_create_resized(v, -4, 64).unwrap();
        assert_eq!(r.extent(t).unwrap(), (-4, 64));
        // true extent unchanged
        assert_eq!(r.true_extent(t).unwrap(), (0, 20));
        assert_eq!(r.size(t).unwrap(), 8);
    }

    #[test]
    fn dup_copies_attrs() {
        let mut r = TypeRegistry::new();
        let v = r.type_vector(3, 2, 5, MPI_INT).unwrap();
        let d = r.type_dup(v).unwrap();
        assert_eq!(r.attrs(d).unwrap(), r.attrs(v).unwrap());
    }

    #[test]
    fn nested_type_attrs_compose() {
        let mut r = TypeRegistry::new();
        // Fig. 2 middle construction: row = vector(100,1,1,BYTE);
        // plane = hvector(13,1,256,row); cuboid = hvector(47,1,131072,plane)
        let row = r.type_vector(100, 1, 1, MPI_BYTE).unwrap();
        assert_eq!(r.extent(row).unwrap(), (0, 100));
        let plane = r.type_create_hvector(13, 1, 256, row).unwrap();
        assert_eq!(r.size(plane).unwrap(), 1300);
        assert_eq!(r.extent(plane).unwrap(), (0, 12 * 256 + 100));
        let cuboid = r.type_create_hvector(47, 1, 256 * 512, plane).unwrap();
        assert_eq!(r.size(cuboid).unwrap(), 47 * 13 * 100);
        assert_eq!(
            r.extent(cuboid).unwrap(),
            (0, 46 * 256 * 512 + 12 * 256 + 100)
        );
    }

    #[test]
    fn free_and_use_after_free() {
        let mut r = TypeRegistry::new();
        let t = r.type_contiguous(4, MPI_INT).unwrap();
        r.free(t).unwrap();
        assert_eq!(r.size(t), Err(MpiError::InvalidDatatype));
        assert_eq!(r.free(t), Err(MpiError::InvalidDatatype));
        assert!(r.free(MPI_INT).is_err());
    }

    #[test]
    fn envelope_shapes() {
        let mut r = TypeRegistry::new();
        let v = r.type_vector(2, 3, 4, MPI_INT).unwrap();
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
        let s = r
            .type_create_subarray(&[4, 4], &[2, 2], &[0, 0], Order::C, MPI_INT)
            .unwrap();
        let e = r.get_envelope(s).unwrap();
        assert_eq!(e.num_integers, 8);
        assert_eq!(e.combiner, Combiner::Subarray);
        assert_eq!(r.get_envelope(MPI_INT).unwrap().combiner, Combiner::Named);
    }

    #[test]
    fn contents_roundtrip_vector() {
        let mut r = TypeRegistry::new();
        let v = r.type_vector(13, 100, 128, MPI_FLOAT).unwrap();
        let c = r.get_contents(v).unwrap();
        assert_eq!(c.integers, vec![13, 100, 128]);
        assert_eq!(c.datatypes, vec![MPI_FLOAT]);
        assert!(c.addresses.is_empty());
    }

    #[test]
    fn contents_roundtrip_subarray() {
        let mut r = TypeRegistry::new();
        let s = r
            .type_create_subarray(&[256, 512], &[13, 100], &[1, 2], Order::C, MPI_BYTE)
            .unwrap();
        let c = r.get_contents(s).unwrap();
        assert_eq!(c.integers, vec![2, 256, 512, 13, 100, 1, 2, 0]);
        assert_eq!(c.datatypes, vec![MPI_BYTE]);
    }

    #[test]
    fn contents_on_named_is_an_error() {
        let r = TypeRegistry::new();
        assert!(r.get_contents(MPI_INT).is_err());
    }

    #[test]
    fn describe_renders_nested() {
        let mut r = TypeRegistry::new();
        let row = r.type_contiguous(4, MPI_FLOAT).unwrap();
        let v = r.type_vector(2, 1, 3, row).unwrap();
        assert_eq!(r.describe(v), "vector(2, 1, 3, contiguous(4, MPI_FLOAT))");
    }

    #[test]
    fn validation_rejects_negatives() {
        let mut r = TypeRegistry::new();
        assert!(r.type_contiguous(-1, MPI_INT).is_err());
        assert!(r.type_vector(-1, 1, 1, MPI_INT).is_err());
        assert!(r.type_vector(1, -1, 1, MPI_INT).is_err());
        assert!(r.type_indexed(&[1], &[0, 1], MPI_INT).is_err());
        assert!(r.type_indexed(&[-1], &[0], MPI_INT).is_err());
    }

    /// Bounds that do not fit are an argument error in debug and release
    /// alike — never a panic, never a wrapped extent — and leave no handle
    /// behind.
    #[test]
    fn overflowing_bounds_are_invalid_arguments_and_insert_nothing() {
        let mut r = TypeRegistry::new();
        let a = r.type_contiguous(i32::MAX, MPI_BYTE).unwrap();
        let b = r.type_contiguous(i32::MAX, a).unwrap();
        assert_eq!(r.size(b).unwrap(), (i32::MAX as u64).pow(2));
        let live = r.live();
        let rejected = |res: MpiResult<Datatype>| matches!(res, Err(MpiError::InvalidArg(_)));
        // contiguous nested three deep: size and upper bound pass 2^64
        assert!(rejected(r.type_contiguous(i32::MAX, b)));
        // one block whose last element reaches past i64::MAX
        assert!(rejected(r.type_vector(1, i32::MAX, 1, b)));
        // (count - 1) * stride * extent
        assert!(rejected(r.type_vector(i32::MAX, 1, i32::MAX, b)));
        assert!(rejected(r.type_vector(3, 1, i32::MIN, b)));
        // the second block starts at i64::MAX: its upper bound is one past
        assert!(rejected(r.type_create_hvector(2, 1, i64::MAX, MPI_BYTE)));
        assert!(rejected(r.type_create_hvector(3, 1, i64::MAX, MPI_BYTE)));
        assert!(rejected(r.type_create_hvector(3, 1, i64::MIN, MPI_INT)));
        // blocks * blocklength * size
        assert!(rejected(r.type_create_hvector(4, i32::MAX, 0, b)));
        assert_eq!(r.live(), live, "a rejected constructor inserted a handle");
        // the largest bounds that do fit are still accepted
        let edge = r.type_create_hvector(2, 1, i64::MAX - 1, MPI_BYTE).unwrap();
        assert_eq!(r.extent(edge).unwrap(), (0, i64::MAX));
    }

    #[test]
    fn invalid_handle_rejected() {
        let r = TypeRegistry::new();
        assert_eq!(r.size(Datatype(9999)), Err(MpiError::InvalidDatatype));
    }
}

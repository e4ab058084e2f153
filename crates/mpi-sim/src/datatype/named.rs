//! MPI named (predefined) datatypes.
//!
//! These are the leaves of every derived-type construction. Per the MPI
//! standard they correspond to host-language scalar types; only their size
//! matters to the datatype engine (alignment padding ε is taken as zero, as
//! all sizes here are self-aligned).

/// The predefined MPI datatypes modeled by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Named {
    Byte,
    Char,
    UnsignedChar,
    Short,
    UnsignedShort,
    Int,
    Unsigned,
    Long,
    UnsignedLong,
    LongLong,
    Float,
    Double,
}

impl Named {
    /// All named types, in handle order (the registry preregisters them in
    /// this order, so `Datatype(i)` is `ALL[i]`).
    pub const ALL: [Named; 12] = [
        Named::Byte,
        Named::Char,
        Named::UnsignedChar,
        Named::Short,
        Named::UnsignedShort,
        Named::Int,
        Named::Unsigned,
        Named::Long,
        Named::UnsignedLong,
        Named::LongLong,
        Named::Float,
        Named::Double,
    ];

    /// Size in bytes (extent equals size for all named types here).
    pub const fn size(self) -> usize {
        match self {
            Named::Byte | Named::Char | Named::UnsignedChar => 1,
            Named::Short | Named::UnsignedShort => 2,
            Named::Int | Named::Unsigned | Named::Float => 4,
            Named::Long | Named::UnsignedLong | Named::LongLong | Named::Double => 8,
        }
    }

    /// The MPI name, for diagnostics (`MPI_FLOAT`, ...).
    pub const fn mpi_name(self) -> &'static str {
        match self {
            Named::Byte => "MPI_BYTE",
            Named::Char => "MPI_CHAR",
            Named::UnsignedChar => "MPI_UNSIGNED_CHAR",
            Named::Short => "MPI_SHORT",
            Named::UnsignedShort => "MPI_UNSIGNED_SHORT",
            Named::Int => "MPI_INT",
            Named::Unsigned => "MPI_UNSIGNED",
            Named::Long => "MPI_LONG",
            Named::UnsignedLong => "MPI_UNSIGNED_LONG",
            Named::LongLong => "MPI_LONG_LONG",
            Named::Float => "MPI_FLOAT",
            Named::Double => "MPI_DOUBLE",
        }
    }

    /// The keyword naming this type in a [`TypeTree`](super::TypeTree)
    /// spec: the MPI name without its `MPI_` prefix, in lower case
    /// (`byte`, `unsigned_long`, ...).
    pub fn keyword(self) -> String {
        self.mpi_name()["MPI_".len()..].to_ascii_lowercase()
    }

    /// The named type a spec keyword denotes, in either case.
    pub fn from_keyword(word: &str) -> Option<Named> {
        let names = |n: &Named| n.mpi_name()["MPI_".len()..].eq_ignore_ascii_case(word);
        Named::ALL.into_iter().find(names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_c_types() {
        assert_eq!(Named::Byte.size(), 1);
        assert_eq!(Named::Short.size(), 2);
        assert_eq!(Named::Int.size(), 4);
        assert_eq!(Named::Float.size(), 4);
        assert_eq!(Named::Double.size(), 8);
        assert_eq!(Named::LongLong.size(), 8);
    }

    #[test]
    fn all_is_exhaustive_and_ordered() {
        assert_eq!(Named::ALL.len(), 12);
        assert_eq!(Named::ALL[0], Named::Byte);
        assert_eq!(Named::ALL[10], Named::Float);
        // no duplicates
        for (i, a) in Named::ALL.iter().enumerate() {
            for b in &Named::ALL[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn names_render() {
        assert_eq!(Named::Float.mpi_name(), "MPI_FLOAT");
        assert_eq!(Named::Byte.mpi_name(), "MPI_BYTE");
    }
}

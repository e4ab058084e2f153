//! One description of a derived datatype: [`TypeTree`], a [`TypeDef`] whose
//! children are constructions instead of handles. It builds into a rank's
//! registry, reads back out of one, prints and parses; what it prints is
//! the spec mini-language `tempi-cli` reads:
//!
//! ```text
//! spec  := named | ctor
//! named := byte | char | unsigned_char | short | unsigned_short | int
//!        | unsigned | long | unsigned_long | long_long | float | double
//! list  := '[' ']' | '[' item (',' item)* ']'
//!
//! contiguous(COUNT, spec)
//! vector(COUNT, BLOCKLEN, STRIDE, spec)          -- stride in elements
//! hvector(COUNT, BLOCKLEN, STRIDE_BYTES, spec)
//! subarray([SIZES], [SUBSIZES], [STARTS], spec)  -- C order, dim 0 slowest
//! subarray_fortran([SIZES], [SUBSIZES], [STARTS], spec)  -- dim 0 fastest
//! indexed([BLOCKLENS], [DISPLS], spec)           -- displs in elements
//! indexed_block(BLOCKLEN, [DISPLS], spec)
//! hindexed([BLOCKLENS], [DISPLS_BYTES], spec)
//! struct([BLOCKLENS], [DISPLS_BYTES], [spec, ...])
//! resized(LB, EXTENT, spec)
//! dup(spec)
//! ```
//!
//! Example: `vector(13, 100, 256, byte)` — the paper's 2-D plane.

use std::any::type_name;
use std::fmt;
use std::str::FromStr;

use super::{Combiner, Contents, Datatype, Dim, Dims, Named, Order, TypeDef, TypeRegistry};
use crate::error::{MpiError, MpiResult};
use crate::runtime::RankCtx;

/// A derived datatype as a plain value: the constructor calls that make it,
/// nested. `Debug` prints what `Display` does — a spec that parses back to
/// the same tree — so a failed assertion over trees can be replayed by
/// pasting it into `tempi-cli describe`.
#[derive(Clone, PartialEq)]
pub struct TypeTree(pub Box<TypeDef<TypeTree>>);

impl TypeTree {
    /// Create (not commit) the datatype in the rank's registry: one priced
    /// `RankCtx::type_*` call per constructor, children before the type
    /// over them and struct members in order — the calls a hand-written
    /// construction makes (a subarray's dimensions go in as they are, not
    /// split into MPI's three lists and zipped back). Freeing a child
    /// invalidates its parents (see [`TypeRegistry::free`]), so the
    /// intermediate types stay live.
    ///
    /// The constructors waiting on their children wait on a stack of this
    /// call's own, not on the call stack, so a tree of any depth builds in
    /// constant call-stack space.
    pub fn build(&self, ctx: &mut RankCtx) -> MpiResult<Datatype> {
        // each tree being built with how many of its children are, and
        // the handles of the children built, the latest on top
        let (mut path, mut built) = (vec![(self, 0)], Vec::new());
        while let Some((tree, next)) = path.last_mut() {
            let children = tree.0.children();
            if let Some(child) = children.get(*next) {
                *next += 1;
                path.push((child, 0));
                continue;
            }
            let from = built.len() - children.len();
            let dt = tree.create(ctx, &built[from..])?;
            built.truncate(from);
            built.push(dt);
            path.pop();
        }
        Ok(built[0])
    }

    /// Create this tree's root over its children's handles, `built`.
    fn create(&self, ctx: &mut RankCtx, built: &[Datatype]) -> MpiResult<Datatype> {
        let old = || built[0];
        match &*self.0 {
            // the registry preregisters the named types in declaration order
            TypeDef::Named(n) => Ok(Datatype(*n as u64)),
            TypeDef::Dup { .. } => ctx.type_dup(old()),
            TypeDef::Contiguous { count, .. } => ctx.type_contiguous(*count, old()),
            TypeDef::Vector {
                count,
                blocklength,
                stride,
                ..
            } => ctx.type_vector(*count, *blocklength, *stride, old()),
            TypeDef::Hvector {
                count,
                blocklength,
                stride_bytes,
                ..
            } => ctx.type_create_hvector(*count, *blocklength, *stride_bytes, old()),
            TypeDef::Indexed {
                blocklengths,
                displacements,
                ..
            } => ctx.type_indexed(blocklengths, displacements, old()),
            TypeDef::IndexedBlock {
                blocklength,
                displacements,
                ..
            } => ctx.type_create_indexed_block(*blocklength, displacements, old()),
            TypeDef::Hindexed {
                blocklengths,
                displacements_bytes,
                ..
            } => ctx.type_create_hindexed(blocklengths, displacements_bytes, old()),
            TypeDef::Subarray { dims, .. } => ctx.type_create(|_| {
                Ok(TypeDef::Subarray {
                    dims: dims.clone(),
                    oldtype: old(),
                })
            }),
            TypeDef::Struct {
                blocklengths,
                displacements_bytes,
                ..
            } => ctx.type_create_struct(blocklengths, displacements_bytes, built),
            TypeDef::Resized { lb, extent, .. } => ctx.type_create_resized(old(), *lb, *extent),
        }
    }

    /// The construction of a live datatype, read the way an MPI program
    /// would: `get_envelope` and `get_contents` (unpriced), decoded per the
    /// standard's layout, recursively.
    pub fn of(reg: &TypeRegistry, dt: Datatype) -> MpiResult<TypeTree> {
        let combiner = reg.get_envelope(dt)?.combiner;
        let c = match combiner {
            // a named type has no contents to get
            Combiner::Named => Contents::default(),
            _ => reg.contents(dt)?,
        };
        let int = |i: usize| c.integers[i] as i32;
        // the `k`-th run of `n` integers after the leading count
        let n = c.integers.first().map_or(0, |&n| n as usize);
        let ints = |k: usize| -> Vec<i32> { (1 + k * n..1 + (k + 1) * n).map(int).collect() };
        let mut types = (c.datatypes.iter())
            .map(|&child| TypeTree::of(reg, child))
            .collect::<MpiResult<Vec<TypeTree>>>()?;
        let mut oldtype = || types.remove(0);
        Ok(TypeTree(Box::new(match combiner {
            Combiner::Named => {
                let index = dt.named_index().ok_or(MpiError::InvalidDatatype)?;
                TypeDef::Named(Named::ALL[index])
            }
            Combiner::Dup => TypeDef::Dup { oldtype: oldtype() },
            Combiner::Contiguous => TypeDef::Contiguous {
                count: int(0),
                oldtype: oldtype(),
            },
            Combiner::Vector => TypeDef::Vector {
                count: int(0),
                blocklength: int(1),
                stride: int(2),
                oldtype: oldtype(),
            },
            Combiner::Hvector => TypeDef::Hvector {
                count: int(0),
                blocklength: int(1),
                stride_bytes: c.addresses[0],
                oldtype: oldtype(),
            },
            Combiner::Indexed => TypeDef::Indexed {
                blocklengths: ints(0),
                displacements: ints(1),
                oldtype: oldtype(),
            },
            Combiner::IndexedBlock => TypeDef::IndexedBlock {
                blocklength: int(1),
                displacements: (2..2 + n).map(int).collect(),
                oldtype: oldtype(),
            },
            Combiner::Hindexed => TypeDef::Hindexed {
                blocklengths: ints(0),
                displacements_bytes: c.addresses,
                oldtype: oldtype(),
            },
            Combiner::Subarray => {
                let order = match int(1 + 3 * n) {
                    0 => Order::C,
                    _ => Order::Fortran,
                };
                let dim = |i| Dim {
                    size: int(1 + i),
                    subsize: int(1 + i + n),
                    start: int(1 + i + 2 * n),
                };
                TypeDef::Subarray {
                    dims: Dims::from_fn(n, order, dim),
                    oldtype: oldtype(),
                }
            }
            Combiner::Struct => TypeDef::Struct {
                blocklengths: ints(0),
                displacements_bytes: c.addresses,
                types,
            },
            Combiner::Resized => TypeDef::Resized {
                lb: c.addresses[0],
                extent: c.addresses[1],
                oldtype: oldtype(),
            },
        })))
    }
}

impl fmt::Display for TypeTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_spec(f, &self.0, |child| Ok(&*child.0))
    }
}

/// A piece of a spec [`write_spec`] has still to write.
enum Piece<'a, C> {
    /// A construction, whole.
    Def(&'a TypeDef<C>),
    /// Punctuation between or after a construction's type arguments.
    Text(&'static str),
}

/// Write the spec of the construction `root` to `out`, reaching each
/// child's construction through `def`, whose error ends the writing. The
/// pieces still to write wait on a stack of this call's own, not on the
/// call stack, so a construction of any depth prints in constant stack —
/// as it must on a rank, whose degrade ladder describes the datatype of a
/// send that steps down.
pub(crate) fn write_spec<'a, C>(
    out: &mut impl fmt::Write,
    root: &'a TypeDef<C>,
    def: impl Fn(&'a C) -> Result<&'a TypeDef<C>, fmt::Error>,
) -> fmt::Result {
    let mut todo = vec![Piece::Def(root)];
    while let Some(piece) = todo.pop() {
        let at = match piece {
            Piece::Def(at) => at,
            Piece::Text(text) => {
                out.write_str(text)?;
                continue;
            }
        };
        // the constructor and its arguments up to its first type argument
        match at {
            TypeDef::Named(n) => out.write_str(&n.keyword())?,
            TypeDef::Dup { .. } => out.write_str("dup(")?,
            TypeDef::Contiguous { count, .. } => write!(out, "contiguous({count}, ")?,
            TypeDef::Vector {
                count,
                blocklength,
                stride,
                ..
            } => write!(out, "vector({count}, {blocklength}, {stride}, ")?,
            TypeDef::Hvector {
                count,
                blocklength: bl,
                stride_bytes,
                ..
            } => write!(out, "hvector({count}, {bl}, {stride_bytes}, ")?,
            TypeDef::Indexed {
                blocklengths,
                displacements,
                ..
            } => write!(out, "indexed({blocklengths:?}, {displacements:?}, ")?,
            TypeDef::IndexedBlock {
                blocklength: bl,
                displacements,
                ..
            } => write!(out, "indexed_block({bl}, {displacements:?}, ")?,
            TypeDef::Hindexed {
                blocklengths,
                displacements_bytes: displs,
                ..
            } => write!(out, "hindexed({blocklengths:?}, {displs:?}, ")?,
            TypeDef::Subarray { dims, .. } => {
                let name = match dims.order() {
                    Order::C => "subarray",
                    Order::Fortran => "subarray_fortran",
                };
                let [sizes, subsizes, starts] = Dim::COLUMNS.map(|pick| Column(dims, pick));
                write!(out, "{name}({sizes:?}, {subsizes:?}, {starts:?}, ")?
            }
            TypeDef::Struct {
                blocklengths,
                displacements_bytes: displs,
                ..
            } => write!(out, "struct({blocklengths:?}, {displs:?}, [")?,
            TypeDef::Resized { lb, extent, .. } => write!(out, "resized({lb}, {extent}, ")?,
        }
        // then its type arguments, comma-separated, and its close
        todo.push(Piece::Text(match at {
            TypeDef::Named(_) => continue,
            TypeDef::Struct { .. } => "])",
            _ => ")",
        }));
        for (k, child) in at.children().iter().enumerate().rev() {
            todo.push(Piece::Def(def(child)?));
            if k > 0 {
                todo.push(Piece::Text(", "));
            }
        }
    }
    Ok(())
}

/// One of a subarray's three argument lists, printed as a list is.
struct Column<'a>(&'a [Dim], fn(&Dim) -> i32);

impl fmt::Debug for Column<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.0.iter().map(self.1)).finish()
    }
}

impl fmt::Debug for TypeTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// The deepest constructor nesting a spec may have. The parser recurses
/// once per level over input from outside the program, so this bounds it;
/// parse a spec on the thread that calls `World::run`, not on a rank. The
/// walks a rank makes over a datatype — [`TypeTree::build`], the typemap
/// walk and TEMPI's translation — loop instead, in constant stack, and
/// `tests/deep_types.rs` moves a type this deep on a rank. Nothing in the
/// paper or the zoo nests past five.
pub const MAX_DEPTH: usize = 64;

impl FromStr for TypeTree {
    type Err = MpiError;

    /// Parse a spec. Anything malformed — an unknown keyword, an argument
    /// of the wrong kind, an integer outside its argument's type, nesting
    /// deeper than [`MAX_DEPTH`] — is [`MpiError::InvalidArg`] saying what
    /// and where; no input panics or truncates.
    fn from_str(input: &str) -> MpiResult<TypeTree> {
        let mut p = Parser { s: input, pos: 0 };
        let tree = p.spec(1).map_err(MpiError::InvalidArg)?;
        match p.peek() {
            None => Ok(tree),
            Some(_) => Err(MpiError::InvalidArg(format!(
                "trailing input at byte {}",
                p.pos
            ))),
        }
    }
}

struct Parser<'a> {
    s: &'a str,
    pos: usize,
}

impl Parser<'_> {
    /// Advance over the bytes satisfying `part`. Every `part` here accepts
    /// ASCII only, so `pos` stays a `str` boundary.
    fn skip(&mut self, part: impl Fn(&u8) -> bool) {
        let rest = &self.s.as_bytes()[self.pos..];
        self.pos += rest.iter().take_while(|c| part(c)).count();
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip(u8::is_ascii_whitespace);
        self.s.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() != Some(c) {
            return Err(format!("expected '{}' at byte {}", c as char, self.pos));
        }
        self.pos += 1;
        Ok(())
    }

    fn ident(&mut self) -> Result<String, String> {
        self.peek();
        let start = self.pos;
        self.skip(|c| c.is_ascii_alphanumeric() || *c == b'_');
        if start == self.pos {
            return Err(format!("expected an identifier at byte {start}"));
        }
        Ok(self.s[start..self.pos].to_ascii_lowercase())
    }

    /// An integer in the range of `T`, the type of the argument `what`.
    fn int<T: TryFrom<i64>>(&mut self, what: &str) -> Result<T, String> {
        let first = self.peek();
        let start = self.pos;
        if first == Some(b'-') {
            self.pos += 1;
        }
        self.skip(u8::is_ascii_digit);
        let value: i64 = (self.s[start..self.pos].parse())
            .map_err(|_| format!("{what}: expected an integer at byte {start}"))?;
        T::try_from(value)
            .map_err(|_| format!("{what} = {value} is out of range for {}", type_name::<T>()))
    }

    /// `[item, ...]`, possibly empty.
    fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.eat(b'[')?;
        let mut v = Vec::new();
        while self.peek() != Some(b']') {
            if !v.is_empty() {
                self.eat(b',')?;
            }
            v.push(item(self)?);
        }
        self.pos += 1;
        Ok(v)
    }

    /// The integer argument `what` and the comma after it (a type spec is
    /// always a constructor's last argument).
    fn arg<T: TryFrom<i64>>(&mut self, what: &str) -> Result<T, String> {
        let v = self.int(what)?;
        self.eat(b',').map(|()| v)
    }

    /// The integer-list argument `what` and the comma after it.
    fn args<T: TryFrom<i64>>(&mut self, what: &str) -> Result<Vec<T>, String> {
        let v = self.list(|p| p.int(what))?;
        self.eat(b',').map(|()| v)
    }

    /// A spec whose root is the `depth`-th constructor open around it.
    fn spec(&mut self, depth: usize) -> Result<TypeTree, String> {
        let name = self.ident()?;
        if self.peek() != Some(b'(') {
            let named = Named::from_keyword(&name);
            let named = named.ok_or_else(|| format!("unknown named type `{name}`"))?;
            return Ok(TypeTree(Box::new(TypeDef::Named(named))));
        }
        if depth > MAX_DEPTH {
            return Err(format!("more than {MAX_DEPTH} nested constructors"));
        }
        self.pos += 1;
        let inner = depth + 1;
        let def = match name.as_str() {
            "dup" => TypeDef::Dup {
                oldtype: self.spec(inner)?,
            },
            "contiguous" => TypeDef::Contiguous {
                count: self.arg("count")?,
                oldtype: self.spec(inner)?,
            },
            "vector" => TypeDef::Vector {
                count: self.arg("count")?,
                blocklength: self.arg("blocklength")?,
                stride: self.arg("stride")?,
                oldtype: self.spec(inner)?,
            },
            "hvector" => TypeDef::Hvector {
                count: self.arg("count")?,
                blocklength: self.arg("blocklength")?,
                stride_bytes: self.arg("stride_bytes")?,
                oldtype: self.spec(inner)?,
            },
            "indexed" => TypeDef::Indexed {
                blocklengths: self.args("blocklengths")?,
                displacements: self.args("displacements")?,
                oldtype: self.spec(inner)?,
            },
            "indexed_block" => TypeDef::IndexedBlock {
                blocklength: self.arg("blocklength")?,
                displacements: self.args("displacements")?,
                oldtype: self.spec(inner)?,
            },
            "hindexed" => TypeDef::Hindexed {
                blocklengths: self.args("blocklengths")?,
                displacements_bytes: self.args("displacements_bytes")?,
                oldtype: self.spec(inner)?,
            },
            "subarray" | "subarray_fortran" => {
                let at = self.pos;
                let (sizes, subsizes, starts) = (
                    self.args("sizes")?,
                    self.args("subsizes")?,
                    self.args("starts")?,
                );
                let order = match name.as_str() {
                    "subarray" => Order::C,
                    _ => Order::Fortran,
                };
                TypeDef::Subarray {
                    dims: Dim::from_lists(&sizes, &subsizes, &starts, order)
                        .map_err(|e| format!("{e} at byte {at}"))?,
                    oldtype: self.spec(inner)?,
                }
            }
            "struct" => TypeDef::Struct {
                blocklengths: self.args("blocklengths")?,
                displacements_bytes: self.args("displacements_bytes")?,
                types: self.list(|p| p.spec(inner))?,
            },
            "resized" => TypeDef::Resized {
                lb: self.arg("lb")?,
                extent: self.arg("extent")?,
                oldtype: self.spec(inner)?,
            },
            other => return Err(format!("unknown constructor `{other}`")),
        };
        self.eat(b')')?;
        Ok(TypeTree(Box::new(def)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::*;
    use crate::WorldConfig;

    fn ctx() -> RankCtx {
        RankCtx::standalone(&WorldConfig::summit(1))
    }

    fn parse(input: &str) -> MpiResult<TypeTree> {
        input.parse()
    }

    fn named(n: Named) -> TypeTree {
        TypeTree(Box::new(TypeDef::Named(n)))
    }

    /// Parse and build in one step.
    fn build_str(input: &str, ctx: &mut RankCtx) -> MpiResult<Datatype> {
        parse(input)?.build(ctx)
    }

    #[test]
    fn parses_named_types() {
        assert_eq!(parse("byte").unwrap(), named(Named::Byte));
        assert_eq!(parse("  FLOAT ").unwrap(), named(Named::Float));
        // every named type has a keyword, and builds to its own handle
        let mut ctx = ctx();
        for (i, n) in Named::ALL.into_iter().enumerate() {
            let tree = parse(&n.keyword()).unwrap();
            assert_eq!(tree, named(n));
            assert_eq!(tree.build(&mut ctx).unwrap(), Datatype(i as u64));
        }
        assert_eq!(parse("unsigned_long").unwrap(), named(Named::UnsignedLong));
    }

    #[test]
    fn parses_nested_ctors() {
        let s = parse("vector(13, 100, 256, byte)").unwrap();
        match *s.0 {
            TypeDef::Vector {
                count,
                blocklength,
                stride,
                oldtype,
            } => {
                assert_eq!((count, blocklength, stride), (13, 100, 256));
                assert_eq!(oldtype, named(Named::Byte));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_lists() {
        let s = parse("subarray([1024,512,256],[47,13,100],[0,0,0],byte)").unwrap();
        match &*s.0 {
            TypeDef::Subarray { dims, .. } => {
                let sizes: Vec<i32> = dims.iter().map(|d| d.size).collect();
                assert_eq!(sizes, [1024, 512, 256]);
                assert_eq!(dims.order(), Order::C);
            }
            other => panic!("{other:?}"),
        }
        // an empty list is a list; a struct's last argument is a list of specs
        let s = parse("struct([], [], [])").unwrap();
        assert_eq!(s.0.children(), &[]);
        let s = parse("struct([1,2],[0,8],[int,double])").unwrap();
        assert_eq!(s.0.children(), &[named(Named::Int), named(Named::Double)]);
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_tokens() {
        assert!(parse("byte extra").is_err());
        assert!(parse("vector(1,2,3,byte").is_err());
        assert!(parse("[1,2]").is_err());
        assert!(parse("vector(1,,3,byte)").is_err());
        assert!(parse("struct([1],[0],[int,])").is_err());
    }

    #[test]
    fn builds_the_paper_plane() {
        let mut ctx = ctx();
        let dt = build_str("vector(13, 100, 256, byte)", &mut ctx).unwrap();
        let a = ctx.attrs(dt).unwrap();
        assert_eq!(a.size, 1300);
        assert_eq!(a.extent(), 12 * 256 + 100);
    }

    #[test]
    fn builds_nested_and_matches_rust_construction() {
        let mut ctx = ctx();
        let via_spec = build_str(
            "hvector(47, 1, 131072, hvector(13, 1, 256, contiguous(100, byte)))",
            &mut ctx,
        )
        .unwrap();
        let row = ctx.type_contiguous(100, MPI_BYTE).unwrap();
        let plane = ctx.type_create_hvector(13, 1, 256, row).unwrap();
        let via_rust = ctx.type_create_hvector(47, 1, 131072, plane).unwrap();
        assert_eq!(ctx.attrs(via_spec).unwrap(), ctx.attrs(via_rust).unwrap());
        // and reads back out of the registry as the tree that was parsed
        let reg = ctx.registry().read();
        assert_eq!(
            TypeTree::of(&reg, via_rust).unwrap(),
            TypeTree::of(&reg, via_spec).unwrap()
        );
    }

    /// Every constructor builds, reads back out of the registry as the same
    /// tree, and prints a spec that parses to the same tree.
    #[test]
    fn builds_every_constructor() {
        let mut ctx = ctx();
        for s in [
            "contiguous(8, int)",
            "vector(4, 2, 8, float)",
            "hvector(4, 2, 64, double)",
            "subarray([8,8],[2,4],[1,2],byte)",
            "subarray_fortran([8,8],[2,4],[1,2],byte)",
            "indexed([2,1],[0,5],int)",
            "indexed_block(2,[0,4,8],short)",
            "hindexed([1,2],[0,32],long)",
            "struct([1,0,2],[16,4,0],[int,double,vector(2,1,3,unsigned_char)])",
            "resized(0, 64, vector(2,1,2,int))",
            "resized(-4, 64, vector(2,1,-2,int))",
            "dup(float)",
        ] {
            let tree = parse(s).unwrap_or_else(|e| panic!("{s}: {e}"));
            let dt = tree.build(&mut ctx).unwrap_or_else(|e| panic!("{s}: {e}"));
            assert!(ctx.attrs(dt).unwrap().size > 0, "{s}");
            assert_eq!(TypeTree::of(&ctx.registry().read(), dt).unwrap(), tree);
            assert_eq!(parse(&tree.to_string()).unwrap(), tree, "{tree}");
        }
    }

    #[test]
    fn build_reports_semantic_errors() {
        let mut ctx = ctx();
        assert!(build_str("quux(1, byte)", &mut ctx).is_err());
        assert!(build_str("vector(1, 2, byte, 3)", &mut ctx).is_err());
        assert!(build_str("subarray([4],[9],[0],byte)", &mut ctx).is_err());
        assert!(build_str("unobtainium", &mut ctx).is_err());
        // an integer outside its argument's type is an error naming the
        // argument, as a scalar and as a list element — never a truncation
        for (s, what) in [
            ("contiguous(4294967297, byte)", "count = 4294967297"),
            (
                "vector(4294967298, 1, 4294967300, int)",
                "count = 4294967298",
            ),
            ("vector(2, 1, 4294967300, int)", "stride = 4294967300"),
            (
                "indexed([1,4294967297],[0,1],int)",
                "blocklengths = 4294967297",
            ),
            (
                "subarray([8],[2],[-2147483649],byte)",
                "starts = -2147483649",
            ),
            // a subarray's lists name one dimension each per index
            (
                "subarray([4,4],[2],[0,0],byte)",
                "lists differ in length: [2, 1, 2] at byte 9",
            ),
        ] {
            match parse(s) {
                Err(MpiError::InvalidArg(msg)) => assert!(msg.contains(what), "{s}: {msg}"),
                other => panic!("{s}: {other:?}"),
            }
        }
        // byte-valued arguments are 64-bit
        assert!(parse("hvector(2, 1, 4294967300, int)").is_ok());
        // nesting is bounded: a spec is input from outside the program
        let nested = |n: usize| format!("{}byte{}", "dup(".repeat(n), ")".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        for n in [MAX_DEPTH + 1, 25_000] {
            match parse(&nested(n)) {
                Err(MpiError::InvalidArg(msg)) => assert!(msg.contains("nested"), "{msg}"),
                other => panic!("{n} levels: {other:?}"),
            }
        }
    }
}

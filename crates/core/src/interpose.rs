//! The library-interposer architecture (paper Section 4).
//!
//! The real TEMPI is a shared library exporting a *partial* MPI
//! implementation; the dynamic linker resolves each MPI symbol either to
//! TEMPI (when TEMPI exports it and sits earlier in the link order /
//! `LD_PRELOAD`) or to the system MPI, and TEMPI internally `dlsym`s
//! through to the system implementation after adding its functionality.
//!
//! The simulator reproduces that dispatch structure explicitly:
//! [`Linker`] is the resolution table (which [`MpiSymbol`]s TEMPI
//! exports), and [`InterposedMpi`] is the application-facing MPI object —
//! every call consults the table, runs either the TEMPI or the system
//! implementation, and records which layer served it (so tests can assert
//! the fall-through behavior the paper's Fig. 5 describes).

use gpu_sim::GpuPtr;
use mpi_sim::{AlltoallvBlock, Datatype, MpiResult, RankCtx, Status};

use crate::config::{Method, TempiConfig};
use crate::tempi::Tempi;

/// MPI entry points relevant to the datatype path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum MpiSymbol {
    TypeCommit,
    TypeFree,
    Pack,
    Unpack,
    PackSize,
    Send,
    Recv,
    Alltoallv,
    CommRevoke,
    CommShrink,
    CommAgree,
}

/// Which library a symbol resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provider {
    /// The interposed TEMPI library.
    Tempi,
    /// The underlying system MPI.
    System,
}

/// The symbol-resolution table the dynamic linker would produce: bit `s`
/// is set when symbol `s` resolves to TEMPI, so building one allocates
/// nothing.
#[derive(Debug, Clone, Copy)]
pub struct Linker {
    overrides: u32,
}

impl Linker {
    /// TEMPI inserted before the system MPI (link order or `LD_PRELOAD`):
    /// the symbols the library exports resolve to TEMPI.
    pub fn with_tempi() -> Self {
        Self::with_overrides([
            MpiSymbol::TypeCommit,
            MpiSymbol::TypeFree,
            MpiSymbol::Pack,
            MpiSymbol::Unpack,
            MpiSymbol::PackSize,
            MpiSymbol::Send,
            MpiSymbol::Recv,
        ])
    }

    /// No interposition (TEMPI absent from the link order): everything
    /// resolves to the system MPI.
    pub fn system_only() -> Self {
        Linker { overrides: 0 }
    }

    /// A custom override set (for experiments interposing a subset).
    pub fn with_overrides(symbols: impl IntoIterator<Item = MpiSymbol>) -> Self {
        Linker {
            overrides: (symbols.into_iter()).fold(0, |set, s| set | 1 << s as u32),
        }
    }

    /// Resolve one symbol.
    pub fn resolve(&self, sym: MpiSymbol) -> Provider {
        if self.overrides & 1 << sym as u32 != 0 {
            Provider::Tempi
        } else {
            Provider::System
        }
    }
}

/// How many of the latest resolutions [`InterposedMpi::log`] keeps.
pub const LOG_LEN: usize = 32;

/// The last [`LOG_LEN`] resolutions, oldest first, held inline: a run of
/// any length logs without allocating, in 64 bytes.
#[derive(Debug, Clone, Copy, Default)]
struct Resolutions([Option<(MpiSymbol, Provider)>; LOG_LEN]);

impl Resolutions {
    fn push(&mut self, entry: (MpiSymbol, Provider)) {
        self.0.copy_within(1.., 0);
        self.0[LOG_LEN - 1] = Some(entry);
    }
}

/// The application-facing MPI: TEMPI state + the resolution table, over a
/// system-MPI rank context.
pub struct InterposedMpi {
    /// The interposed library's state.
    pub tempi: Tempi,
    linker: Linker,
    log: Resolutions,
}

impl InterposedMpi {
    /// Build with TEMPI interposed (the normal deployment).
    pub fn new(config: TempiConfig) -> Self {
        Self::with_linker(config, Linker::with_tempi())
    }

    /// Build with TEMPI interposed, configured from `TEMPI_*` environment
    /// variables (see [`TempiConfig::from_env`]) — how the real library is
    /// tuned without touching the application.
    pub fn from_env() -> Result<Self, String> {
        Ok(Self::new(TempiConfig::from_env()?))
    }

    /// Build without TEMPI in the link order (pure system MPI baseline).
    pub fn system_only() -> Self {
        Self::with_linker(TempiConfig::default(), Linker::system_only())
    }

    /// Build with a custom linker.
    pub fn with_linker(config: TempiConfig, linker: Linker) -> Self {
        InterposedMpi {
            tempi: Tempi::new(config),
            linker,
            log: Resolutions::default(),
        }
    }

    fn resolve(&mut self, sym: MpiSymbol) -> Provider {
        let p = self.linker.resolve(sym);
        self.log.push((sym, p));
        p
    }

    /// Which provider served each of the last [`LOG_LEN`] calls, oldest
    /// first.
    pub fn log(&self) -> impl Iterator<Item = (MpiSymbol, Provider)> + '_ {
        self.log.0.iter().flatten().copied()
    }

    /// TEMPI's counters (plan-cache hits, tuner probes/bucket hits,
    /// buffer-pool reuse, …) — the interposed library's observability
    /// surface, exposed without reaching into [`Tempi`] internals.
    pub fn stats(&self) -> &crate::tempi::TempiStats {
        &self.tempi.stats
    }

    /// Publish the interposed library's counters into `tracer`'s metrics
    /// registry (see [`Tempi::publish_metrics`]).
    pub fn publish_metrics(&self, tracer: &tempi_trace::Tracer) {
        self.tempi.publish_metrics(tracer);
    }

    /// `MPI_Type_commit`. TEMPI's version performs the native commit and
    /// then the translation/transformation/kernel-selection pipeline.
    pub fn type_commit(&mut self, ctx: &mut RankCtx, dt: Datatype) -> MpiResult<()> {
        match self.resolve(MpiSymbol::TypeCommit) {
            Provider::Tempi => {
                self.tempi.type_commit(ctx, dt)?;
                Ok(())
            }
            Provider::System => ctx.type_commit_native(dt),
        }
    }

    /// `MPI_Type_free`. TEMPI's version forwards to the system free and
    /// drops the type's plan at once; a free that bypasses it
    /// ([`RankCtx::type_free`]) leaves the plan until the slot's next
    /// occupant commits ([`Tempi::type_free`]).
    pub fn type_free(&mut self, ctx: &mut RankCtx, dt: Datatype) -> MpiResult<()> {
        match self.resolve(MpiSymbol::TypeFree) {
            Provider::Tempi => self.tempi.type_free(ctx, dt),
            Provider::System => ctx.type_free(dt),
        }
    }

    /// `MPI_Pack`.
    #[allow(clippy::too_many_arguments)]
    pub fn pack(
        &mut self,
        ctx: &mut RankCtx,
        inbuf: GpuPtr,
        incount: usize,
        dt: Datatype,
        outbuf: GpuPtr,
        outsize: usize,
        position: &mut usize,
    ) -> MpiResult<()> {
        match self.resolve(MpiSymbol::Pack) {
            Provider::Tempi => self
                .tempi
                .pack(ctx, inbuf, incount, dt, outbuf, outsize, position),
            Provider::System => ctx.pack(inbuf, incount, dt, outbuf, outsize, position),
        }
    }

    /// `MPI_Unpack`.
    #[allow(clippy::too_many_arguments)]
    pub fn unpack(
        &mut self,
        ctx: &mut RankCtx,
        inbuf: GpuPtr,
        insize: usize,
        position: &mut usize,
        outbuf: GpuPtr,
        outcount: usize,
        dt: Datatype,
    ) -> MpiResult<()> {
        match self.resolve(MpiSymbol::Unpack) {
            Provider::Tempi => self
                .tempi
                .unpack(ctx, inbuf, insize, position, outbuf, outcount, dt),
            Provider::System => ctx.unpack(inbuf, insize, position, outbuf, outcount, dt),
        }
    }

    /// `MPI_Pack_size`.
    pub fn pack_size(
        &mut self,
        ctx: &mut RankCtx,
        incount: usize,
        dt: Datatype,
    ) -> MpiResult<usize> {
        match self.resolve(MpiSymbol::PackSize) {
            Provider::Tempi => self.tempi.pack_size(ctx, incount, dt),
            Provider::System => ctx.pack_size(incount, dt),
        }
    }

    /// `MPI_Send`. Returns the method TEMPI used, if it accelerated the
    /// call.
    pub fn send(
        &mut self,
        ctx: &mut RankCtx,
        buf: GpuPtr,
        count: usize,
        dt: Datatype,
        dest: usize,
        tag: i32,
    ) -> MpiResult<Option<Method>> {
        match self.resolve(MpiSymbol::Send) {
            Provider::Tempi => self.tempi.send(ctx, buf, count, dt, dest, tag),
            Provider::System => {
                ctx.send(buf, count, dt, dest, tag)?;
                Ok(None)
            }
        }
    }

    /// `MPI_Recv`.
    pub fn recv(
        &mut self,
        ctx: &mut RankCtx,
        buf: GpuPtr,
        count: usize,
        dt: Datatype,
        src: Option<usize>,
        tag: Option<i32>,
    ) -> MpiResult<Status> {
        match self.resolve(MpiSymbol::Recv) {
            Provider::Tempi => Ok(self.tempi.recv(ctx, buf, count, dt, src, tag)?.0),
            Provider::System => ctx.recv(buf, count, dt, src, tag),
        }
    }

    /// `MPI_Alltoallv` on bytes. TEMPI does not override this symbol — the
    /// call demonstrates automatic fall-through to the system MPI (the
    /// paper's stencil packs with TEMPI, then exchanges with the system
    /// `MPI_Alltoallv`).
    #[allow(clippy::too_many_arguments)]
    pub fn alltoallv_bytes(
        &mut self,
        ctx: &mut RankCtx,
        sendbuf: GpuPtr,
        sendcounts: &[usize],
        sdispls: &[usize],
        recvbuf: GpuPtr,
        recvcounts: &[usize],
        rdispls: &[usize],
    ) -> MpiResult<()> {
        // not in the override set → always the system implementation
        let _ = self.resolve(MpiSymbol::Alltoallv);
        ctx.alltoallv_bytes(sendbuf, sendcounts, sdispls, recvbuf, recvcounts, rdispls)
    }

    /// Sparse-neighborhood `MPI_Alltoallv` (same fall-through as
    /// [`InterposedMpi::alltoallv_bytes`], O(degree) argument lists): the
    /// shape the stencil uses at scale, where walking a world-sized count
    /// array per rank would dominate a 10,000-rank exchange.
    pub fn alltoallv_sparse_bytes(
        &mut self,
        ctx: &mut RankCtx,
        sendbuf: GpuPtr,
        sends: &[AlltoallvBlock],
        recvbuf: GpuPtr,
        recvs: &[AlltoallvBlock],
    ) -> MpiResult<()> {
        let _ = self.resolve(MpiSymbol::Alltoallv);
        ctx.alltoallv_sparse_bytes(sendbuf, sends, recvbuf, recvs)
    }

    /// `MPIX_Comm_revoke` (ULFM). Fault-tolerance entry points are not
    /// datatype symbols, so TEMPI never exports them — they always fall
    /// through to the system MPI, and the log records that.
    pub fn comm_revoke(&mut self, ctx: &mut RankCtx) -> MpiResult<()> {
        let _ = self.resolve(MpiSymbol::CommRevoke);
        ctx.revoke()
    }

    /// `MPIX_Comm_shrink` (ULFM) over an agreed dead set: renumber the
    /// survivors densely and bump the communicator epoch, locally. Always
    /// the system implementation.
    pub fn comm_shrink(&mut self, ctx: &mut RankCtx, dead: &[usize]) -> MpiResult<()> {
        let _ = self.resolve(MpiSymbol::CommShrink);
        ctx.shrink(dead)
    }

    /// `MPIX_Comm_agree` (ULFM), carrying a value: every survivor returns
    /// the identical set of failed world ranks and the minimum of the
    /// members' values. Always the system implementation.
    pub fn comm_agree(&mut self, ctx: &mut RankCtx, value: u64) -> MpiResult<(Vec<usize>, u64)> {
        let _ = self.resolve(MpiSymbol::CommAgree);
        ctx.agree(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_sim::consts::*;
    use mpi_sim::WorldConfig;

    fn ctx() -> RankCtx {
        RankCtx::standalone(&WorldConfig::summit(1))
    }

    #[test]
    fn linker_resolves_overridden_symbols_to_tempi() {
        let l = Linker::with_tempi();
        assert_eq!(l.resolve(MpiSymbol::Pack), Provider::Tempi);
        assert_eq!(l.resolve(MpiSymbol::TypeCommit), Provider::Tempi);
        // TEMPI does not export Alltoallv → system
        assert_eq!(l.resolve(MpiSymbol::Alltoallv), Provider::System);
    }

    #[test]
    fn system_only_linker_resolves_everything_to_system() {
        let l = Linker::system_only();
        for s in [MpiSymbol::Pack, MpiSymbol::Send, MpiSymbol::TypeCommit] {
            assert_eq!(l.resolve(s), Provider::System);
        }
    }

    #[test]
    fn interposed_commit_builds_plan_and_logs() {
        let mut ctx = ctx();
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        let dt = ctx.type_vector(4, 2, 8, MPI_FLOAT).unwrap();
        mpi.type_commit(&mut ctx, dt).unwrap();
        assert!(mpi.tempi.plan(dt).is_some());
        assert!(mpi.log().eq([(MpiSymbol::TypeCommit, Provider::Tempi)]));
        // and the system registry saw the commit too (native commit ran)
        assert!(ctx.is_committed(dt).unwrap());
    }

    #[test]
    fn interposed_free_drops_the_plan_at_once() {
        let mut ctx = ctx();
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        let dt = ctx.type_vector(4, 2, 8, MPI_FLOAT).unwrap();
        mpi.type_commit(&mut ctx, dt).unwrap();
        mpi.type_free(&mut ctx, dt).unwrap();
        assert!(mpi.tempi.plan(dt).is_none());
        assert_eq!(mpi.tempi.cached_plans(), 0);
        assert_eq!(
            mpi.log().nth(1),
            Some((MpiSymbol::TypeFree, Provider::Tempi))
        );
        // the system free ran: the handle is dead, a second free an error
        assert_eq!(ctx.attrs(dt), Err(mpi_sim::MpiError::InvalidDatatype));
        let again = mpi.type_free(&mut ctx, dt);
        assert_eq!(again, Err(mpi_sim::MpiError::InvalidDatatype));
    }

    #[test]
    fn system_only_commit_builds_no_plan() {
        let mut ctx = ctx();
        let mut mpi = InterposedMpi::system_only();
        let dt = ctx.type_vector(4, 2, 8, MPI_FLOAT).unwrap();
        mpi.type_commit(&mut ctx, dt).unwrap();
        assert!(mpi.tempi.plan(dt).is_none());
        assert!(ctx.is_committed(dt).unwrap());
        assert!(mpi.log().eq([(MpiSymbol::TypeCommit, Provider::System)]));
    }

    #[test]
    fn tempi_pack_beats_the_system_mpi_on_gpu_buffers() {
        // same operation through both resolution tables; identical bytes,
        // very different virtual cost
        let run = |interposed: bool| -> (Vec<u8>, gpu_sim::SimTime) {
            let mut ctx = ctx();
            let mut mpi = if interposed {
                InterposedMpi::new(TempiConfig::default())
            } else {
                InterposedMpi::system_only()
            };
            let dt = ctx.type_vector(64, 4, 64, MPI_BYTE).unwrap();
            mpi.type_commit(&mut ctx, dt).unwrap();
            let src = ctx.gpu.malloc(64 * 64).unwrap();
            let data: Vec<u8> = (0..64 * 64).map(|i| (i % 251) as u8).collect();
            ctx.gpu.memory().poke(src, &data).unwrap();
            let dst = ctx.gpu.malloc(256).unwrap();
            let t0 = ctx.clock.now();
            let mut pos = 0;
            mpi.pack(&mut ctx, src, 1, dt, dst, 256, &mut pos).unwrap();
            assert_eq!(pos, 256);
            let bytes = ctx.gpu.memory().peek(dst, 256).unwrap();
            (bytes, ctx.clock.now() - t0)
        };
        let (tempi_bytes, tempi_t) = run(true);
        let (system_bytes, system_t) = run(false);
        assert_eq!(tempi_bytes, system_bytes, "functional equivalence");
        assert!(
            tempi_t * 5 < system_t,
            "TEMPI {tempi_t} should be far below system {system_t}"
        );
    }

    #[test]
    fn alltoallv_self_exchange_works_and_logs_system() {
        let mut ctx = ctx();
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        let send = ctx.gpu.host_alloc(8).unwrap();
        let recv = ctx.gpu.host_alloc(8).unwrap();
        ctx.gpu.memory().poke(send, &[9u8; 8]).unwrap();
        mpi.alltoallv_bytes(&mut ctx, send, &[8], &[0], recv, &[8], &[0])
            .unwrap();
        assert_eq!(ctx.gpu.memory().peek(recv, 8).unwrap(), vec![9u8; 8]);
        assert_eq!(
            mpi.log().last(),
            Some((MpiSymbol::Alltoallv, Provider::System))
        );
    }

    #[test]
    fn ulfm_symbols_always_fall_through_to_system() {
        let l = Linker::with_tempi();
        assert_eq!(l.resolve(MpiSymbol::CommRevoke), Provider::System);
        assert_eq!(l.resolve(MpiSymbol::CommShrink), Provider::System);
        assert_eq!(l.resolve(MpiSymbol::CommAgree), Provider::System);

        let mut ctx = ctx();
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        // single-rank world: agree finds nothing, shrink keeps everyone
        assert_eq!(mpi.comm_agree(&mut ctx, 7).unwrap(), (Vec::new(), 7));
        mpi.comm_shrink(&mut ctx, &[]).unwrap();
        assert_eq!(ctx.size, 1);
        mpi.comm_revoke(&mut ctx).unwrap();
        assert!(ctx.is_revoked());
        assert!(mpi.log().eq([
            (MpiSymbol::CommAgree, Provider::System),
            (MpiSymbol::CommShrink, Provider::System),
            (MpiSymbol::CommRevoke, Provider::System),
        ]));
    }

    #[test]
    fn the_log_keeps_the_last_resolutions_inline_oldest_first() {
        assert!(std::mem::size_of::<Resolutions>() <= 64);
        let mut ctx = ctx();
        let mut mpi = InterposedMpi::new(TempiConfig::default());
        let dt = ctx.type_vector(4, 2, 8, MPI_FLOAT).unwrap();
        mpi.type_commit(&mut ctx, dt).unwrap();
        for _ in 0..LOG_LEN - 2 {
            mpi.pack_size(&mut ctx, 1, dt).unwrap();
        }
        mpi.comm_revoke(&mut ctx).unwrap();
        let log: Vec<_> = mpi.log().collect();
        assert_eq!(log.len(), LOG_LEN);
        assert_eq!(log[0], (MpiSymbol::TypeCommit, Provider::Tempi));
        // one more call pushes the oldest out
        mpi.pack_size(&mut ctx, 1, dt).unwrap();
        let log: Vec<_> = mpi.log().collect();
        assert_eq!(log.len(), LOG_LEN);
        assert_eq!(log[0], (MpiSymbol::PackSize, Provider::Tempi));
        assert_eq!(log[LOG_LEN - 2], (MpiSymbol::CommRevoke, Provider::System));
        assert_eq!(log[LOG_LEN - 1], (MpiSymbol::PackSize, Provider::Tempi));
    }

    #[test]
    fn pack_size_both_providers_agree() {
        let mut ctx = ctx();
        let dt = ctx.type_vector(13, 100, 128, MPI_FLOAT).unwrap();
        let mut a = InterposedMpi::new(TempiConfig::default());
        let mut b = InterposedMpi::system_only();
        a.type_commit(&mut ctx, dt).unwrap();
        assert_eq!(
            a.pack_size(&mut ctx, 3, dt).unwrap(),
            b.pack_size(&mut ctx, 3, dt).unwrap()
        );
    }
}

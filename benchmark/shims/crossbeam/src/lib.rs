//! Empty: `mpi-sim` declares `crossbeam` but imports nothing from it.

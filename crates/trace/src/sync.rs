//! The workspace's locks: `Mutex`, `Condvar` and `RwLock` over `std::sync`
//! with the call shape the crates were written against — `lock()`,
//! `read()` and `write()` return the guard itself and [`Condvar::wait`]
//! takes the guard by `&mut`.
//!
//! Nothing here poisons: a lock whose holder panicked is handed to the
//! next taker as is. Every structure behind these locks (inboxes, the
//! datatype registry, device memory, the trace buffer) is updated in steps
//! that each leave it valid, and a rank that panics is reported through
//! `World::run`'s result, so the survivors' teardown must not panic a
//! second time on a poisoned lock.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError};

/// A mutual-exclusion lock whose `lock()` returns the guard directly.
#[derive(Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

/// Guard of [`Mutex`]. Holds an `Option` so [`Condvar::wait`] can move
/// the inner std guard out and back through a `&mut` borrow.
pub struct MutexGuard<'a, T: ?Sized>(Option<sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    /// A lock around `value`.
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    /// Consume the lock and return the value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Block until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0
            .as_ref()
            .expect("guard is only empty inside Condvar::wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0
            .as_mut()
            .expect("guard is only empty inside Condvar::wait")
    }
}

/// A condition variable whose `wait` takes `&mut MutexGuard`.
#[derive(Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// A condition variable with no waiters.
    pub const fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    /// Release the lock behind `guard`, sleep until notified, and take the
    /// lock again. Wake-ups may be spurious: call in a loop on the
    /// condition.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard
            .0
            .take()
            .expect("guard is only empty inside Condvar::wait");
        guard.0 = Some(self.0.wait(inner).unwrap_or_else(PoisonError::into_inner));
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

/// A reader-writer lock whose `read()` / `write()` return guards directly.
#[derive(Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// A lock around `value`.
    pub const fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Block until shared access is held.
    pub fn read(&self) -> sync::RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Block until exclusive access is held.
    pub fn write(&self) -> sync::RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_and_condvar_hand_a_value_between_threads() {
        let pair = Arc::new((Mutex::new(0u32), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            *p2.0.lock() = 7;
            p2.1.notify_all();
        });
        let mut g = pair.0.lock();
        while *g != 7 {
            pair.1.wait(&mut g);
        }
        drop(g);
        t.join().expect("notifier thread ran to completion");
        let arc = Arc::try_unwrap(pair).expect("only owner left");
        assert_eq!(arc.0.into_inner(), 7);
    }

    #[test]
    fn a_panicked_holder_does_not_poison_the_lock() {
        let m = Arc::new(Mutex::new(1u8));
        let l = Arc::new(RwLock::new(vec![1]));
        let (m2, l2) = (Arc::clone(&m), Arc::clone(&l));
        let died = std::thread::spawn(move || {
            let _g = m2.lock();
            let _w = l2.write();
            panic!("holder dies with both locks held");
        })
        .join();
        assert!(died.is_err());
        *m.lock() += 1;
        l.write().push(2);
        assert_eq!((*m.lock(), l.read().clone()), (2, vec![1, 2]));
    }
}

//! Model-aware drop-in replacements for the `std` sync types re-exported by
//! [`crate::sync`] when the `model` feature is on.
//!
//! Every shim value carries a real `std` twin. Outside a model run (no scheduler on this
//! thread) each operation delegates straight to the twin with the caller's ordering, so
//! test builds behave exactly like production modulo one thread-local lookup. Inside a
//! model run, values created during scenario setup are *registered locations*: their
//! operations park at the scheduler in [`crate::model`] and their values come from the
//! explored store history, not the twin.
//!
//! A shim value created outside the model (or in a previous execution) must not be
//! touched from a model thread — that would silently exclude it from exploration, so it
//! panics instead of lying.

use std::sync::atomic::Ordering;
use std::sync::{LockResult, OnceLock, PoisonError, TryLockError};

use crate::model::{current_ctx, AtomOp, Ctx};

/// Location registration: `(run id, location index)` once model-registered.
type Loc = OnceLock<(u64, usize)>;

/// Resolves how an operation on a shim value must execute.
fn route(loc: &Loc) -> Option<(Ctx, usize)> {
    let ctx = current_ctx()?;
    match loc.get() {
        Some(&(run, idx)) if run == ctx.run_id() => Some((ctx, idx)),
        Some(_) => panic!(
            "shim value from a previous model execution accessed inside a model run; \
             scenarios must rebuild all state in their setup closure"
        ),
        None => panic!(
            "shim value created outside the model accessed from a model thread; \
             create it in the scenario setup so the explorer can track it"
        ),
    }
}

macro_rules! model_atomic {
    ($name:ident, $std:ty, $prim:ty) => {
        /// Model-aware atomic; see the module docs for the passthrough/model split.
        #[derive(Debug)]
        pub struct $name {
            inner: $std,
            loc: Loc,
        }

        #[allow(clippy::unnecessary_cast)] // the `as u64` widenings are no-ops for u64
        impl $name {
            /// Creates the atomic; registers it as a model location when called from a
            /// scenario setup closure.
            pub fn new(v: $prim) -> Self {
                let loc = OnceLock::new();
                if let Some(ctx) = current_ctx() {
                    let reg = ctx.register_atom(v as u64);
                    loc.set(reg).expect("freshly created OnceLock");
                }
                $name { inner: <$std>::new(v), loc }
            }

            /// Loads the value with the given ordering.
            pub fn load(&self, order: Ordering) -> $prim {
                match route(&self.loc) {
                    Some((ctx, idx)) => ctx.op(idx, AtomOp::Load(order)) as $prim,
                    None => self.inner.load(order),
                }
            }

            /// Stores `v` with the given ordering.
            pub fn store(&self, v: $prim, order: Ordering) {
                match route(&self.loc) {
                    Some((ctx, idx)) => {
                        ctx.op(idx, AtomOp::Store(v as u64, order));
                    }
                    None => self.inner.store(v, order),
                }
            }

            /// Adds `v`, returning the previous value.
            pub fn fetch_add(&self, v: $prim, order: Ordering) -> $prim {
                match route(&self.loc) {
                    Some((ctx, idx)) => ctx.op(idx, AtomOp::FetchAdd(v as u64, order)) as $prim,
                    None => self.inner.fetch_add(v, order),
                }
            }

            /// Maximizes with `v`, returning the previous value.
            pub fn fetch_max(&self, v: $prim, order: Ordering) -> $prim {
                match route(&self.loc) {
                    Some((ctx, idx)) => ctx.op(idx, AtomOp::FetchMax(v as u64, order)) as $prim,
                    None => self.inner.fetch_max(v, order),
                }
            }

            /// Stores `new` if the value is `current`; returns the value read, `Ok` when
            /// the store happened.
            pub fn compare_exchange(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                match route(&self.loc) {
                    Some((ctx, idx)) => {
                        let op =
                            AtomOp::CompareExchange(current as u64, new as u64, success, failure);
                        let read = ctx.op(idx, op) as $prim;
                        if read == current {
                            Ok(read)
                        } else {
                            Err(read)
                        }
                    }
                    None => self.inner.compare_exchange(current, new, success, failure),
                }
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new(0)
            }
        }
    };
}

model_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
model_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);

/// Model-aware reader-writer lock; see the module docs for the passthrough/model split.
///
/// In model runs the *scheduler* provides mutual exclusion (acquires are choice points,
/// holders block rivals), and the inner `std` lock is then taken without contention so
/// guards still carry poisoning semantics identical to `std`.
#[derive(Debug)]
pub struct RwLock<T> {
    inner: std::sync::RwLock<T>,
    loc: Loc,
}

impl<T> RwLock<T> {
    /// Creates the lock; registers it as a model location when called from setup.
    pub fn new(value: T) -> Self {
        let loc = OnceLock::new();
        if let Some(ctx) = current_ctx() {
            let reg = ctx.register_lock();
            loc.set(reg).expect("freshly created OnceLock");
        }
        RwLock { inner: std::sync::RwLock::new(value), loc }
    }

    /// Acquires a shared read guard (blocking in the model sense: the acquiring thread
    /// is unrunnable until no writer holds the lock).
    pub fn read(&self) -> LockResult<RwLockReadGuard<'_, T>> {
        match route(&self.loc) {
            Some((ctx, idx)) => {
                ctx.op(idx, AtomOp::LockRead);
                match self.inner.try_read() {
                    Ok(g) => Ok(RwLockReadGuard { inner: Some(g), model: Some((ctx, idx)) }),
                    Err(TryLockError::Poisoned(pe)) => Err(PoisonError::new(RwLockReadGuard {
                        inner: Some(pe.into_inner()),
                        model: Some((ctx, idx)),
                    })),
                    Err(TryLockError::WouldBlock) => {
                        unreachable!("model scheduler granted a contended read lock")
                    }
                }
            }
            None => match self.inner.read() {
                Ok(g) => Ok(RwLockReadGuard { inner: Some(g), model: None }),
                Err(pe) => Err(PoisonError::new(RwLockReadGuard {
                    inner: Some(pe.into_inner()),
                    model: None,
                })),
            },
        }
    }

    /// Acquires the exclusive write guard (blocking in the model sense).
    pub fn write(&self) -> LockResult<RwLockWriteGuard<'_, T>> {
        match route(&self.loc) {
            Some((ctx, idx)) => {
                ctx.op(idx, AtomOp::LockWrite);
                match self.inner.try_write() {
                    Ok(g) => Ok(RwLockWriteGuard { inner: Some(g), model: Some((ctx, idx)) }),
                    Err(TryLockError::Poisoned(pe)) => Err(PoisonError::new(RwLockWriteGuard {
                        inner: Some(pe.into_inner()),
                        model: Some((ctx, idx)),
                    })),
                    Err(TryLockError::WouldBlock) => {
                        unreachable!("model scheduler granted a contended write lock")
                    }
                }
            }
            None => match self.inner.write() {
                Ok(g) => Ok(RwLockWriteGuard { inner: Some(g), model: None }),
                Err(pe) => Err(PoisonError::new(RwLockWriteGuard {
                    inner: Some(pe.into_inner()),
                    model: None,
                })),
            },
        }
    }
}

/// Shared guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T> {
    inner: Option<std::sync::RwLockReadGuard<'a, T>>,
    model: Option<(Ctx, usize)>,
}

impl<T> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard accessed after drop")
    }
}

impl<T> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        // Release the inner std lock first so the next model thread the scheduler
        // grants can take it uncontended.
        drop(self.inner.take());
        if let Some((ctx, idx)) = self.model.take() {
            if std::thread::panicking() {
                ctx.release_during_unwind(idx, false);
            } else {
                ctx.op(idx, AtomOp::UnlockRead);
            }
        }
    }
}

/// Exclusive guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T> {
    inner: Option<std::sync::RwLockWriteGuard<'a, T>>,
    model: Option<(Ctx, usize)>,
}

impl<T> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard accessed after drop")
    }
}

impl<T> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard accessed after drop")
    }
}

impl<T> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.inner.take());
        if let Some((ctx, idx)) = self.model.take() {
            if std::thread::panicking() {
                ctx.release_during_unwind(idx, true);
            } else {
                ctx.op(idx, AtomOp::UnlockWrite);
            }
        }
    }
}

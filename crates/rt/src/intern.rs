//! An append-only string interner with lock-free lookups.
//!
//! The logging fast path (§4.2: logging must "interfere minimally" with
//! the implementation) cannot afford an allocation — or a contended lock —
//! per recorded method name. An [`Interner`] maps each distinct string to
//! a dense `u32` id exactly once; after that, both directions
//! ([`Interner::intern`] and [`Interner::get`]) are a single atomic load
//! plus a hash lookup in an immutable snapshot, shared by all threads
//! without any mutual exclusion.
//!
//! Internally the interner is a copy-on-write snapshot behind an
//! [`AtomicPtr`]: interning a *new* string takes a write lock, rebuilds
//! the table, and publishes the new snapshot; superseded snapshots (and
//! the interned strings themselves) are intentionally leaked, which is
//! bounded in practice because the id space is the set of distinct method
//! names of the program under test — a handful of short, static strings.
//!
//! ```
//! static METHODS: vyrd_rt::intern::Interner = vyrd_rt::intern::Interner::new();
//! let insert = METHODS.intern("Insert");
//! assert_eq!(METHODS.intern("Insert"), insert); // stable
//! assert_eq!(METHODS.get(insert), Some("Insert"));
//! ```

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::{Mutex, PoisonError};

/// FNV-1a. The default `HashMap` hasher (SipHash) costs more than the
/// rest of the interner's hot path put together; method names are short,
/// program-chosen strings, so HashDoS resistance buys nothing here and a
/// multiply-per-byte hash is the right trade.
#[derive(Debug, Default)]
pub struct FnvHasher(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Hasher for FnvHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 { FNV_OFFSET } else { self.0 };
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed with [`FnvHasher`], for short keys whose values the
/// program under test chose: interned method names, and the object and
/// thread ids a log carries (the shard router's object index, the
/// checker's per-thread tables). Those ids may arrive in a log read from
/// a file, so a crafted log can pick colliding keys — but what it slows
/// is only its own check, which it could stall anyway by being long.
/// Never use it for keys a *remote* party picks in a process it shares
/// with other work.
pub type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<FnvHasher>>;

/// One published table generation: ids are indices into `names`.
struct Snapshot {
    ids: FnvMap<&'static str, u32>,
    names: Vec<&'static str>,
}

/// A global-friendly string interner; see the module docs.
///
/// `const`-constructible so it can live in a `static` without lazy
/// initialization on the lookup path.
pub struct Interner {
    /// The current [`Snapshot`], or null before the first intern. Never
    /// deallocated once published (readers may hold it indefinitely).
    current: AtomicPtr<Snapshot>,
    /// Serializes snapshot replacement; never held during lookups.
    write: Mutex<()>,
}

impl Interner {
    /// Creates an empty interner.
    pub const fn new() -> Interner {
        Interner {
            current: AtomicPtr::new(std::ptr::null_mut()),
            write: Mutex::new(()),
        }
    }

    fn snapshot(&self) -> Option<&Snapshot> {
        let p = self.current.load(Ordering::Acquire);
        // Safety: `p` is either null or a pointer published by
        // `intern_slow` via `Box::into_raw` and never freed.
        unsafe { p.as_ref() }
    }

    /// Returns the id for `name`, assigning the next free id on first
    /// sight. Ids are dense, starting at 0, and stable for the lifetime
    /// of the interner. The hot path (an already-known string) takes no
    /// lock.
    pub fn intern(&self, name: &str) -> u32 {
        if let Some(s) = self.snapshot() {
            if let Some(&id) = s.ids.get(name) {
                return id;
            }
        }
        self.intern_slow(name)
    }

    #[cold]
    fn intern_slow(&self, name: &str) -> u32 {
        let _guard = self
            .write
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // Somebody may have interned it between our lookup and the lock.
        if let Some(s) = self.snapshot() {
            if let Some(&id) = s.ids.get(name) {
                return id;
            }
        }
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let mut next = match self.snapshot() {
            Some(s) => Snapshot {
                ids: s.ids.clone(),
                names: s.names.clone(),
            },
            None => Snapshot {
                ids: FnvMap::default(),
                names: Vec::new(),
            },
        };
        let id = u32::try_from(next.names.len()).unwrap_or_else(|_| {
            // 2^32 distinct strings would have exhausted memory long ago.
            panic!("interner id space exhausted")
        });
        next.names.push(leaked);
        next.ids.insert(leaked, id);
        // Publish; the old snapshot stays alive for readers that already
        // loaded it (intentional bounded leak, see module docs).
        self.current
            .store(Box::into_raw(Box::new(next)), Ordering::Release);
        id
    }

    /// The string for `id`, or `None` for an id this interner never
    /// issued.
    pub fn get(&self, id: u32) -> Option<&'static str> {
        self.snapshot()
            .and_then(|s| s.names.get(id as usize).copied())
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.snapshot().map_or(0, |s| s.names.len())
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for Interner {
    fn default() -> Interner {
        Interner::new()
    }
}

impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interner").field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn ids_are_dense_and_stable() {
        let i = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.intern("a"), 0);
        assert_eq!(i.intern("b"), 1);
        assert_eq!(i.intern("a"), 0);
        assert_eq!(i.len(), 2);
        assert_eq!(i.get(0), Some("a"));
        assert_eq!(i.get(1), Some("b"));
        assert_eq!(i.get(2), None);
    }

    #[test]
    fn works_as_a_static() {
        static S: Interner = Interner::new();
        let id = S.intern("only");
        assert_eq!(S.get(id), Some("only"));
    }

    #[test]
    fn concurrent_interning_agrees_on_ids() {
        let interner = Arc::new(Interner::new());
        let names: Vec<String> = (0..16).map(|i| format!("m{i}")).collect();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let interner = Arc::clone(&interner);
            let names = names.clone();
            handles.push(thread::spawn(move || {
                let mut ids = Vec::new();
                for _ in 0..50 {
                    ids.clear();
                    for n in &names {
                        ids.push(interner.intern(n));
                    }
                }
                ids
            }));
        }
        let all: Vec<Vec<u32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Every thread resolved every name to the same id.
        for ids in &all {
            assert_eq!(ids, &all[0]);
        }
        assert_eq!(interner.len(), 16);
        for (n, &id) in names.iter().zip(&all[0]) {
            assert_eq!(interner.get(id), Some(n.as_str()));
        }
    }
}

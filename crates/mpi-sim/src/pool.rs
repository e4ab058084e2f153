//! Spent `Vec`s kept for reuse: the world's payload free list
//! ([`crate::PAYLOAD_POOL_BYTES`]) and the lists of freed datatypes
//! (`TypeRegistry::free`) are each one [`Pool`].

use std::fmt;

/// Spent buffers awaiting reuse, binned by capacity class: `bins[k]` holds
/// the buffers of `2^k ..< 2^(k+1)` elements, largest first, so a take or
/// a recycle of a class's usual size is a pop or push at its end. They
/// hold at most `BYTES` bytes of capacity together, so a buffer past
/// class `class(BYTES / size_of::<T>())` is never kept, and there are
/// `BINS` ([`bins`]) bins: the classes a kept buffer can reach.
pub(crate) struct Pool<T, const BYTES: usize, const BINS: usize> {
    bins: [Vec<Vec<T>>; BINS],
    /// Their total capacity, in bytes.
    bytes: usize,
}

/// The bytes of `buf`'s capacity.
fn bytes<T>(buf: &Vec<T>) -> usize {
    buf.capacity() * size_of::<T>()
}

/// The capacity class of a non-empty buffer.
pub(crate) const fn class(cap: usize) -> usize {
    cap.ilog2() as usize
}

/// The bins of a pool of at most `bytes` bytes of `T`s: one per capacity
/// class up to the largest buffer that fits.
pub(crate) const fn bins<T>(bytes: usize) -> usize {
    class(bytes / size_of::<T>()) + 1
}

impl<T, const BYTES: usize, const BINS: usize> Default for Pool<T, BYTES, BINS> {
    fn default() -> Self {
        const { assert!(BINS == bins::<T>(BYTES), "one bin per reachable class") };
        Pool {
            bins: std::array::from_fn(|_| Vec::new()),
            bytes: 0,
        }
    }
}

impl<T, const BYTES: usize, const BINS: usize> fmt::Debug for Pool<T, BYTES, BINS> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pool({} of {BYTES} bytes)", self.bytes)
    }
}

impl<T, const BYTES: usize, const BINS: usize> Pool<T, BYTES, BINS> {
    /// Bytes of capacity the pool retains.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    /// The smallest pooled buffer with room for `len > 0` elements: the
    /// smallest fit in `len`'s own class, else the smallest buffer of the
    /// next non-empty class (all of which fit); none past the last bin.
    fn take(&mut self, len: usize) -> Option<Vec<T>> {
        let own = self.bins.get_mut(class(len))?;
        // largest first: the buffers that fit are a prefix
        let fits = match own.last() {
            Some(b) if b.capacity() >= len => own.len(),
            _ => own.partition_point(|b| b.capacity() >= len),
        };
        let buf = match fits {
            0 => self.bins[class(len) + 1..].iter_mut().find_map(Vec::pop)?,
            _ => own.remove(fits - 1),
        };
        self.bytes -= bytes(&buf);
        Some(buf)
    }

    /// An empty buffer with room for `len` elements: [`Pool::take`]'s,
    /// else a fresh one.
    pub(crate) fn take_or_new(&mut self, len: usize) -> Vec<T> {
        let pooled = (len > 0).then(|| self.take(len));
        pooled.flatten().unwrap_or_else(|| Vec::with_capacity(len))
    }

    /// Keep `buf`, emptied, unless it has no capacity or would take the
    /// pool past `BYTES`.
    pub(crate) fn put(&mut self, mut buf: Vec<T>) {
        let cap = buf.capacity();
        if cap == 0 || self.bytes + bytes(&buf) > BYTES {
            return;
        }
        self.bytes += bytes(&buf);
        buf.clear();
        let bin = &mut self.bins[class(cap)];
        let at = match bin.last() {
            Some(b) if b.capacity() < cap => bin.partition_point(|b| b.capacity() >= cap),
            _ => bin.len(),
        };
        bin.insert(at, buf);
    }
}

impl<T: Copy, const BYTES: usize, const BINS: usize> Pool<T, BYTES, BINS> {
    /// `items` in a pooled buffer, else in a fresh one.
    pub(crate) fn copy(&mut self, items: &[T]) -> Vec<T> {
        let mut buf = self.take_or_new(items.len());
        buf.extend_from_slice(items);
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_list_is_copied_into_the_smallest_kept_buffer_that_fits() {
        let mut pool = Pool::<i64, 1024, { bins::<i64>(1024) }>::default();
        for cap in [4, 16, 6] {
            pool.put(Vec::with_capacity(cap));
        }
        assert_eq!(pool.bytes(), 26 * 8);
        let list = pool.copy(&[1, 2, 3, 4, 5]);
        assert_eq!(
            (list.as_slice(), list.capacity()),
            (&[1, 2, 3, 4, 5][..], 6)
        );
        // 4 is too small, so the next class's smallest
        assert_eq!(pool.copy(&[7; 5]).capacity(), 16);
        assert_eq!(pool.bytes(), 4 * 8);
        // the cap counts bytes, not elements
        pool.put(vec![0; 124]);
        assert_eq!(pool.bytes(), 128 * 8);
        pool.put(vec![0; 1]);
        assert_eq!(pool.bytes(), 128 * 8);
        // a list past the last bin's class is copied into a fresh buffer
        assert_eq!(pool.copy(&[0; 256]).capacity(), 256);
        assert_eq!(pool.bytes(), 128 * 8);
    }

    #[test]
    fn a_pool_has_a_bin_per_class_a_kept_buffer_can_reach() {
        // 1 KiB of `i64`s is at most 128 of them: classes 0 to 7
        assert_eq!(bins::<i64>(1024), 8);
        assert_eq!(bins::<u8>(8 << 20), 24);
        let vec = size_of::<Vec<u8>>();
        assert_eq!(size_of::<Pool<u8, { 8 << 20 }, 24>>(), 24 * vec + 8);
    }
}

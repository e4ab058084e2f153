//! Spent `Vec`s kept for reuse: the world's payload free list
//! ([`crate::PAYLOAD_POOL_BYTES`]) and the lists of freed datatypes
//! (`TypeRegistry::free`) are each one [`Pool`].

use std::fmt;

/// Spent buffers awaiting reuse, binned by capacity class: `bins[k]` holds
/// the buffers of `2^k ..< 2^(k+1)` elements (the last bin, all from
/// 2^31 up), largest first, so a take or a recycle of a class's usual size
/// is a pop or push at its end. They hold at most `BYTES` bytes of
/// capacity together.
pub(crate) struct Pool<T, const BYTES: usize> {
    bins: [Vec<Vec<T>>; 32],
    /// Their total capacity, in bytes.
    bytes: usize,
}

/// The bytes of `buf`'s capacity.
fn bytes<T>(buf: &Vec<T>) -> usize {
    buf.capacity() * size_of::<T>()
}

/// The capacity class of a non-empty buffer.
pub(crate) fn class(cap: usize) -> usize {
    cap.ilog2().min(31) as usize
}

impl<T, const BYTES: usize> Default for Pool<T, BYTES> {
    fn default() -> Self {
        Pool {
            bins: std::array::from_fn(|_| Vec::new()),
            bytes: 0,
        }
    }
}

impl<T, const BYTES: usize> fmt::Debug for Pool<T, BYTES> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pool({} of {BYTES} bytes)", self.bytes)
    }
}

impl<T, const BYTES: usize> Pool<T, BYTES> {
    /// Bytes of capacity the pool retains.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    /// The smallest pooled buffer with room for `len > 0` elements: the
    /// smallest fit in `len`'s own class, else the smallest buffer of the
    /// next non-empty class (all of which fit).
    fn take(&mut self, len: usize) -> Option<Vec<T>> {
        let own = &mut self.bins[class(len)];
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

impl<T: Copy, const BYTES: usize> Pool<T, BYTES> {
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
        let mut pool = Pool::<i64, 1024>::default();
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
    }
}

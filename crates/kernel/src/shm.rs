//! Simulated shared-memory regions.
//!
//! Some Spring subcontracts use shared memory regions to communicate with
//! their servers; `invoke_preamble` lets such a subcontract "adjust the
//! communications buffer to point into the shared memory region so that
//! arguments are directly marshalled into the region, rather than having to
//! be copied there after all marshalling is complete" (§5.1.4). Normal door
//! calls copy their payload bytes across the domain boundary; a shared
//! region is visible to both sides without that copy.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::DoorError;
use crate::id::ShmId;

/// A shared-memory region, registered with one kernel and addressable by its
/// [`ShmId`].
///
/// Cloning the handle shares the same underlying storage, modelling two
/// domains mapping the same physical region.
///
/// # Examples
///
/// ```
/// use spring_kernel::Kernel;
///
/// let kernel = Kernel::new("machine");
/// let region = kernel.create_shm(64);
/// region.map_mut().unwrap()[0] = 42;
/// assert_eq!(region.with(|data| data[0]).unwrap(), 42);
/// ```
#[derive(Clone)]
pub struct ShmRegion(Arc<Region>);

/// What every handle on one region shares: one pointer per handle, so a
/// communications buffer holds a mapped region in a single word.
struct Region {
    id: ShmId,
    size: usize,
    /// The region's storage, `None` while it is mapped.
    data: Mutex<Option<Vec<u8>>>,
}

impl ShmRegion {
    pub(crate) fn new(id: ShmId, size: usize) -> Self {
        // Regions back flat-frame decoding (`CommBuffer::flat_remaining`),
        // which relies on the same 8-byte base alignment the buffer pool
        // guarantees (`crate::pool::PAYLOAD_ALIGN`); allocate with the same
        // retry discipline as the pool rather than assuming the allocator
        // over-aligns byte vectors.
        let mut parked = Vec::new();
        let data = loop {
            let v = vec![0u8; size];
            if v.capacity() == 0 || (v.as_ptr() as usize).is_multiple_of(crate::pool::PAYLOAD_ALIGN)
            {
                break v;
            }
            // Keep the misaligned block alive so the next attempt gets a
            // different address.
            parked.push(v);
            if parked.len() > 8 {
                debug_assert!(false, "allocator never produced an 8-byte-aligned region");
                break parked.pop().expect("just pushed");
            }
        };
        ShmRegion(Arc::new(Region {
            id,
            size,
            data: Mutex::new(Some(data)),
        }))
    }

    /// The region's kernel-wide identifier.
    pub fn id(&self) -> ShmId {
        self.0.id
    }

    /// The region's size in bytes, fixed at creation.
    pub fn size(&self) -> usize {
        self.0.size
    }

    /// Maps the region for direct access.
    ///
    /// Only one mapping may be live at a time; a second concurrent mapping
    /// fails with [`DoorError::InvalidShm`]. This models the exclusive
    /// hand-off discipline shared-memory transports follow: the client fills
    /// the region, then the server reads it, never both at once.
    pub fn map_mut(&self) -> Result<MappedShm, DoorError> {
        let data = self.0.data.lock().take().ok_or(DoorError::InvalidShm)?;
        Ok(MappedShm {
            region: self.clone(),
            data: Some(data),
        })
    }

    /// Runs `f` over a read-only view of the region.
    ///
    /// Fails if the region is currently mapped with [`ShmRegion::map_mut`].
    pub fn with<R>(&self, f: impl FnOnce(&[u8]) -> R) -> Result<R, DoorError> {
        let guard = self.0.data.lock();
        let data = guard.as_ref().ok_or(DoorError::InvalidShm)?;
        Ok(f(data))
    }
}

impl fmt::Debug for ShmRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ShmRegion({:?}, {} bytes)", self.0.id, self.0.size)
    }
}

/// An exclusive mapping of a [`ShmRegion`].
///
/// Dereferences to the region's bytes; the contents are published back to the
/// region when the mapping is dropped.
#[derive(Debug)]
pub struct MappedShm {
    region: ShmRegion,
    data: Option<Vec<u8>>,
}

impl MappedShm {
    /// Splits the mapping into its region and the region's storage. The
    /// region stays mapped until [`MappedShm::from_parts`] rebuilds the
    /// mapping and that is dropped: this is how a buffer marshals straight
    /// into the storage while holding the region in one word.
    pub fn into_parts(mut self) -> (ShmRegion, Vec<u8>) {
        let data = self.data.take().expect("mapping already unmapped");
        (self.region.clone(), data)
    }

    /// Rebuilds a mapping from what [`MappedShm::into_parts`] returned (the
    /// storage may have been written and grown meanwhile). Dropping it
    /// publishes `data` to the region.
    pub fn from_parts(region: ShmRegion, data: Vec<u8>) -> MappedShm {
        debug_assert!(
            region.0.data.lock().is_none(),
            "a mapping rebuilt over a region that is not mapped"
        );
        MappedShm {
            region,
            data: Some(data),
        }
    }
}

impl Deref for MappedShm {
    type Target = Vec<u8>;

    fn deref(&self) -> &Vec<u8> {
        // The Option is only `None` transiently inside `drop` and
        // `into_parts`.
        self.data.as_ref().expect("mapping already unmapped")
    }
}

impl DerefMut for MappedShm {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        self.data.as_mut().expect("mapping already unmapped")
    }
}

impl Drop for MappedShm {
    fn drop(&mut self) {
        if let Some(data) = self.data.take() {
            *self.region.0.data.lock() = Some(data);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::ShmId;

    #[test]
    fn regions_are_eight_byte_aligned() {
        // Flat frames are decoded in place out of regions; the base address
        // must satisfy the same alignment as pooled payload backings.
        for (i, size) in [1usize, 7, 60, 257, 4096].into_iter().enumerate() {
            let region = ShmRegion::new(ShmId(100 + i as u64), size);
            region
                .with(|d| {
                    assert_eq!(
                        d.as_ptr() as usize % crate::pool::PAYLOAD_ALIGN,
                        0,
                        "region of {size} bytes is misaligned"
                    )
                })
                .unwrap();
        }
    }

    #[test]
    fn map_write_read_back() {
        let region = ShmRegion::new(ShmId(1), 16);
        {
            let mut m = region.map_mut().unwrap();
            m[0] = 0xAB;
            m[15] = 0xCD;
        }
        let (a, b) = region.with(|d| (d[0], d[15])).unwrap();
        assert_eq!((a, b), (0xAB, 0xCD));
    }

    #[test]
    fn double_map_rejected() {
        let region = ShmRegion::new(ShmId(2), 8);
        let _m = region.map_mut().unwrap();
        assert_eq!(region.map_mut().unwrap_err(), DoorError::InvalidShm);
        assert_eq!(region.with(|_| ()).unwrap_err(), DoorError::InvalidShm);
    }

    #[test]
    fn clone_shares_storage() {
        let region = ShmRegion::new(ShmId(3), 4);
        let other = region.clone();
        region.map_mut().unwrap()[2] = 7;
        assert_eq!(other.with(|d| d[2]).unwrap(), 7);
        assert_eq!(other.size(), 4);
        assert_eq!(other.id(), region.id());
    }

    #[test]
    fn mapping_can_grow_buffer() {
        // Marshalling may push past the initial size; the grown buffer is
        // published back.
        let region = ShmRegion::new(ShmId(4), 2);
        {
            let mut m = region.map_mut().unwrap();
            m.extend_from_slice(&[1, 2, 3, 4]);
        }
        assert_eq!(region.with(|d| d.len()).unwrap(), 6);
    }
}

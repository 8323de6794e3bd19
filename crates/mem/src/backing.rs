//! Shared byte storage behind memory controllers.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use pdr_sim_core::impl_json_struct;
use pdr_sim_core::json::{from_hex, to_hex, Json, JsonError, ToJson};

/// Page granule for sparse checkpoint serialisation. Backings are large
/// (16 MB DRAM) but mostly zero; only pages with set bits are recorded.
const SNAP_PAGE: usize = 4096;
const ZERO_PAGE: [u8; SNAP_PAGE] = [0; SNAP_PAGE];

/// One non-zero page of a checkpoint, hex-encoded.
struct Page {
    page: usize,
    hex: String,
}
impl_json_struct!(Page { page, hex });

#[derive(Debug)]
struct Inner {
    bytes: Vec<u8>,
    oob_accesses: u64,
}

/// A shared, bounds-checked byte store. The processor model writes
/// bitstreams into it; controllers serve reads from it. Cloning yields
/// another handle to the same storage.
#[derive(Clone)]
pub struct Backing {
    inner: Rc<RefCell<Inner>>,
}

impl Backing {
    /// Allocates `size` zeroed bytes.
    pub fn new(size: usize) -> Self {
        Backing {
            inner: Rc::new(RefCell::new(Inner {
                bytes: vec![0; size],
                oob_accesses: 0,
            })),
        }
    }

    /// Capacity in bytes.
    pub fn len(&self) -> usize {
        self.inner.borrow().bytes.len()
    }

    /// True for a zero-capacity store.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies `data` to `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the write runs past the end of the store — software writing
    /// out of bounds is a scenario bug, unlike hardware reads which must
    /// degrade gracefully.
    pub fn write(&self, addr: u64, data: &[u8]) {
        let mut inner = self.inner.borrow_mut();
        let start = addr as usize;
        let end = start
            .checked_add(data.len())
            .expect("address arithmetic overflow");
        assert!(
            end <= inner.bytes.len(),
            "write [{start}, {end}) outside backing of {} bytes",
            inner.bytes.len()
        );
        inner.bytes[start..end].copy_from_slice(data);
    }

    /// Reads the 64-bit little-endian word at `addr`. Out-of-range reads
    /// return zero and are counted (hardware reading a bad address returns
    /// bus garbage rather than halting the system).
    pub fn read_u64(&self, addr: u64) -> u64 {
        let mut inner = self.inner.borrow_mut();
        let start = addr as usize;
        if start + 8 > inner.bytes.len() {
            inner.oob_accesses += 1;
            return 0;
        }
        u64::from_le_bytes(inner.bytes[start..start + 8].try_into().expect("8 bytes"))
    }

    /// Reads the 32-bit little-endian word at `addr` (zero out of range).
    pub fn read_u32(&self, addr: u64) -> u32 {
        let mut inner = self.inner.borrow_mut();
        let start = addr as usize;
        if start + 4 > inner.bytes.len() {
            inner.oob_accesses += 1;
            return 0;
        }
        u32::from_le_bytes(inner.bytes[start..start + 4].try_into().expect("4 bytes"))
    }

    /// Copies out `len` bytes at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read_slice(&self, addr: u64, len: usize) -> Vec<u8> {
        let inner = self.inner.borrow();
        let start = addr as usize;
        assert!(start + len <= inner.bytes.len(), "read outside backing");
        inner.bytes[start..start + len].to_vec()
    }

    /// Count of out-of-range hardware reads observed.
    pub fn oob_accesses(&self) -> u64 {
        self.inner.borrow().oob_accesses
    }

    /// Serialises the store for a checkpoint: capacity, counters, and only
    /// the 4 KB pages holding non-zero bytes (hex-encoded), so a mostly
    /// empty 16 MB DRAM costs a few KB instead of 32 MB of JSON.
    pub fn snapshot_json(&self) -> Json {
        let inner = self.inner.borrow();
        let mut pages = Vec::new();
        for (idx, chunk) in inner.bytes.chunks(SNAP_PAGE).enumerate() {
            // Slice equality on bytes is a `memcmp`, several times faster
            // than a byte loop over a mostly zero 16 MB store.
            if chunk != &ZERO_PAGE[..chunk.len()] {
                pages.push(Page {
                    page: idx,
                    hex: to_hex(chunk.iter().copied()),
                });
            }
        }
        Json::Obj(vec![
            ("len".to_string(), inner.bytes.len().to_json()),
            ("oob_accesses".to_string(), inner.oob_accesses.to_json()),
            ("pages".to_string(), pages.to_json()),
        ])
    }

    /// Restores contents captured by [`Backing::snapshot_json`] into a store
    /// of the same capacity, zeroing everything first.
    pub fn restore_json(&self, v: &Json) -> Result<(), JsonError> {
        let err = |msg: String| JsonError { msg };
        let len: usize = v.field("len")?;
        let oob = v.field("oob_accesses")?;
        let pages: Vec<Page> = v.field("pages")?;
        let mut inner = self.inner.borrow_mut();
        if len != inner.bytes.len() {
            return Err(err(format!(
                "backing snapshot is {len} bytes, store is {}",
                inner.bytes.len()
            )));
        }
        inner.bytes.fill(0);
        for Page { page, hex } in pages {
            let bytes = from_hex(&hex)?;
            let dst = page
                .checked_mul(SNAP_PAGE)
                .and_then(|start| inner.bytes.get_mut(start..start.checked_add(bytes.len())?))
                .ok_or_else(|| err(format!("backing page {page} out of range")))?;
            dst.copy_from_slice(&bytes);
        }
        inner.oob_accesses = oob;
        Ok(())
    }
}

impl fmt::Debug for Backing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Backing")
            .field("len", &self.len())
            .field("oob_accesses", &self.oob_accesses())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let b = Backing::new(64);
        b.write(8, &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(b.read_u64(8), 0x0807_0605_0403_0201);
        assert_eq!(b.read_u32(8), 0x0403_0201);
        assert_eq!(b.read_slice(8, 2), vec![1, 2]);
    }

    #[test]
    fn oob_read_returns_zero_and_counts() {
        let b = Backing::new(16);
        assert_eq!(b.read_u64(12), 0);
        assert_eq!(b.read_u32(14), 0);
        assert_eq!(b.oob_accesses(), 2);
    }

    #[test]
    #[should_panic(expected = "outside backing")]
    fn oob_write_panics() {
        let b = Backing::new(4);
        b.write(2, &[0; 4]);
    }

    #[test]
    fn handles_share_storage() {
        let a = Backing::new(8);
        let b = a.clone();
        a.write(0, &[9; 8]);
        assert_eq!(b.read_u64(0), u64::from_le_bytes([9; 8]));
    }
}

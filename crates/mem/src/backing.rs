//! Shared byte storage behind memory controllers.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use pdr_sim_core::impl_json_struct;
use pdr_sim_core::json::{from_hex, to_hex, Json, JsonError, ToJson};

/// Storage granule: a page is allocated on its first write, and an absent
/// page reads as zero. Backings are large (16 MB DRAM) but mostly empty,
/// so a store holds only the pages written, and a checkpoint records only
/// the pages holding set bits.
const PAGE: usize = 4096;
const ZERO_PAGE: [u8; PAGE] = [0; PAGE];

/// One non-zero page of a checkpoint, hex-encoded.
struct Page {
    page: usize,
    hex: String,
}
impl_json_struct!(Page { page, hex });

#[derive(Debug)]
struct Inner {
    len: usize,
    /// `len` bytes, page by page; the last page may run past `len`, and
    /// those bytes stay zero.
    pages: Vec<Option<Box<[u8; PAGE]>>>,
    oob_accesses: u64,
}

impl Inner {
    /// Copies `data` to `start`, allocating the pages it touches.
    fn write_at(&mut self, start: usize, data: &[u8]) {
        let (mut at, mut rest) = (start, data);
        while !rest.is_empty() {
            let (page, offset) = (at / PAGE, at % PAGE);
            let n = rest.len().min(PAGE - offset);
            let dst = self.pages[page].get_or_insert_with(|| Box::new(ZERO_PAGE));
            dst[offset..offset + n].copy_from_slice(&rest[..n]);
            at += n;
            rest = &rest[n..];
        }
    }

    /// Fills `dst` from `start`, with zeros for absent pages.
    fn read_at(&self, start: usize, dst: &mut [u8]) {
        let (mut at, mut rest) = (start, dst);
        while !rest.is_empty() {
            let (page, offset) = (at / PAGE, at % PAGE);
            let n = rest.len().min(PAGE - offset);
            let (head, tail) = rest.split_at_mut(n);
            match &self.pages[page] {
                Some(src) => head.copy_from_slice(&src[offset..offset + n]),
                None => head.fill(0),
            }
            at += n;
            rest = tail;
        }
    }

    /// Reads `N` bytes at `start`, or zero (counted) out of range.
    fn read_array<const N: usize>(&mut self, start: u64) -> [u8; N] {
        let mut bytes = [0; N];
        match usize::try_from(start) {
            Ok(start) if start.checked_add(N).is_some_and(|end| end <= self.len) => {
                self.read_at(start, &mut bytes);
            }
            _ => self.oob_accesses += 1,
        }
        bytes
    }
}

/// A shared, bounds-checked byte store. The processor model writes
/// bitstreams into it; controllers serve reads from it. Cloning yields
/// another handle to the same storage.
#[derive(Clone)]
pub struct Backing {
    inner: Rc<RefCell<Inner>>,
}

impl Backing {
    /// Creates a store of `size` zero bytes, none of them allocated yet.
    pub fn new(size: usize) -> Self {
        Backing {
            inner: Rc::new(RefCell::new(Inner {
                len: size,
                pages: vec![None; size.div_ceil(PAGE)],
                oob_accesses: 0,
            })),
        }
    }

    /// Capacity in bytes.
    pub fn len(&self) -> usize {
        self.inner.borrow().len
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
            end <= inner.len,
            "write [{start}, {end}) outside backing of {} bytes",
            inner.len
        );
        inner.write_at(start, data);
    }

    /// Reads the 64-bit little-endian word at `addr`. Out-of-range reads
    /// return zero and are counted (hardware reading a bad address returns
    /// bus garbage rather than halting the system).
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.inner.borrow_mut().read_array(addr))
    }

    /// Reads the 32-bit little-endian word at `addr` (zero out of range).
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.inner.borrow_mut().read_array(addr))
    }

    /// Copies out `len` bytes at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read_slice(&self, addr: u64, len: usize) -> Vec<u8> {
        let inner = self.inner.borrow();
        let start = addr as usize;
        assert!(start + len <= inner.len, "read outside backing");
        let mut bytes = vec![0; len];
        inner.read_at(start, &mut bytes);
        bytes
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
        for (idx, page) in inner.pages.iter().enumerate() {
            let Some(page) = page else {
                continue;
            };
            let chunk = &page[..PAGE.min(inner.len - idx * PAGE)];
            // Slice equality on bytes is a `memcmp`, several times faster
            // than a byte loop.
            if chunk != &ZERO_PAGE[..chunk.len()] {
                pages.push(Page {
                    page: idx,
                    hex: to_hex(chunk.iter().copied()),
                });
            }
        }
        Json::Obj(vec![
            ("len".to_string(), inner.len.to_json()),
            ("oob_accesses".to_string(), inner.oob_accesses.to_json()),
            ("pages".to_string(), pages.to_json()),
        ])
    }

    /// Restores contents captured by [`Backing::snapshot_json`] into a store
    /// of the same capacity: every page is dropped, then the snapshot's
    /// pages are written.
    pub fn restore_json(&self, v: &Json) -> Result<(), JsonError> {
        let err = |msg: String| JsonError { msg };
        let len: usize = v.field("len")?;
        let oob = v.field("oob_accesses")?;
        let pages: Vec<Page> = v.field("pages")?;
        let mut inner = self.inner.borrow_mut();
        if len != inner.len {
            return Err(err(format!(
                "backing snapshot is {len} bytes, store is {}",
                inner.len
            )));
        }
        let mut writes = Vec::with_capacity(pages.len());
        for Page { page, hex } in pages {
            let bytes = from_hex(&hex)?;
            let start = page
                .checked_mul(PAGE)
                .filter(|start| start.checked_add(bytes.len()).is_some_and(|end| end <= len))
                .ok_or_else(|| err(format!("backing page {page} out of range")))?;
            writes.push((start, bytes));
        }
        inner.pages.fill(None);
        for (start, bytes) in writes {
            inner.write_at(start, &bytes);
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

    fn allocated_pages(b: &Backing) -> usize {
        b.inner.borrow().pages.iter().flatten().count()
    }

    #[test]
    fn accesses_straddle_page_boundaries() {
        let b = Backing::new(3 * PAGE);
        let data: Vec<u8> = (1..=20).collect();
        b.write(PAGE as u64 - 10, &data);
        assert_eq!(allocated_pages(&b), 2);
        assert_eq!(b.read_slice(PAGE as u64 - 10, 20), data);
        assert_eq!(
            b.read_u64(PAGE as u64 - 4),
            u64::from_le_bytes([7, 8, 9, 10, 11, 12, 13, 14])
        );
        assert_eq!(
            b.read_u32(PAGE as u64 - 2),
            u32::from_le_bytes([9, 10, 11, 12])
        );
        // A page-sized write from mid-page spans two pages, one of them new.
        b.write(2 * PAGE as u64 - 1, &[0xAB; PAGE]);
        assert_eq!(allocated_pages(&b), 3);
        assert_eq!(
            b.read_u32(2 * PAGE as u64 - 2),
            u32::from_le_bytes([0, 0xAB, 0xAB, 0xAB])
        );
        assert_eq!(b.oob_accesses(), 0);
    }

    #[test]
    fn absent_pages_read_as_zero_without_allocating() {
        let b = Backing::new(16 * PAGE + 100);
        assert_eq!(b.read_u64(5 * PAGE as u64 - 3), 0);
        assert_eq!(b.read_u32(16 * PAGE as u64 + 96), 0);
        assert_eq!(b.read_slice(0, 3 * PAGE), vec![0; 3 * PAGE]);
        assert_eq!(allocated_pages(&b), 0);
        // The last page is partial: reads past `len` are out of range.
        assert_eq!(b.read_u32(16 * PAGE as u64 + 97), 0);
        assert_eq!(b.oob_accesses(), 1);
    }

    #[test]
    fn restore_drops_pages_written_after_the_snapshot() {
        let b = Backing::new(4 * PAGE);
        b.write(10, &[1, 2, 3]);
        let snap = b.snapshot_json();
        b.write(10, &[7]);
        b.write(3 * PAGE as u64, &[5; 8]);
        assert_eq!(allocated_pages(&b), 2);
        b.restore_json(&snap).unwrap();
        assert_eq!(allocated_pages(&b), 1);
        assert_eq!(b.read_slice(9, 5), vec![0, 1, 2, 3, 0]);
        assert_eq!(b.read_u64(3 * PAGE as u64), 0);
        assert_eq!(b.snapshot_json().render(), snap.render());
    }

    #[test]
    fn snapshots_leave_out_written_pages_that_are_all_zero() {
        let b = Backing::new(2 * PAGE + 64);
        b.write(PAGE as u64, &[0; 16]);
        b.write(2 * PAGE as u64 + 60, &[4, 0, 0, 0]);
        assert_eq!(allocated_pages(&b), 2);
        let snap = b.snapshot_json();
        let pages: Vec<Page> = snap.field("pages").unwrap();
        let listed: Vec<(usize, usize)> = pages.iter().map(|p| (p.page, p.hex.len())).collect();
        // Only the partial last page, hex-encoded over its 64 bytes.
        assert_eq!(listed, vec![(2, 128)]);
        let fresh = Backing::new(2 * PAGE + 64);
        fresh.restore_json(&snap).unwrap();
        assert_eq!(fresh.read_u32(2 * PAGE as u64 + 60), 4);
        assert_eq!(fresh.snapshot_json().render(), snap.render());
    }

    #[test]
    fn restore_rejects_a_page_past_the_end() {
        let b = Backing::new(PAGE + 8);
        b.write(PAGE as u64, &[1; 8]);
        let snap = b
            .snapshot_json()
            .render()
            .replace("\"page\":1", "\"page\":2");
        let err = b.restore_json(&Json::parse(&snap).unwrap()).unwrap_err();
        assert!(
            err.msg.contains("backing page 2 out of range"),
            "{}",
            err.msg
        );
        assert_eq!(b.read_u64(PAGE as u64), u64::from_le_bytes([1; 8]));
    }
}

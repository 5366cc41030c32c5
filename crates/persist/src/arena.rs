//! File-backed byte arenas for zero-copy serving.
//!
//! An [`Arena`] is one immutable run of bytes that a sealed generation
//! lives in. Two backings:
//!
//! * **Mmap** — the file is mapped read-only straight into the address
//!   space via a hand-rolled `mmap(2)` (no libc in this workspace, so
//!   the Linux/x86-64 syscalls are issued with inline assembly). Warm
//!   start is O(mmap): no read, no parse, and N replicas of the same
//!   generation share one page cache.
//! * **Heap** — `fs::read` into a `Vec<u8>`. The portable fallback for
//!   non-Linux targets, empty files and mappings the filesystem
//!   refuses.
//!
//! Either way the rest of the system sees only `&[u8]`, so every
//! consumer is backing-agnostic.

use std::fmt;
use std::fs::File;
use std::io;
use std::path::Path;

use etap_runtime::perf::Stage;

/// Perf stage covering the map-or-read of a sealed arena file.
static STAGE_MMAP: Stage = Stage::new("persist.mmap");

/// An immutable byte arena backed by a mapping or by owned heap memory.
pub enum Arena {
    /// Bytes read into process heap memory.
    Heap(Vec<u8>),
    /// Bytes mapped read-only from a file (Linux/x86-64 only).
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    Mmap(sys::Mapping),
}

impl Arena {
    /// The arena's bytes, regardless of backing.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        match self {
            Arena::Heap(v) => v,
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Arena::Mmap(m) => m.bytes(),
        }
    }

    /// Length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// True when the arena holds no bytes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bytes().is_empty()
    }

    /// True when the bytes are served from a file mapping rather than
    /// process-private heap.
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        match self {
            Arena::Heap(_) => false,
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Arena::Mmap(_) => true,
        }
    }
}

/// Prints the backing and the length, never the bytes: an arena holds
/// a whole sealed file.
impl fmt::Debug for Arena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let backing = if self.is_mapped() { "mmap" } else { "heap" };
        f.debug_struct("Arena")
            .field("backing", &backing)
            .field("len", &self.len())
            .finish()
    }
}

/// Open `path` as an [`Arena`], preferring an mmap backing.
///
/// Falls back to a heap read when mapping is unsupported on this
/// target, when the file is empty (zero-length `mmap` is an error), or
/// when the mapping fails.
///
/// # Errors
/// Propagates I/O errors from opening or reading the file.
pub fn open_arena(path: &Path) -> io::Result<Arena> {
    let _t = STAGE_MMAP.scope();
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        if len > 0 {
            if let Ok(mapping) = sys::Mapping::map_readonly(&file, len as usize) {
                return Ok(Arena::Mmap(mapping));
            }
            // Mapping can fail on exotic filesystems; fall through to
            // the heap read rather than failing the load.
        }
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    let _ = File::open(path)?; // parity: surface open errors identically
    Ok(Arena::Heap(std::fs::read(path)?))
}

/// Raw `mmap(2)`/`munmap(2)` on Linux/x86-64 without libc.
///
/// This is the only unsafe code in the workspace; it is confined to
/// this module so the crate-level `#![deny(unsafe_code)]` covers
/// everything else.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[allow(unsafe_code)]
pub mod sys {
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    const SYS_MMAP: usize = 9;
    const SYS_MUNMAP: usize = 11;
    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;

    /// An owned read-only file mapping; unmapped on drop.
    pub struct Mapping {
        ptr: *const u8,
        len: usize,
    }

    // SAFETY: the mapping is read-only (PROT_READ, MAP_PRIVATE) and the
    // pointer/length never change after construction, so concurrent
    // reads from any thread are safe; the raw pointer is the only thing
    // blocking the auto-impls.
    unsafe impl Send for Mapping {}
    unsafe impl Sync for Mapping {}

    impl Mapping {
        /// Map `len` bytes of `file` read-only.
        ///
        /// # Errors
        /// The kernel's errno as an [`io::Error`] when `mmap` fails
        /// (e.g. `ENODEV` on filesystems without mmap support).
        pub fn map_readonly(file: &File, len: usize) -> io::Result<Self> {
            if len == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "cannot map zero bytes",
                ));
            }
            let fd = file.as_raw_fd();
            let ret: isize;
            // SAFETY: x86-64 Linux syscall ABI — number in rax, args in
            // rdi/rsi/rdx/r10/r8/r9, return in rax, rcx/r11 clobbered.
            // All arguments are plain integers; the kernel validates
            // fd/len and returns -errno on failure.
            unsafe {
                core::arch::asm!(
                    "syscall",
                    inlateout("rax") SYS_MMAP as isize => ret,
                    in("rdi") 0usize,          // addr: kernel chooses
                    in("rsi") len,
                    in("rdx") PROT_READ,
                    in("r10") MAP_PRIVATE,
                    in("r8") fd as isize,
                    in("r9") 0usize,           // offset
                    lateout("rcx") _,
                    lateout("r11") _,
                    options(nostack),
                );
            }
            if (-4095..0).contains(&ret) {
                return Err(io::Error::from_raw_os_error(-ret as i32));
            }
            Ok(Self {
                ptr: ret as *const u8,
                len,
            })
        }

        /// The mapped bytes.
        #[must_use]
        pub fn bytes(&self) -> &[u8] {
            // SAFETY: `ptr` points at a live PROT_READ mapping of
            // exactly `len` bytes, valid until `drop` unmaps it, and
            // `&self` borrows prevent use-after-unmap.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            let ret: isize;
            // SAFETY: `ptr`/`len` describe the exact region returned by
            // a successful mmap; unmapping it once on drop is the
            // required cleanup. Failure is ignorable (the region leaks
            // until process exit at worst).
            unsafe {
                core::arch::asm!(
                    "syscall",
                    inlateout("rax") SYS_MUNMAP as isize => ret,
                    in("rdi") self.ptr,
                    in("rsi") self.len,
                    lateout("rcx") _,
                    lateout("r11") _,
                    options(nostack),
                );
            }
            let _ = ret;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmp_file(name: &str, contents: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("etap-arena-{}-{name}", std::process::id()));
        let mut f = File::create(&path).expect("create");
        f.write_all(contents).expect("write");
        f.sync_all().expect("sync");
        path
    }

    #[test]
    fn open_reads_exact_bytes() {
        let path = tmp_file("basic", b"The quick brown fox");
        let arena = open_arena(&path).expect("open");
        assert_eq!(arena.bytes(), b"The quick brown fox");
        assert_eq!(arena.len(), 19);
        assert!(!arena.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn debug_prints_backing_and_length_not_bytes() {
        let arena = Arena::Heap(vec![0xAB; 4096]);
        assert_eq!(
            format!("{arena:?}"),
            r#"Arena { backing: "heap", len: 4096 }"#
        );
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn linux_prefers_mmap_backing() {
        let path = tmp_file("mapped", &vec![0xABu8; 8192]);
        let arena = open_arena(&path).expect("open");
        assert!(arena.is_mapped(), "expected mmap backing on linux");
        assert_eq!(arena.len(), 8192);
        assert!(arena.bytes().iter().all(|&b| b == 0xAB));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_file_falls_back_to_heap() {
        let path = tmp_file("empty", b"");
        let arena = open_arena(&path).expect("open");
        assert!(arena.is_empty());
        assert!(!arena.is_mapped());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mapping_survives_cross_thread_reads() {
        let path = tmp_file("threads", &vec![7u8; 4096]);
        let arena = std::sync::Arc::new(open_arena(&path).expect("open"));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let a = std::sync::Arc::clone(&arena);
                std::thread::spawn(move || a.bytes().iter().map(|&b| b as u64).sum::<u64>())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().expect("join"), 7 * 4096);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(open_arena(Path::new("/nonexistent/etap-arena")).is_err());
    }
}

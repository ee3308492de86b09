// Package mem implements the byte-addressable memory of one simulated
// machine. Memory is divided evenly across NUMA sockets (as on the paper's
// testbed, where "the memory is equally allocated to each socket"), and
// allocations carry their socket so the RNIC and topology models can charge
// QPI crossings.
//
// Data movement through this package is real: RDMA verbs copy actual bytes
// between Spaces, which lets the application-level tests check correctness
// of hashtable contents, shuffle output, join results and log records.
package mem

import (
	"fmt"
	"sort"

	"rdmasem/internal/topo"
)

// PageSize is the translation granularity used by MR registration and the
// RNIC's SRAM translation cache (standard 4 KB pages).
const PageSize = 4096

// Addr is a virtual address within one machine's Space.
type Addr uint64

// Page returns the page number containing the address.
func (a Addr) Page() uint64 { return uint64(a) / PageSize }

// Region is one contiguous allocation, pinned to a socket.
//
// A sparse region (AllocSparse) spans a large virtual extent backed by a
// small physical buffer that accesses alias into. Sparse regions exist for
// timing-only benchmarks that need huge registered spans (the paper's 2 GB
// Figure 6 region) without the host memory: addresses and page numbers are
// real, the bytes wrap.
type Region struct {
	addr    Addr
	socket  topo.SocketID
	buf     []byte
	virtual int // sparse: virtual size; 0 for dense regions
}

// Addr returns the region's base address.
func (r *Region) Addr() Addr { return r.addr }

// Size returns the region length in bytes (the virtual span for sparse
// regions).
func (r *Region) Size() int {
	if r.virtual > 0 {
		return r.virtual
	}
	return len(r.buf)
}

// Sparse reports whether the region aliases a small physical backing.
func (r *Region) Sparse() bool { return r.virtual > 0 }

// Socket returns the NUMA socket whose DRAM backs the region.
func (r *Region) Socket() topo.SocketID { return r.socket }

// End returns the first address past the region.
func (r *Region) End() Addr { return r.addr + Addr(r.Size()) }

// Bytes returns the backing storage. Mutating it is equivalent to local CPU
// stores into the region.
func (r *Region) Bytes() []byte { return r.buf }

// Contains reports whether [addr, addr+size) lies inside the region.
func (r *Region) Contains(addr Addr, size int) bool {
	return addr >= r.addr && size >= 0 && addr+Addr(size) <= r.End()
}

// Slice returns the size bytes starting at addr, which must lie within the
// region. For sparse regions the returned bytes alias the wrapped physical
// backing, so an access longer than the backing fails.
func (r *Region) Slice(addr Addr, size int) ([]byte, error) {
	if !r.Contains(addr, size) {
		return nil, fmt.Errorf("mem: [%#x,+%d) outside region [%#x,+%d)", addr, size, r.addr, r.Size())
	}
	off := int(addr - r.addr)
	if r.virtual > 0 {
		switch {
		case size > len(r.buf):
			return nil, fmt.Errorf("mem: [%#x,+%d) exceeds the %d-byte backing of sparse region [%#x,+%d)",
				addr, size, len(r.buf), r.addr, r.virtual)
		case size < len(r.buf):
			off %= len(r.buf) - size
		default:
			off = 0
		}
	}
	return r.buf[off : off+size], nil
}

// Space is one machine's memory: a bump allocator per socket plus an index of
// live regions for address resolution.
type Space struct {
	sockets  int
	capacity uint64 // per-socket capacity in bytes
	next     []uint64
	regions  []*Region // sorted by base address
}

// NewSpace creates a memory space with the given number of sockets, each
// backed by perSocket bytes of address space. Backing storage is allocated
// lazily per region, so large address spaces are cheap.
func NewSpace(sockets int, perSocket uint64) (*Space, error) {
	if sockets < 1 {
		return nil, fmt.Errorf("mem: sockets must be >= 1, got %d", sockets)
	}
	if perSocket == 0 || perSocket%PageSize != 0 {
		return nil, fmt.Errorf("mem: per-socket capacity must be a positive multiple of %d", PageSize)
	}
	next := make([]uint64, sockets)
	for s := range next {
		// Leave the zero page unmapped so Addr(0) is never valid.
		next[s] = uint64(s)*perSocket + PageSize
	}
	return &Space{sockets: sockets, capacity: perSocket, next: next}, nil
}

// Alloc reserves size bytes on the given socket with the given alignment
// (which must be a power of two; 0 means page alignment, matching the
// paper's posix_memalign usage).
func (s *Space) Alloc(socket topo.SocketID, size int, align uint64) (*Region, error) {
	if socket < 0 || int(socket) >= s.sockets {
		return nil, fmt.Errorf("mem: socket %d out of range [0,%d)", socket, s.sockets)
	}
	if size <= 0 {
		return nil, fmt.Errorf("mem: allocation size must be positive, got %d", size)
	}
	if align == 0 {
		align = PageSize
	}
	if align&(align-1) != 0 {
		return nil, fmt.Errorf("mem: alignment %d is not a power of two", align)
	}
	base := (s.next[int(socket)] + align - 1) &^ (align - 1)
	limit := uint64(int(socket)+1) * s.capacity
	if base+uint64(size) > limit {
		return nil, fmt.Errorf("mem: socket %d out of memory (%d bytes requested)", socket, size)
	}
	s.next[int(socket)] = base + uint64(size)
	r := &Region{addr: Addr(base), socket: socket, buf: make([]byte, size)}
	s.insert(r)
	return r, nil
}

// AllocSparse reserves a virtualSize-byte extent backed by only backing
// bytes of physical storage (both page aligned). Use it for timing-only
// benchmarks over huge registered regions; reads and writes alias into the
// backing.
func (s *Space) AllocSparse(socket topo.SocketID, virtualSize, backing int) (*Region, error) {
	if socket < 0 || int(socket) >= s.sockets {
		return nil, fmt.Errorf("mem: socket %d out of range [0,%d)", socket, s.sockets)
	}
	if virtualSize <= 0 || backing <= 0 || backing > virtualSize {
		return nil, fmt.Errorf("mem: bad sparse sizing %d/%d", virtualSize, backing)
	}
	base := (s.next[int(socket)] + PageSize - 1) &^ (PageSize - 1)
	limit := uint64(int(socket)+1) * s.capacity
	if base+uint64(virtualSize) > limit {
		return nil, fmt.Errorf("mem: socket %d out of address space for sparse %d", socket, virtualSize)
	}
	s.next[int(socket)] = base + uint64(virtualSize)
	r := &Region{addr: Addr(base), socket: socket, buf: make([]byte, backing), virtual: virtualSize}
	s.insert(r)
	return r, nil
}

// insert places a region into the sorted index.
func (s *Space) insert(r *Region) {
	i := sort.Search(len(s.regions), func(i int) bool { return s.regions[i].addr > r.addr })
	s.regions = append(s.regions, nil)
	copy(s.regions[i+1:], s.regions[i:])
	s.regions[i] = r
}

// Resolve returns the region containing [addr, addr+size).
func (s *Space) Resolve(addr Addr, size int) (*Region, error) {
	i := sort.Search(len(s.regions), func(i int) bool { return s.regions[i].addr > addr })
	if i == 0 {
		return nil, fmt.Errorf("mem: address %#x not mapped", addr)
	}
	r := s.regions[i-1]
	if !r.Contains(addr, size) {
		return nil, fmt.Errorf("mem: access [%#x,+%d) escapes region [%#x,+%d)", addr, size, r.addr, r.Size())
	}
	return r, nil
}

// SocketOf returns the socket backing the given address.
func (s *Space) SocketOf(addr Addr) (topo.SocketID, error) {
	r, err := s.Resolve(addr, 0)
	if err != nil {
		return 0, err
	}
	return r.socket, nil
}

// ReadAt copies len(p) bytes starting at addr into p.
func (s *Space) ReadAt(addr Addr, p []byte) error {
	r, err := s.Resolve(addr, len(p))
	if err != nil {
		return err
	}
	src, err := r.Slice(addr, len(p))
	if err != nil {
		return err
	}
	copy(p, src)
	return nil
}

// WriteAt copies p into memory starting at addr.
func (s *Space) WriteAt(addr Addr, p []byte) error {
	r, err := s.Resolve(addr, len(p))
	if err != nil {
		return err
	}
	dst, err := r.Slice(addr, len(p))
	if err != nil {
		return err
	}
	copy(dst, p)
	return nil
}

// Regions returns the live regions in address order.
func (s *Space) Regions() []*Region {
	out := make([]*Region, len(s.regions))
	copy(out, s.regions)
	return out
}

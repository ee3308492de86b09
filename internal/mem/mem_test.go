package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"rdmasem/internal/topo"
)

func newSpace(t *testing.T) *Space {
	t.Helper()
	s, err := NewSpace(2, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSpaceValidation(t *testing.T) {
	if _, err := NewSpace(0, 1<<20); err == nil {
		t.Error("expected error for zero sockets")
	}
	if _, err := NewSpace(2, 0); err == nil {
		t.Error("expected error for zero capacity")
	}
	if _, err := NewSpace(2, PageSize+1); err == nil {
		t.Error("expected error for unaligned capacity")
	}
}

func TestAllocBasics(t *testing.T) {
	s := newSpace(t)
	r, err := s.Alloc(0, 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 4096 || r.Socket() != 0 {
		t.Fatalf("size=%d socket=%d", r.Size(), r.Socket())
	}
	if uint64(r.Addr())%PageSize != 0 {
		t.Fatalf("default alignment should be page: %#x", r.Addr())
	}
	if r.Addr() == 0 {
		t.Fatal("zero page must stay unmapped")
	}
}

func TestAllocSocketSeparation(t *testing.T) {
	s := newSpace(t)
	r0, _ := s.Alloc(0, 64, 0)
	r1, _ := s.Alloc(1, 64, 0)
	if got, _ := s.SocketOf(r0.Addr()); got != 0 {
		t.Errorf("socket of r0 = %d, want 0", got)
	}
	if got, _ := s.SocketOf(r1.Addr()); got != 1 {
		t.Errorf("socket of r1 = %d, want 1", got)
	}
	if r1.Addr() <= r0.Addr() {
		t.Error("socket 1 addresses should follow socket 0 range")
	}
}

func TestAllocErrors(t *testing.T) {
	s := newSpace(t)
	if _, err := s.Alloc(5, 64, 0); err == nil {
		t.Error("expected error for bad socket")
	}
	if _, err := s.Alloc(0, 0, 0); err == nil {
		t.Error("expected error for zero size")
	}
	if _, err := s.Alloc(0, 64, 3); err == nil {
		t.Error("expected error for non power-of-two alignment")
	}
	if _, err := s.Alloc(0, 2<<30, 0); err == nil {
		t.Error("expected out-of-memory error")
	}
}

func TestAllocExhaustion(t *testing.T) {
	s, err := NewSpace(1, 4*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	// Zero page is reserved, so 3 pages remain.
	for i := 0; i < 3; i++ {
		if _, err := s.Alloc(0, PageSize, 0); err != nil {
			t.Fatalf("alloc %d failed: %v", i, err)
		}
	}
	if _, err := s.Alloc(0, PageSize, 0); err == nil {
		t.Fatal("expected exhaustion")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	s := newSpace(t)
	r, _ := s.Alloc(1, 8192, 0)
	msg := []byte("remote memory semantics")
	addr := r.Addr() + 100
	if err := s.WriteAt(addr, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := s.ReadAt(addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q, want %q", got, msg)
	}
}

func TestAccessOutOfBounds(t *testing.T) {
	s := newSpace(t)
	r, _ := s.Alloc(0, 128, 0)
	if err := s.WriteAt(r.Addr()+120, make([]byte, 16)); err == nil {
		t.Error("expected overflow error")
	}
	if err := s.ReadAt(Addr(1), make([]byte, 1)); err == nil {
		t.Error("expected unmapped error for zero page")
	}
	if err := s.ReadAt(r.End()+PageSize, make([]byte, 1)); err == nil {
		t.Error("expected unmapped error past all regions")
	}
}

func TestRegionSlice(t *testing.T) {
	s := newSpace(t)
	r, _ := s.Alloc(0, 256, 0)
	b, err := r.Slice(r.Addr()+16, 8)
	if err != nil {
		t.Fatal(err)
	}
	b[0] = 0xAB
	if r.Bytes()[16] != 0xAB {
		t.Fatal("slice does not alias region storage")
	}
	if _, err := r.Slice(r.Addr()+250, 10); err != nil {
		// ok
	} else {
		t.Fatal("expected out-of-range slice error")
	}
}

func TestPageNumber(t *testing.T) {
	if Addr(0).Page() != 0 || Addr(4095).Page() != 0 || Addr(4096).Page() != 1 {
		t.Fatal("page arithmetic broken")
	}
}

// Property: allocations never overlap and each stays inside its socket range.
func TestAllocNoOverlapProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := NewSpace(2, 1<<24)
		if err != nil {
			return false
		}
		var regions []*Region
		for i := 0; i < int(n%40)+1; i++ {
			sock := topo.SocketID(rng.Intn(2))
			size := rng.Intn(1<<16) + 1
			align := uint64(1) << uint(rng.Intn(13))
			r, err := s.Alloc(sock, size, align)
			if err != nil {
				continue // exhaustion is fine
			}
			if uint64(r.Addr())%align != 0 {
				return false
			}
			lo := uint64(sock) << 24
			if uint64(r.Addr()) < lo || uint64(r.End()) > lo+(1<<24) {
				return false
			}
			regions = append(regions, r)
		}
		for i := range regions {
			for j := i + 1; j < len(regions); j++ {
				a, b := regions[i], regions[j]
				if a.Addr() < b.End() && b.Addr() < a.End() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: data written at random offsets reads back intact.
func TestReadBackProperty(t *testing.T) {
	s, err := NewSpace(1, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Alloc(0, 1<<16, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		addr := r.Addr() + Addr(off)
		if !r.Contains(addr, len(data)) {
			return s.WriteAt(addr, data) != nil
		}
		if err := s.WriteAt(addr, data); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := s.ReadAt(addr, got); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRegionsSortedCopy(t *testing.T) {
	s := newSpace(t)
	s.Alloc(1, 64, 0)
	s.Alloc(0, 64, 0)
	s.Alloc(0, 64, 0)
	rs := s.Regions()
	if len(rs) != 3 {
		t.Fatalf("got %d regions", len(rs))
	}
	for i := 1; i < len(rs); i++ {
		if rs[i-1].Addr() >= rs[i].Addr() {
			t.Fatal("regions not sorted")
		}
	}
	rs[0] = nil // mutating the copy must not corrupt the space
	if s.Regions()[0] == nil {
		t.Fatal("Regions returned internal slice")
	}
}

func TestAllocSparse(t *testing.T) {
	s, err := NewSpace(2, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.AllocSparse(1, 1<<30, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Sparse() {
		t.Fatal("region should report sparse")
	}
	if r.Size() != 1<<30 {
		t.Fatalf("virtual size %d", r.Size())
	}
	if len(r.Bytes()) != 1<<20 {
		t.Fatalf("backing size %d", len(r.Bytes()))
	}
	// Accesses across the whole virtual span resolve and round-trip
	// within the aliased backing.
	for _, off := range []Addr{0, 1 << 10, 512 << 20, 1<<30 - 64} {
		addr := r.Addr() + off
		msg := []byte("sparse!!")
		if err := s.WriteAt(addr, msg); err != nil {
			t.Fatalf("write at +%d: %v", off, err)
		}
		got := make([]byte, len(msg))
		if err := s.ReadAt(addr, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("round trip at +%d failed", off)
		}
	}
	// Out of range still rejected.
	if err := s.WriteAt(r.End(), []byte("x")); err == nil {
		t.Fatal("write past virtual end must fail")
	}
	// Page numbers span the whole virtual extent.
	if r.End().Page()-r.Addr().Page() < (1<<30)/PageSize {
		t.Fatal("sparse region must span its full virtual page range")
	}
}

func TestAllocSparseValidation(t *testing.T) {
	s, _ := NewSpace(1, 1<<30)
	if _, err := s.AllocSparse(5, 1<<20, 4096); err == nil {
		t.Error("bad socket must fail")
	}
	if _, err := s.AllocSparse(0, 0, 4096); err == nil {
		t.Error("zero virtual size must fail")
	}
	if _, err := s.AllocSparse(0, 4096, 8192); err == nil {
		t.Error("backing larger than virtual must fail")
	}
	if _, err := s.AllocSparse(0, 2<<30, 4096); err == nil {
		t.Error("address-space exhaustion must fail")
	}
}

func TestDenseRegionNotSparse(t *testing.T) {
	s, _ := NewSpace(1, 1<<20)
	r, _ := s.Alloc(0, 4096, 0)
	if r.Sparse() {
		t.Fatal("dense region misreported as sparse")
	}
}

// A sparse access longer than the physical backing has nothing to alias: it
// must fail with an error, never slice past the backing.
func TestSparseSliceLongerThanBacking(t *testing.T) {
	s, _ := NewSpace(1, 1<<30)
	r, err := s.AllocSparse(0, 64<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	addr := r.Addr() + 8<<20
	if _, err := r.Slice(addr, 2<<20); err == nil || !strings.Contains(err.Error(), "backing") {
		t.Fatalf("Slice longer than the backing: err = %v, want a backing error", err)
	}
	if err := s.WriteAt(addr, make([]byte, 2<<20)); err == nil {
		t.Fatal("WriteAt longer than the backing must fail")
	}
	if err := s.ReadAt(addr, make([]byte, 1<<20+1)); err == nil {
		t.Fatal("ReadAt longer than the backing must fail")
	}
	// Exactly the backing's length aliases the whole backing at any offset.
	b, err := r.Slice(addr, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 1<<20 || &b[0] != &r.Bytes()[0] {
		t.Fatal("a backing-sized slice must alias the whole backing")
	}
}

// Resolve's escape error reports the region's span, which for a sparse
// region is its virtual size, not its backing.
func TestResolveErrorReportsVirtualSize(t *testing.T) {
	s, _ := NewSpace(1, 1<<30)
	r, err := s.AllocSparse(0, 64<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Resolve(r.End()-8, 16)
	if err == nil {
		t.Fatal("access past the virtual end must fail")
	}
	if want := fmt.Sprintf("+%d)", 64<<20); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not report the virtual size %s", err, want)
	}
}

package proxy_test

import (
	"errors"
	"testing"

	"rdmasem/internal/proxy"
	"rdmasem/internal/sim"
	"rdmasem/internal/verbs"
)

// FuzzConnTableDemux drives an arbitrary interleaving of single posts,
// pooled-QP failures and the arming of recovery through a connection table
// and checks the demux invariants that make QP sharing safe:
//
//   - exactly-once: every posted WR produces exactly one delivery, flushed,
//     replayed or completed — none lost, none duplicated;
//   - no cross-delivery: a delivery's connection always matches the WR ID
//     the owning connection posted (the ID encodes the origin);
//   - per-connection order: each connection sees its completions in its
//     posting order, across failures, remaps and replays.
//
// Byte protocol: 0xFF errors out the next pooled QP (round robin), 0xFE arms
// the default recovery policy (once), and any other byte posts one WR on
// connection b % 8. Each post starts where the previous completion landed,
// so recovered connections also come home to their reconnected QPs.
func FuzzConnTableDemux(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0x80, 0x81, 0xFE, 0, 1, 2, 0xFE})
	f.Add([]byte{0, 1, 0xFF, 2, 3, 0xFE, 0x84, 0xFF, 5, 6, 0xFE})
	f.Add([]byte{7, 7, 7, 0xFF, 7, 0x87, 0xFE})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0, 0xFE})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 256 {
			return
		}
		const poolSize, conns = 3, 8
		e := newTableEnv(t, poolSize, conns)
		e.stock(t, len(data))

		seq := make([]uint64, conns)   // per-conn posted sequence
		got := make([][]uint64, conns) // per-conn delivered WR IDs, in order
		deadQP := 0
		var posted, delivered uint64
		now := sim.Time(0)

		for _, b := range data {
			switch b {
			case 0xFF:
				e.pool[deadQP%poolSize].ForceError()
				deadQP++
			case 0xFE:
				if !e.table.RecoveryEnabled() {
					if err := e.table.EnableRecovery(proxy.DefaultRecoveryPolicy()); err != nil {
						t.Fatal(err)
					}
				}
			default:
				conn := int(b) % conns
				id := uint64(conn)<<32 | seq[conn]
				seq[conn]++
				posted++
				d, err := e.table.Post(now, conn, e.sendWR(id, 32))
				if err != nil && !errors.Is(err, verbs.ErrQPError) {
					t.Fatalf("post: %v", err)
				}
				if d.Conn != conn {
					t.Fatalf("conn %d posted, delivery came back for conn %d", conn, d.Conn)
				}
				if origin := int(d.Completion.WRID >> 32); origin != d.Conn {
					t.Fatalf("cross-delivery: conn %d got WR posted by conn %d", d.Conn, origin)
				}
				got[d.Conn] = append(got[d.Conn], d.Completion.WRID)
				delivered++
				now = max(now, d.Completion.Done)
			}
		}

		if posted != delivered {
			t.Fatalf("posted %d, delivered %d: completions lost or duplicated", posted, delivered)
		}
		for conn, ids := range got {
			for i, id := range ids {
				if want := uint64(conn)<<32 | uint64(i); id != want {
					t.Fatalf("conn %d delivery %d has WR ID %#x, want %#x: order broken", conn, i, id, want)
				}
			}
		}
		if st := e.table.Stats(); st.Posted != posted || st.Delivered != delivered {
			t.Fatalf("table stats %+v disagree with posted=%d delivered=%d", st, posted, delivered)
		}
	})
}

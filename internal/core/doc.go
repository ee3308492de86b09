// Package core implements the paper's contribution: the memory-semantic
// optimization toolkit for one-sided RDMA, layered on internal/verbs.
//
// It provides, matching the paper's five observation areas:
//
//   - Vector IO (Section III-A): the three batch strategies — SP (software
//     protocol: CPU gathers into a staging buffer, one WR), Doorbell (one
//     MMIO rings a list of WRs) and SGL (one WR whose scatter/gather list
//     the NIC walks) — behind a common Batcher interface, plus Table I's
//     guidance codified in Advise.
//   - IO consolidation (Section III-C): Consolidator, a remote burst buffer
//     that delays small writes to the same aligned block until θ requests
//     accumulate or a lease expires, then issues one block write.
//   - NUMA-aware placement (Section III-D): Engine, which binds one QP per
//     (local socket, remote socket) pair along matched ports and routes
//     cross-socket requests through the proxy socket's queues instead of
//     establishing all-to-all connections.
//   - Remote atomics (Section III-E): RemoteLock (CAS spinlock with optional
//     exponential backoff), LocalLock and RPCLock baselines, and the
//     corresponding Sequencer trio built on fetch-and-add.
//
// Beyond the paper it adds UDRPCServer (the datagram RPC design III-E
// cites).
package core

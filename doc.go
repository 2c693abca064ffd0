// Package sdrrdma is a from-scratch Go reproduction of "SDR-RDMA:
// Software-Defined Reliability Architecture for Planetary Scale RDMA
// Communication" (Khalilov et al., SC 2025, arXiv:2505.05366).
//
// The repository contains, under internal/:
//
//   - core: the SDR SDK — partial message completion bitmaps over
//     unreliable RDMA transports (the paper's primary contribution)
//   - nicsim, fabric, dpa: the simulated substrate (UC/UD/RC queue
//     pairs, indirect and NULL memory keys, lossy long-haul wire,
//     DPA worker emulation)
//   - reliability: Selective Repeat and Erasure Coding layers built
//     on the SDR bitmap; a receive retires its slots at completion, so
//     its buffer is the caller's the moment it returns
//   - session: the elastic session fabric — pools of fully built
//     reliability deployments leased and reset per flow, so
//     thousand-flow multi-tenant topologies pay a rebind, not a
//     rebuild, per session
//   - netem: multi-datacenter network emulation — clocked
//     finite-buffer queues (tail drop), i.i.d./Gilbert–Elliott loss
//     processes, and topology builders whose flows lease pooled
//     deployments over routes
//   - clock, simnet: the discrete-event machinery — a pluggable
//     Real/Virtual clock (alloc-free baton scheduler, pooled actors
//     and timers) and multi-lane sweep fan-out (clock.Lanes) that
//     runs independent scenario cells across cores byte-identically
//   - telemetry: the flight recorder — virtual-clock-native probes in
//     the netem queues, reliability endpoints and session pools that
//     cost nothing when detached, fold packet-rate occupancy into
//     bucketed series, and export Chrome trace-event JSON (Perfetto)
//     plus deterministic text summaries; the "-trace out.json" flag on
//     sdr-experiments and sdr-perftest
//   - ec, gf256: Reed–Solomon and XOR erasure codes
//   - model: the completion-time analysis framework (stochastic +
//     analytic), collective: ring Allreduce and tree broadcast
//     (model and functional, on either clock backend)
//   - experiments: regenerates every figure of the paper's evaluation
//
// Under cmd/, sdr-experiments regenerates the figures, sdr-model
// explores the completion-time model, and sdr-perftest is the
// ib_write_bw-style load generator: sustained windowed transfers
// through the full reliability path at line rate, deterministic per
// seed, tracking goodput and host packets/sec/core (its data path is
// tuned to roughly a tenth of an allocation per packet — see the
// "Line-rate perftest" README section).
//
// See README.md for a tour, including the figure table.
// Benchmarks in bench_test.go regenerate each figure, and
// surface_test.go holds the exported surface to the used one: an
// exported identifier under internal/ needs a product caller in another
// directory (cmd/, examples/ and benchmark/ count) or a reasoned entry
// in that file's allow-list.
package sdrrdma

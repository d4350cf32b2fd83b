package site

import "errors"

// Sentinel errors for illegal mutator operations, wrapped with site and
// object context by the Site methods. Heap-level conditions reuse the
// heap package sentinels (heap.ErrNoSuchObject, ...); callers match both
// with errors.Is. The public causalgc package re-exports all of them.
var (
	// ErrNotHolder is returned by SendRef when the sending object does not
	// currently hold the reference it is asked to copy.
	ErrNotHolder = errors.New("object does not hold the reference")
	// ErrRemoteSelf is returned by NewRemote when the target site is the
	// caller's own site (use NewLocal).
	ErrRemoteSelf = errors.New("remote creation targets own site")
	// ErrNoSite is returned by NewRemote when the target is the zero
	// SiteID: a creation addressed to "no site" could never be
	// delivered, leaving a permanently dangling reference.
	ErrNoSite = errors.New("remote creation targets the zero site")
	// ErrBatchRef is returned by ApplyBatch when a staged op defers an
	// argument to a batch index that is out of range or does not name a
	// create operation.
	ErrBatchRef = errors.New("bad batch reference")
)

package causalgc

import (
	"errors"

	"causalgc/internal/heap"
	"causalgc/internal/site"
)

// ErrNodeClosed is returned by mutator and collection operations on a
// Node after Close: the node's persistence (if any) is closed and its
// site state is frozen. Match with errors.Is.
var ErrNodeClosed = errors.New("causalgc: node closed")

// ErrBadOption is returned (wrapped, naming the offending option and
// value) by Recover when an option carries a nonsensical value — a
// negative WithSnapshotEvery. NewNode and NewCluster
// panic with the same wrapped error value (their signatures predate
// option validation), so a recover() can still match it. Match with
// errors.Is.
var ErrBadOption = errors.New("causalgc: invalid option")

// ErrBatchCommitted is returned by Batch.Commit when the batch was
// already committed: a Batch is single-shot.
var ErrBatchCommitted = errors.New("causalgc: batch already committed")

// Sentinel errors returned (wrapped with site/object context) by Node
// operations. Match with errors.Is.
var (
	// ErrNoSuchObject: the operation names an object this node does not
	// have — never created here, or already reclaimed.
	ErrNoSuchObject = heap.ErrNoSuchObject
	// ErrNoSuchCluster: the operation names a cluster unknown to this
	// node.
	ErrNoSuchCluster = heap.ErrNoSuchCluster
	// ErrDuplicateObject: a minted identity already exists.
	ErrDuplicateObject = heap.ErrDuplicateObject
	// ErrForeignCluster: the operation requires a cluster owned by this
	// node but was given a remote one.
	ErrForeignCluster = heap.ErrForeignCluster
	// ErrClusterRemoved: the target cluster was already detected as
	// garbage and removed.
	ErrClusterRemoved = heap.ErrClusterRemoved
	// ErrNilRef: the operation was given an unset reference.
	ErrNilRef = heap.ErrNilRef
	// ErrBadSlot: slot index out of range.
	ErrBadSlot = heap.ErrBadSlot
	// ErrRootCluster: the operation is illegal on a node's root cluster.
	ErrRootCluster = heap.ErrRootCluster
	// ErrNotHolder: SendRef was asked to copy a reference the sending
	// object does not hold.
	ErrNotHolder = site.ErrNotHolder
	// ErrRemoteSelf: NewRemote was pointed at the caller's own site.
	ErrRemoteSelf = site.ErrRemoteSelf
	// ErrNoSite: NewRemote was pointed at the zero SiteID ("no site"),
	// which could never receive the creation.
	ErrNoSite = site.ErrNoSite
	// ErrBatchRef: a batch operation was given a nil *BatchRef, a ref
	// from another batch, or a deferred reference that does not name an
	// earlier create op of the same batch.
	ErrBatchRef = site.ErrBatchRef
)

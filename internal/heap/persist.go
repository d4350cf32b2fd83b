package heap

import (
	"fmt"

	"causalgc/internal/ids"
)

// Image is the serialisable form of a Heap, used by the durability
// subsystem's snapshots. Export's slices are sorted, but snapshot bytes
// differ per encoding (image maps go in map order), so never compare
// them. No edge counts: the slots determine them; RestoreShard recounts.
type Image struct {
	Site        ids.SiteID
	RootCluster ids.ClusterID
	RootObject  ids.ObjectID
	NextObj     uint64
	NextClu     uint64
	Objects     []ObjectImage
	Clusters    []ClusterImage
}

// ObjectImage is one object's state.
type ObjectImage struct {
	ID      ids.ObjectID
	Cluster ids.ClusterID
	Slots   []Ref
}

// ClusterImage is one cluster's bookkeeping.
type ClusterImage struct {
	ID      ids.ClusterID
	Entries []ids.ObjectID
	Removed bool
}

// Export renders the heap as an image sharing no state with it. The
// counter fields snapshot the site's shared identity mint: every shard
// exports the same values, and restore max-observes them, so the
// duplication is harmless.
func (h *Heap) Export() Image {
	obj, clu := h.ctr.Snapshot()
	img := Image{
		Site:        h.site,
		RootCluster: h.rootClu,
		RootObject:  h.rootObj,
		NextObj:     obj,
		NextClu:     clu,
	}
	for _, o := range h.Objects() {
		img.Objects = append(img.Objects, ObjectImage{ID: o.id, Cluster: o.cluster, Slots: o.Slots()})
	}
	for _, id := range h.Clusters() {
		c := h.clusters[id]
		img.Clusters = append(img.Clusters, ClusterImage{ID: id, Entries: h.Entries(id), Removed: c.removed})
	}
	return img
}

// RestoreShard rebuilds one shard's heap from an image against the
// site's shared identity mint, without firing any Hooks notifications:
// the image already reflects every edge transition, and the engine
// state restored alongside it reflects the notifications the live heap
// issued. Each edge is recounted from the slots that cross a cluster
// boundary, skipping removed clusters, whose edges removal zeroed.
// withRoot=false accepts a rootless image (every shard but shard 0).
// The image's counter fields are max-observed into ctr, never
// overwritten: shards restore in any order.
func RestoreShard(hooks Hooks, img Image, ctr *Counters, withRoot bool) (*Heap, error) {
	if !img.Site.Valid() {
		return nil, fmt.Errorf("heap: restore: incomplete image for site %v", img.Site)
	}
	if withRoot && (!img.RootCluster.Valid() || !img.RootObject.Valid()) {
		return nil, fmt.Errorf("heap: restore: incomplete image for site %v", img.Site)
	}
	ctr.ObserveObj(img.NextObj)
	ctr.ObserveClu(img.NextClu)
	h := &Heap{
		site:     img.Site,
		hooks:    hooks,
		ctr:      ctr,
		objects:  make(map[ids.ObjectID]*Object, len(img.Objects)),
		clusters: make(map[ids.ClusterID]*cluster, len(img.Clusters)),
		edges:    make(map[edge]int),
		rootClu:  img.RootCluster,
		rootObj:  img.RootObject,
	}
	for _, ci := range img.Clusters {
		c := h.addCluster(ci.ID)
		c.removed = ci.Removed
		for _, obj := range ci.Entries {
			c.entries[obj] = struct{}{}
		}
	}
	for _, oi := range img.Objects {
		c, ok := h.clusters[oi.Cluster]
		if !ok {
			return nil, fmt.Errorf("heap: restore: object %v in unknown cluster %v", oi.ID, oi.Cluster)
		}
		o := &Object{id: oi.ID, cluster: oi.Cluster, slots: append([]Ref(nil), oi.Slots...)}
		h.objects[o.id] = o
		c.objects[o.id] = o
		if c.removed {
			continue
		}
		for _, r := range o.slots {
			if r.Valid() && r.Cluster != o.cluster {
				h.edges[edge{from: o.cluster, to: r.Cluster}]++
			}
		}
	}
	if withRoot && h.objects[h.rootObj] == nil {
		return nil, fmt.Errorf("heap: restore: root object %v missing", h.rootObj)
	}
	return h, nil
}

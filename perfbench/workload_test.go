package main

import (
	"reflect"
	"testing"

	"wren/internal/sharding"
)

func TestSameSeedSamePlans(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, err := genPlans(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := genPlans(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave different plans on two calls", w.name)
		}
		c, err := genPlans(w, 8)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.sessions[0].ids, c.sessions[0].ids) {
			t.Errorf("%s: seeds 7 and 8 gave the same plans", w.name)
		}
	}
}

func TestPlanShape(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		ps, err := genPlans(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		sessions := 0
		for _, n := range w.sessionsPerDC {
			sessions += n
		}
		if len(ps.sessions) != sessions {
			t.Fatalf("%s: %d session plans, want %d", w.name, len(ps.sessions), sessions)
		}
		if len(ps.keys) != numPartitions*w.keysPerPartition {
			t.Fatalf("%s: %d keys, want %d", w.name, len(ps.keys), numPartitions*w.keysPerPartition)
		}
		stride := ps.reads + ps.writes
		sp := ps.sessions[len(ps.sessions)-1]
		if sp.dc != len(w.sessionsPerDC)-1 {
			t.Errorf("%s: last session runs in DC %d", w.name, sp.dc)
		}
		if got := sp.count(stride); got != w.plansPerSession {
			t.Fatalf("%s: %d plans per session, want %d", w.name, got, w.plansPerSession)
		}
		for i := 0; i < sp.count(stride); i++ {
			parts := map[int]bool{}
			keys := map[int32]bool{}
			for _, id := range sp.ids[i*stride : (i+1)*stride] {
				keys[id] = true
				parts[sharding.PartitionOf(ps.keys[id], numPartitions)] = true
			}
			if len(parts) != partitionsPerT || len(keys) != stride {
				t.Fatalf("%s plan %d: %d partitions, %d distinct keys", w.name, i, len(parts), len(keys))
			}
		}
		for _, v := range sp.values {
			if len(v) != w.valueSize {
				t.Fatalf("%s: value of %d bytes, want %d", w.name, len(v), w.valueSize)
			}
		}
	}
}

func TestMarkerKeysCoverEveryPartition(t *testing.T) {
	keys := markerKeys()
	for p, k := range keys {
		if got := sharding.PartitionOf(k, numPartitions); got != p {
			t.Errorf("marker %q maps to partition %d, want %d", k, got, p)
		}
	}
}

func TestPoolLinksNeverExceedCores(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for _, nproc := range []int{1, 2, 8} {
			links := w.poolLinks(nproc)
			if links < 1 || (links*len(w.sessionsPerDC) > nproc && links > 1) {
				t.Errorf("%s nproc=%d: %d links per DC over %d DCs", w.name, nproc, links, len(w.sessionsPerDC))
			}
		}
	}
}

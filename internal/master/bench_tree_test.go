package master

import (
	"testing"

	"repro/internal/resource"
)

// BenchmarkTreeAdd measures finding an (app, unit)'s existing wait entry and
// moving its count — what every DemandUpdate hint costs the tree — at churn's
// shape: 2,500 apps × 40 units, each with one cluster-level entry, visited in
// rotation so each call finds its entry as cold as the lane does. One
// iteration is a re-demand (count 0 → 1) followed by its withdrawal.
func BenchmarkTreeAdd(b *testing.B) {
	const apps, units = 2500, 40
	t := newLocalityTree()
	for a := int32(0); a < apps; a++ {
		for u := int32(0); u < units; u++ {
			t.add(waitKey{app: a, unit: u}, 100, resource.LocalityCluster, 0, 1, 0, nil, nil)
			t.add(waitKey{app: a, unit: u}, 100, resource.LocalityCluster, 0, -1, 0, nil, nil)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Stride through the apps (as a round's demand does) rather than
		// through one app's units.
		k := waitKey{app: int32(i % apps), unit: int32(i / apps % units)}
		t.add(k, 100, resource.LocalityCluster, 0, 1, 0, nil, nil)
		t.add(k, 100, resource.LocalityCluster, 0, -1, 0, nil, nil)
	}
}

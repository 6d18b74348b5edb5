package core

import (
	"sort"
	"testing"

	"repro/internal/cc"
	"repro/internal/checkers"
	"repro/internal/metal"
	"repro/internal/prog"
	"repro/internal/workload"
)

// BenchmarkBlockTraversal runs a full engine traversal over a seeded
// workload with one bundled checker, each iteration on a cold engine;
// it tracks what one analysis costs with the §10 machinery.
func BenchmarkBlockTraversal(b *testing.B) {
	srcs, _ := workload.MixedTree(2, 10, 7)
	src, ok := checkers.Lookup("lock")
	if !ok {
		b.Fatal("bundled checker lock missing")
	}
	c, err := metal.Parse(src.Text)
	if err != nil {
		b.Fatal(err)
	}
	// Parse once outside the timed loop; each iteration rebuilds the
	// Program from the parsed files so every engine starts cold without
	// re-paying parse time (Programs no longer retain their files).
	names := make([]string, 0, len(srcs))
	for n := range srcs {
		names = append(names, n)
	}
	sort.Strings(names)
	files := make([]*cc.File, len(names))
	for i, n := range names {
		f, err := cc.ParseFile(n, srcs[n])
		if err != nil {
			b.Fatal(err)
		}
		files[i] = f
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewEngine(prog.Build(files...), c, DefaultOptions()).Run()
	}
}

// BenchmarkInstanceClone measures the per-clone cost of the shared
// cons-list trace. Cloning happens at every path split and call
// boundary for every active instance, so this is the engine's hottest
// allocation site.
func BenchmarkInstanceClone(b *testing.B) {
	in := &Instance{Var: "v", Obj: "p", Val: "locked"}
	for i := 0; i < 8; i++ {
		in.trace = in.trace.push("f.c:10: locked -> unlocked at spin_unlock(p)")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if cp := in.clone(); cp.trace != in.trace {
			b.Fatal("clone must share the trace")
		}
	}
}

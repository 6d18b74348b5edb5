package mc

// Compiled multi-checker dispatch (DESIGN.md §11) end-to-end contract:
// the automaton RunContext attaches to every live engine is a pure
// accelerator. At any parallelism level, cold or warm through the
// incremental cache, the full bundled suite over the seeded workload
// must produce the same reports, in the same emission and ranked
// order, as an unfiltered reference assembled directly from core
// engines with no automaton attached.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/metal"
	"repro/internal/prog"
	"repro/internal/rank"
	"repro/internal/report"
	"repro/internal/workload"
)

// renderRun is the byte-level comparison form: every report in
// emission order, then in ranked order, then the z-ranked rule groups.
func renderRun(reports []*Report, ruleStats map[string]rank.RuleStat) string {
	var sb strings.Builder
	for _, r := range reports {
		sb.WriteString(r.Detailed())
	}
	sb.WriteString("--- ranked\n")
	for _, r := range rank.Generic(reports) {
		sb.WriteString(r.Detailed())
	}
	sb.WriteString("--- groups\n")
	for _, g := range rank.Grouped(reports, ruleStats) {
		fmt.Fprintf(&sb, "%s %.3f %d\n", g.Rule, g.Z, len(g.Reports))
	}
	return sb.String()
}

// unfilteredReference runs the bundled suite the way RunContext's plain
// path does — one engine per checker over a shared annotation store,
// phased around the composition barrier, merged in load order — but
// sequentially and with no compiled dispatch attached, so every
// transition is dispatched at every point and no root is skipped.
func unfilteredReference(t *testing.T, srcs map[string]string) string {
	t.Helper()
	p, err := prog.BuildSource(srcs)
	if err != nil {
		t.Fatal(err)
	}
	var cks []*metal.Checker
	for _, s := range BundledCheckers() {
		c, err := metal.Parse(s.Text)
		if err != nil {
			t.Fatal(err)
		}
		cks = append(cks, c)
	}
	// runSuite's pre-annotations.
	shared := core.NewShared()
	shared.Mark("disk_sync", "blocking")
	shared.Mark("net_wait", "blocking")
	engines := make([]*core.Engine, len(cks))
	for i, c := range cks {
		engines[i] = core.NewEngineShared(p, c, DefaultOptions(), shared)
	}
	for _, phase := range core.PlanPhases(cks) {
		for _, i := range phase {
			engines[i].Run()
		}
	}
	var reports []*report.Report
	ruleStats := map[string]rank.RuleStat{}
	for _, en := range engines {
		if en.Failure != nil || en.Degraded() {
			t.Fatalf("reference %s: failed or degraded", en.Checker.Name)
		}
		reports = append(reports, en.Reports.Reports...)
		for rule, rc := range en.RuleStats {
			prev := ruleStats[rule]
			prev.Rule = rule
			prev.Examples += rc.Examples
			prev.Violations += rc.Violations
			ruleStats[rule] = prev
		}
	}
	if len(reports) == 0 {
		t.Fatal("unfiltered reference produced no reports; workload regressed")
	}
	return renderRun(reports, ruleStats)
}

// TestDispatchMatchesUnfiltered: the plain path at -j 1 and -j 8 is
// byte-identical to the unfiltered reference.
func TestDispatchMatchesUnfiltered(t *testing.T) {
	srcs, _ := workload.MixedTree(4, 25, 2002)
	want := unfilteredReference(t, srcs)
	for _, jobs := range []int{1, 8} {
		res := runSuite(t, srcs, jobs, nil)
		if got := renderRun(res.Reports, res.RuleStats); got != want {
			t.Errorf("-j %d: output differs from the unfiltered reference:\n%s", jobs, firstDiff(got, want))
		}
	}
}

// TestDispatchMatchesUnfilteredThroughCache: the cached path attaches
// the same automaton to its live unit engines; cold and warm runs at
// -j 1 and -j 8 are byte-identical to the unfiltered reference.
func TestDispatchMatchesUnfilteredThroughCache(t *testing.T) {
	srcs, _ := workload.MixedTree(3, 12, 77)
	want := unfilteredReference(t, srcs)
	for _, jobs := range []int{1, 8} {
		store := cache.NewMemStore()
		for _, pass := range []string{"cold", "warm"} {
			res := runSuite(t, srcs, jobs, store)
			if pass == "warm" && res.Incr.UnitsLive != 0 {
				t.Errorf("-j %d warm: %d units ran live, want all replayed", jobs, res.Incr.UnitsLive)
			}
			if got := renderRun(res.Reports, res.RuleStats); got != want {
				t.Errorf("-j %d %s: output differs from the unfiltered reference:\n%s", jobs, pass, firstDiff(got, want))
			}
		}
	}
}

// firstDiff renders the first differing line of two renderings.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("line counts differ: got %d, want %d", len(g), len(w))
}

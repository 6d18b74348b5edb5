package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"regexp"
	"sort"
	"strings"
	"time"

	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/workload"
	"repro/mc"
)

// jobs is the analysis parallelism of every run the benchmark makes:
// the host's CPU count on the reference machine (2).
const jobs = 2

// editWindow is the number of edits between resets of an edit stream
// to its base tree: one of each of the five edit kinds.
const editWindow = 5

// treeLines counts the source lines of a tree.
func treeLines(tree map[string]string) int {
	n := 0
	for _, src := range tree {
		n += strings.Count(src, "\n")
	}
	return n
}

// sortedNames returns a tree's file names in order.
func sortedNames(tree map[string]string) []string {
	names := make([]string, 0, len(tree))
	for n := range tree {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// inputsHash folds generated trees into one hex sha256, in the order
// given.
func inputsHash(trees ...map[string]string) string {
	h := sha256.New()
	for _, t := range trees {
		for _, n := range sortedNames(t) {
			fmt.Fprintf(h, "%d:%s%d:%s", len(n), n, len(t[n]), t[n])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// reportLine is the digest's view of one ranked report: its rendered
// text and verdict, the fields both the library and the daemon's
// /v1/reports expose.
func reportLine(text, function, verdict string) string {
	return text + "\t" + function + "\t" + verdict + "\n"
}

// digestReports hashes reports already in ranked order.
func digestReports(ranked []*report.Report) string {
	h := sha256.New()
	for _, r := range ranked {
		h.Write([]byte(reportLine(r.String(), r.Func, r.Verdict)))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// digestJSON hashes the daemon's ranked /v1/reports body.
func digestJSON(ranked []server.ReportJSON) string {
	h := sha256.New()
	for _, r := range ranked {
		h.Write([]byte(reportLine(r.Text, r.Func, r.Verdict)))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// checkerNames lists every bundled checker, in load order.
func checkerNames() []string {
	var names []string
	for _, s := range mc.BundledCheckers() {
		names = append(names, s.Name)
	}
	return names
}

// loadCheckers loads every bundled checker into a.
func loadCheckers(a *mc.Analyzer) error {
	for _, name := range checkerNames() {
		if err := a.LoadBundledChecker(name); err != nil {
			return err
		}
	}
	return nil
}

// opFault describes why a finished run counts as a failed op: a
// degraded traversal or a contained checker failure. Empty means the
// run is complete.
func opFault(res *mc.Result) string {
	switch {
	case res.Degraded:
		return fmt.Sprintf("degraded run (%d events)", len(res.Degradations))
	case len(res.Failures) > 0:
		return fmt.Sprintf("%d checker failures", len(res.Failures))
	}
	return ""
}

// reference is the correctness gate's cold, single-process, uncached
// plain run over a tree with every bundled checker. It returns the
// ranked digest (with synchronous verdicts when verify is set) and the
// wall time of the run itself, verification excluded.
func reference(tree map[string]string, verify bool) (digest string, wall time.Duration, err error) {
	a := mc.NewAnalyzer()
	if err := a.Configure(mc.RunConfig{Jobs: jobs}); err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	for name, src := range tree {
		a.AddSource(name, src)
	}
	if err := loadCheckers(a); err != nil {
		return "", 0, err
	}
	res, err := a.RunContext(context.Background())
	if err != nil {
		return "", 0, fmt.Errorf("reference run: %w", err)
	}
	ranked := res.Ranked()
	wall = time.Since(t0)
	if f := opFault(res); f != "" {
		return "", 0, fmt.Errorf("reference run: %s", f)
	}
	if verify {
		a.Verify(res, jobs)
		ranked = res.Ranked()
	}
	return digestReports(ranked), wall, nil
}

// render prints ranked reports the way xgcc does, into a buffer, and
// returns how long that took.
func render(ranked []*report.Report) float64 {
	t0 := time.Now()
	var sb strings.Builder
	for _, r := range ranked {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return ms(time.Since(t0))
}

// callTargets lists the tree's functions that take exactly one
// pointer argument, the safe targets of workload.AppendCaller.
func callTargets(tree map[string]string) []string {
	re := regexp.MustCompile(`(?m)^(?:int|void) (\w+)\(int \*p\) \{`)
	var out []string
	for _, n := range sortedNames(tree) {
		for _, m := range re.FindAllStringSubmatch(tree[n], -1) {
			out = append(out, m[1])
		}
	}
	return out
}

// editKind is the kind word of a workload.Edit name ("tweak-body").
func editKind(e workload.Edit) string {
	return strings.Fields(e.Name)[0]
}

// editStream yields a seeded sequence of edited trees. Edits come from
// workload.RandomEdits over the base tree in windows of editWindow;
// each window starts over from the base tree and holds every edit kind
// equally often, so the tree size and the mix of cheap (body tweak,
// banner) and expensive (new declarations) edits stay the same however
// many ops a run completes.
type editStream struct {
	base    map[string]string
	targets []string
	seed    int64
	cur     map[string]string
	window  []workload.Edit
	windows int64
}

func newEditStream(base map[string]string, seed int64) *editStream {
	return &editStream{base: base, targets: callTargets(base), seed: seed, cur: base}
}

// next applies the next edit and returns the edited tree and the edit.
func (s *editStream) next() (map[string]string, workload.Edit) {
	if len(s.window) == 0 {
		s.window = s.balancedWindow()
		s.cur = s.base
		s.windows++
	}
	e := s.window[0]
	s.window = s.window[1:]
	s.cur = e.Apply(s.cur)
	return s.cur, e
}

// balancedWindow draws the next window's edits, keeping RandomEdits'
// order but taking at most editWindow/kinds edits of each kind.
// Without caller targets there are four kinds and a window may hold two
// of one.
func (s *editStream) balancedWindow() []workload.Edit {
	kinds := 4
	if len(s.targets) > 0 {
		kinds = 5
	}
	limit := (editWindow + kinds - 1) / kinds
	cands := workload.RandomEdits(s.base, s.targets, 8*editWindow, s.seed*7919+s.windows)
	taken := map[string]int{}
	var out []workload.Edit
	for _, e := range cands {
		if len(out) == editWindow {
			break
		}
		if k := editKind(e); taken[k] < limit {
			taken[k]++
			out = append(out, e)
		}
	}
	return out
}

// changedFiles returns the files of next whose content differs from
// prev: the body of a daemon post that carries only what an edit
// changed.
func changedFiles(prev, next map[string]string) map[string]string {
	out := map[string]string{}
	for name, src := range next {
		if prev[name] != src {
			out[name] = src
		}
	}
	return out
}

package mc

// Fleet unit dispatch (DESIGN.md §15): the analyzer-side half of the
// coordinator/worker protocol. When RunConfig.UnitRunner is set, the
// cached run path offers each phase's cache-miss units to it as a
// UnitRun batch before running them locally. Workers are "fill this
// cache key" services: a worker computes the complete unit entry and
// writes it to the shared store under the job's key; the coordinator
// then re-probes the store and replays whatever appeared through the
// ordinary (byte-identical-pinned) replay path. Keys the runner did
// not fill — worker loss, degraded remote runs, transport failures —
// simply stay misses and run locally, so the fallback path is the
// normal path and no new consistency argument is needed.
//
// What every job of a run shares travels once per UnitRun: the source
// tree, the options, the checker table and the phase's marks. A job
// names its checker by index into that table, so a worker can parse
// the table and compile one union dispatch automaton per tree — the
// coordinator's own live path — instead of one per job.

import (
	"context"

	"repro/internal/core"
)

// MarkEvent re-exports one composition-mark record (core.MarkEvent).
// A UnitRun carries the annotation store visible at its phase barrier
// as sorted MarkEvents; marks are an idempotent boolean set, so the
// worker reconstructs the same store by re-applying them.
type MarkEvent = core.MarkEvent

// UnitJob is one cache-miss (checker, unit) pair offered to the unit
// runner. Checker indexes UnitRun.Checkers; Funcs and Roots are
// prog.FuncIDs into the program built from UnitRun.Files. Key is the
// content-addressed unit key the worker must fill.
type UnitJob struct {
	Key     string   `json:"key"`
	Checker int      `json:"checker"`
	Funcs   []string `json:"funcs"`
	Roots   []string `json:"roots"`
}

// UnitRun is one phase's batch of cache-miss units. Files is the full
// source set (workers rebuild the whole program — unit fingerprints
// include the declaration environment, so a partial tree would re-key
// everything); Options are the coordinator's engine options (workers
// may zero MaxResidentMB: it is excluded from the options fingerprint
// and entries with or without inline summaries replay identically).
// Checkers is the metal source of every loaded checker in load order,
// "" for checkers with native Go callouts (their code cannot ride a
// wire, so no job ever names them). Marks is the phase's barrier
// annotation store, shared by every job.
type UnitRun struct {
	TreeFP   string            `json:"tree_fp"`
	Files    map[string]string `json:"files"`
	Options  Options           `json:"options"`
	Checkers []string          `json:"checkers"`
	Marks    []MarkEvent       `json:"marks,omitempty"`
	Jobs     []UnitJob         `json:"jobs"`
}

// UnitRunner executes a UnitRun batch, filling cache keys as a side
// effect. An error (or any unfilled key) means those units run
// locally; it never fails the analysis.
type UnitRunner = func(ctx context.Context, run *UnitRun) error

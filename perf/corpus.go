package main

import (
	"fmt"
	"math/rand"

	"repro/versioning"
)

// version is the generator's own copy of one committed version: the
// benchmark checks every served answer against it.
type version struct {
	parents []versioning.NodeID // empty for a root; merges have two
	lines   []string
	files   [][]string // tree-history only: file contents by treePaths index
}

// corpus is a workload's commit stream, fixed by the seed: the first
// preload versions are ingested during set-up, the rest are committed
// in order by one client during the load phase.
type corpus struct {
	versions []version
	preload  int
	paths    []string // tree-history only: the file paths, sorted
}

// Tree-history shape. Every version holds the same 300 files whose
// sizes come from a fixed list, so the manifest size (about 10k lines,
// 300 KB) does not depend on the seed; only contents, edit positions and
// which files change do. Branches edit only the upper half of the files
// and the mainline only the lower half, so a merge's deltas have the
// same size whatever the seed.
const (
	treeFiles        = 300
	treePreload      = 176 // 75 MiB as the content cache counts it
	treeLoad         = 24  // a few commits, three maintenance passes
	treeFilesPerEdit = 3
	treeCycle        = 12 // one branch and one merge per cycle
)

func treeFileLines(i int) int { return 8 + (i*37)%50 }

// genTree builds the tree-history stream: a mainline with one short
// branch per cycle, merged back with CommitMerge.
func genTree(seed int64) *corpus {
	rng := rand.New(rand.NewSource(seed))
	c := &corpus{preload: treePreload}
	for i := 0; i < treeFiles; i++ {
		c.paths = append(c.paths, fmt.Sprintf("src/mod%02d/file%03d.txt", i%20, i))
	}
	sizes := rng.Perm(treeFiles)
	root := make([][]string, treeFiles)
	for i := range root {
		root[i] = make([]string, treeFileLines(sizes[i]))
		for j := range root[i] {
			root[i][j] = randLine(rng)
		}
	}
	c.add(nil, root)
	mainHead, branchHead := 0, -1
	var branchFiles map[int]bool
	for i := 1; i < treePreload+treeLoad; i++ {
		switch i % treeCycle {
		case 3: // fork a branch off the mainline
			branchFiles = map[int]bool{}
			files := editTree(rng, c.versions[mainHead].files, treeFiles/2, branchFiles)
			branchHead = c.add([]int{mainHead}, files)
		case 5, 7:
			files := editTree(rng, c.versions[branchHead].files, treeFiles/2, branchFiles)
			branchHead = c.add([]int{branchHead}, files)
		case 9: // merge: mainline tree with the branch's files on top
			files := append([][]string(nil), c.versions[mainHead].files...)
			for f := range branchFiles {
				files[f] = c.versions[branchHead].files[f]
			}
			mainHead = c.add([]int{mainHead, branchHead}, files)
		default:
			mainHead = c.add([]int{mainHead}, editTree(rng, c.versions[mainHead].files, 0, nil))
		}
	}
	return c
}

// add appends a tree version and returns its id.
func (c *corpus) add(parents []int, files [][]string) int {
	entries := make([]versioning.ManifestEntry, len(files))
	for i, f := range files {
		entries[i] = versioning.ManifestEntry{Path: c.paths[i], Lines: f}
	}
	v := version{lines: versioning.EncodeManifest(entries), files: files}
	for _, p := range parents {
		v.parents = append(v.parents, versioning.NodeID(p))
	}
	c.versions = append(c.versions, v)
	return len(c.versions) - 1
}

// editTree copies a tree and edits a few of the files in the half
// starting at index lo: two lines rewritten, one inserted and one
// deleted in each, so file sizes hold.
func editTree(rng *rand.Rand, files [][]string, lo int, touched map[int]bool) [][]string {
	out := append([][]string(nil), files...)
	for _, f := range rng.Perm(treeFiles / 2)[:treeFilesPerEdit] {
		f += lo
		lines := append([]string(nil), out[f]...)
		for k := 0; k < 2; k++ {
			lines[rng.Intn(len(lines))] = randLine(rng)
		}
		at := rng.Intn(len(lines) + 1)
		lines = append(lines[:at], append([]string{randLine(rng)}, lines[at:]...)...)
		del := rng.Intn(len(lines))
		lines = append(lines[:del], lines[del+1:]...)
		out[f] = lines
		if touched != nil {
			touched[f] = true
		}
	}
	return out
}

// randLine is a source-like line of 27 bytes. Lines have one length so
// that delta costs, and so the plans, hardly depend on the seed.
func randLine(rng *rand.Rand) string {
	return fmt.Sprintf("\tx%04x := f%03x(y%05x, %03d)", rng.Intn(1<<16), rng.Intn(1<<12), rng.Intn(1<<20), rng.Intn(1000))
}

// Commit-churn shape: small versions of 40 lines (the
// versioning.GenerateRepo kind). Every fifth commit branches off a
// version up to seven back, the rest extend the previous one; each
// commit rewrites, inserts and deletes one line. The shape is fixed and
// the seed draws only contents and edit positions, so the version graph
// the solvers see hardly depends on it.
const (
	churnPreload = 100
	churnLoad    = 400
	churnLines   = 40
)

func genChurn(seed int64) *corpus {
	rng := rand.New(rand.NewSource(seed))
	line := func() string { return fmt.Sprintf("line-%08x-%08x", rng.Int63n(1<<31), rng.Int63n(1<<31)) }
	c := &corpus{preload: churnPreload}
	root := make([]string, churnLines)
	for i := range root {
		root[i] = line()
	}
	c.versions = append(c.versions, version{lines: root})
	for v := 1; v < churnPreload+churnLoad; v++ {
		p := v - 1
		if v%5 == 0 {
			p = max(0, v-1-(v/5)%7)
		}
		lines := append([]string(nil), c.versions[p].lines...)
		lines[rng.Intn(len(lines))] = line()
		at := rng.Intn(len(lines) + 1)
		lines = append(lines[:at], append([]string{line()}, lines[at:]...)...)
		del := rng.Intn(len(lines))
		lines = append(lines[:del], lines[del+1:]...)
		c.versions = append(c.versions, version{lines: lines, parents: []versioning.NodeID{versioning.NodeID(p)}})
	}
	return c
}
